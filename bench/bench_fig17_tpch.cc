// Figure 17: TPC-H queries 3, 10, 12, 19 using the RHO join.
//
// Three configurations per query: native (Plain CPU), inside the enclave
// without the optimization, and inside the enclave with the unroll-and-
// reorder optimization. Paper shape: the optimization cuts query runtime
// by 7% (Q19) to 30% (Q12); the average in-enclave overhead drops from
// 42% to 15% over native. Every query runs the paper's Section 6 setup:
// QueryConfig::pipeline = false lowers the catalog plan to materializing
// operators, and every materializing join is RHO.

#include "bench_util.h"

using namespace sgxb;

int main() {
  core::PrintExperimentHeader(
      "Figure 17", "TPC-H Q3/Q10/Q12/Q19, native vs SGX (un)optimized");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  // Paper: SF 10. CI default: SF 0.1 for a fast, representative run.
  gen.scale_factor = core::FullScale() ? 10.0 : 0.1;
  std::printf("  generating TPC-H data at SF %.2f ...\n",
              gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();
  std::printf("  lineitem: %zu rows\n", db.lineitem.num_rows);

  const int threads = bench::HostThreads(16);
  core::TablePrinter table({"query", "count(*)", "native (host)",
                            "SGX unoptimized", "SGX optimized",
                            "opt. saves", "paper saves"});
  const char* paper_saves[] = {"~20%", "~25%", "30%", "7%"};

  double sum_native = 0, sum_opt = 0, sum_unopt = 0;
  int qi = 0;
  for (int query : {3, 10, 12, 19}) {
    tpch::QueryConfig cfg;
    cfg.num_threads = threads;
    cfg.radix_bits = core::FullScale() ? 14 : 10;
    cfg.pipeline = false;

    // Every cell is the mean over core::Repeat (SGXBENCH_REPS) runs.
    const int reps = core::DefaultRepetitions();
    // Optimized kernels: the native and the optimized enclave cells.
    cfg.flavor = KernelFlavor::kUnrolledReordered;
    uint64_t opt_count = 0;
    double native = 0;
    const double sgx_opt = core::Repeat(reps, [&] {
      const tpch::QueryResult opt = tpch::RunQuery(query, db, cfg).value();
      opt_count = opt.count;
      native += core::HostScaledNs(opt.phases, ExecutionSetting::kPlainCpu) /
                reps;
      return core::HostScaledNs(opt.phases,
                                ExecutionSetting::kSgxDataInEnclave);
    }).mean_ns;
    // Reference kernels (to derive the unoptimized enclave time).
    cfg.flavor = KernelFlavor::kReference;
    uint64_t ref_count = 0;
    const double sgx_unopt = core::Repeat(reps, [&] {
      const tpch::QueryResult ref = tpch::RunQuery(query, db, cfg).value();
      ref_count = ref.count;
      return core::HostScaledNs(ref.phases,
                                ExecutionSetting::kSgxDataInEnclave);
    }).mean_ns;
    if (opt_count != ref_count) {
      std::fprintf(stderr, "Q%d count mismatch!\n", query);
      return 1;
    }

    sum_native += native;
    sum_unopt += sgx_unopt;
    sum_opt += sgx_opt;

    char saves[32];
    std::snprintf(saves, sizeof(saves), "%.0f%%",
                  (1.0 - sgx_opt / sgx_unopt) * 100.0);
    table.AddRow({"Q" + std::to_string(query),
                  std::to_string(opt_count), core::FormatNanos(native),
                  core::FormatNanos(sgx_unopt),
                  core::FormatNanos(sgx_opt), saves, paper_saves[qi++]});
  }
  table.Print();
  table.ExportCsv("fig17");

  std::printf(
      "  average in-enclave overhead vs native: unoptimized %.0f%%, "
      "optimized %.0f%% (paper: 42%% -> 15%%)\n",
      (sum_unopt / sum_native - 1.0) * 100.0,
      (sum_opt / sum_native - 1.0) * 100.0);
  core::PrintNote(
      "queries are scan+join only, integer-encoded, count(*) finals, "
      "fully materializing, every join RHO — the paper's Section 6 "
      "setup.");
  return 0;
}
