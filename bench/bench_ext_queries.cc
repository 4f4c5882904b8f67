// Extension E4: the scan-dominated TPC-H queries (Q1, Q6) and the
// grouped Q12 under the three execution settings.
//
// The paper's query section (Fig. 17) uses join-dominated queries. The
// scan-dominated classics complete the picture: per the paper's scan
// results (Fig. 12-15), Q1/Q6 should run inside the enclave at within a
// few percent of native even WITHOUT the unroll optimization — secure
// scanning is nearly free, it is the joins that need care.

#include "bench_util.h"
#include "plan/catalog.h"

using namespace sgxb;

int main() {
  core::PrintExperimentHeader(
      "Extension E4", "scan-dominated queries: Q1, Q6, Q12-grouped");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  gen.scale_factor = core::FullScale() ? 10.0 : 0.1;
  std::printf("  generating TPC-H data at SF %.2f ...\n",
              gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();

  const int threads = bench::HostThreads(16);
  core::TablePrinter table({"query", "result", "native (host)",
                            "SGX-in (host-scaled)", "overhead"});

  struct Q {
    const char* name;
    int number;
  };
  for (const Q& q :
       {Q{"Q1 (scan+group)", 1}, Q{"Q6 (pure scan)", 6},
        Q{"Q12 grouped (join+group)", plan::kQueryQ12Grouped}}) {
    tpch::QueryConfig cfg;
    cfg.num_threads = threads;
    cfg.radix_bits = 10;
    // Paper-faithful setup: materializing, regardless of the planner's
    // cost-based mode pick.
    cfg.pipeline = false;
    auto result = tpch::RunQuery(q.number, db, cfg);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.name,
                   result.status().ToString().c_str());
      return 1;
    }
    double native = core::HostScaledNs(result.value().phases,
                                       ExecutionSetting::kPlainCpu);
    double sgx = core::HostScaledNs(
        result.value().phases, ExecutionSetting::kSgxDataInEnclave);
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "+%.0f%%",
                  (sgx / native - 1.0) * 100.0);
    std::string res = std::to_string(result.value().count);
    if (!result.value().group_counts.empty()) {
      res += " (" +
             std::to_string(result.value().group_counts.size()) +
             " groups)";
    }
    table.AddRow({q.name, res, core::FormatNanos(native),
                  core::FormatNanos(sgx), overhead});
  }
  table.Print();
  table.ExportCsv("ext_queries");

  core::PrintNote(
      "pure scans (Q6) carry only the streaming MEE overhead of a few "
      "percent. Q1's GROUP BY is a histogram-style read-modify-write "
      "loop, so it inherits the Fig. 7 enclave reordering penalty — the "
      "paper's unroll-and-reorder advice applies to aggregation finals "
      "too, not just to radix partitioning.");
  return 0;
}
