// Figure 3: join algorithm overview.
//
// Throughput of five joins (CrkJoin, PHT, RHO, MWAY, INL) joining 100 MB
// x 400 MB with 16 threads, Plain CPU vs SGX (data in enclave).
//
// Paper shape: CrkJoin slowest (~60 M rows/s in enclave); hash joins
// (PHT, RHO) fastest natively but with the largest in-enclave reduction;
// MWAY and INL lose little; RHO in-enclave ~12x CrkJoin, INL ~3x.

#include "bench_util.h"

using namespace sgxb;

int main() {
  core::PrintExperimentHeader(
      "Figure 3", "join overview: 5 algorithms, Plain CPU vs SGX");
  bench::PrintEnvironment();

  const bench::JoinSizes sizes = bench::PaperJoinSizes();
  const double total_rows = bench::PaperRows(
      static_cast<double>(sizes.build_tuples) + sizes.probe_tuples);
  const int paper_threads = 16;
  const int host_threads = bench::HostThreads(paper_threads);

  auto build = join::GenerateBuildRelation(sizes.build_tuples,
                                           MemoryRegion::kUntrusted)
                   .value();
  auto probe = join::GenerateProbeRelation(
                   sizes.probe_tuples, sizes.build_tuples,
                   MemoryRegion::kUntrusted)
                   .value();

  core::TablePrinter table({"join", "host native", "modeled Plain CPU",
                            "modeled SGX-in", "SGX/native"});

  const join::JoinAlgorithm algos[] = {
      join::JoinAlgorithm::kCrk, join::JoinAlgorithm::kPht,
      join::JoinAlgorithm::kRho, join::JoinAlgorithm::kMway,
      join::JoinAlgorithm::kInl};

  uint64_t expected = sizes.probe_tuples;
  for (join::JoinAlgorithm algo : algos) {
    join::JoinConfig cfg;
    cfg.num_threads = host_threads;
    // Figure 3 benchmarks the *unoptimized* state-of-the-art joins.
    cfg.flavor = KernelFlavor::kReference;

    const join::JoinResult result =
        join::RunJoin(algo, build, probe, cfg).value();
    if (result.matches != expected) {
      std::fprintf(stderr, "MATCH MISMATCH for %s: %llu != %llu\n",
                   join::JoinAlgorithmToString(algo),
                   static_cast<unsigned long long>(result.matches),
                   static_cast<unsigned long long>(expected));
      return 1;
    }

    perf::PhaseBreakdown paper_phases = bench::PaperScale(result.phases);
    double native_ns = core::ModeledReferenceNs(
        paper_phases, ExecutionSetting::kPlainCpu, false, paper_threads);
    double sgx_ns = core::ModeledReferenceNs(
        paper_phases, ExecutionSetting::kSgxDataInEnclave, false,
        paper_threads);
    table.AddRow(
        {join::JoinAlgorithmToString(algo),
         core::FormatRowsPerSec(total_rows / (result.host_ns * 1e-9)),
         core::FormatRowsPerSec(total_rows / (native_ns * 1e-9)),
         core::FormatRowsPerSec(total_rows / (sgx_ns * 1e-9)),
         core::FormatRel(native_ns / sgx_ns)});
  }
  table.Print();
  table.ExportCsv("fig03");

  core::PrintNote(
      "paper: CrkJoin ~60 M rows/s in-enclave; RHO in-enclave ~12x "
      "CrkJoin and ~30%+ below its native throughput; PHT suffers the "
      "largest relative loss; MWAY and INL lose the least.");
  return 0;
}
