// sgxbench_cli: run individual experiments from the command line.
//
//   sgxbench_cli info
//   sgxbench_cli join  <pht|rho|mway|inl|crk|cht> [--threads N] [--mb B P]
//                      [--setting plain|sgx-in|sgx-out] [--reference]
//                      [--materialize] [--skew THETA]
//   sgxbench_cli scan  [--mb N] [--threads N] [--sel PCT] [--rowids]
//   sgxbench_cli query <N|12g> [--sf F] [--threads N]
//                      [--setting plain|sgx-in]
//
// `query` runs any plan-catalog query by number (plan/catalog.h; 12g is
// the grouped Q12, number 112), then prints the planner's explain output
// for the configuration it ran with.
//
// A thin driver over the public API — handy for exploring parameter
// spaces that the fixed bench binaries do not sweep.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/sgxbench.h"
#include "plan/catalog.h"
#include "plan/planner.h"

using namespace sgxb;

namespace {

// The `join` command's names, one per join::JoinAlgorithm.
constexpr std::pair<const char*, join::JoinAlgorithm> kJoinNames[] = {
    {"pht", join::JoinAlgorithm::kPht},   {"rho", join::JoinAlgorithm::kRho},
    {"mway", join::JoinAlgorithm::kMway}, {"inl", join::JoinAlgorithm::kInl},
    {"crk", join::JoinAlgorithm::kCrk},   {"cht", join::JoinAlgorithm::kCht}};

int Usage() {
  std::string queries;
  for (const plan::CatalogEntry& e : plan::Catalog()) {
    queries += std::to_string(e.query_number) + "|";
  }
  std::fprintf(
      stderr,
      "usage:\n"
      "  sgxbench_cli info\n"
      "  sgxbench_cli join <pht|rho|mway|inl|crk|cht> [--threads N]\n"
      "               [--mb BUILD PROBE] [--setting plain|sgx-in|sgx-out]\n"
      "               [--reference] [--materialize] [--skew THETA]\n"
      "  sgxbench_cli scan [--mb N] [--threads N] [--sel PCT] [--rowids]\n"
      "  sgxbench_cli query <%s12g> [--sf F] [--threads N]\n"
      "               [--setting plain|sgx-in]\n",
      queries.c_str());
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  int threads = 1;
  double build_mb = 10, probe_mb = 40;
  double scan_mb = 64;
  double sf = 0.05;
  int selectivity_pct = 50;
  bool rowids = false;
  bool reference = false;
  bool materialize = false;
  double skew = 0;
  ExecutionSetting setting = ExecutionSetting::kPlainCpu;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_num = [&](double* target) {
      if (i + 1 >= argc) return false;
      *target = std::atof(argv[++i]);
      return true;
    };
    if (arg == "--threads") {
      double v;
      if (!next_num(&v) || v < 1) return false;
      out->threads = static_cast<int>(v);
    } else if (arg == "--mb") {
      if (out->positional.size() > 0 && out->positional[0] == "scan") {
        if (!next_num(&out->scan_mb)) return false;
      } else {
        if (!next_num(&out->build_mb)) return false;
        if (!next_num(&out->probe_mb)) return false;
      }
    } else if (arg == "--sf") {
      if (!next_num(&out->sf) || out->sf <= 0) return false;
    } else if (arg == "--sel") {
      double v;
      if (!next_num(&v) || v < 0 || v > 100) return false;
      out->selectivity_pct = static_cast<int>(v);
    } else if (arg == "--skew") {
      if (!next_num(&out->skew)) return false;
    } else if (arg == "--rowids") {
      out->rowids = true;
    } else if (arg == "--reference") {
      out->reference = true;
    } else if (arg == "--materialize") {
      out->materialize = true;
    } else if (arg == "--setting") {
      if (i + 1 >= argc) return false;
      std::string v = argv[++i];
      if (v == "plain") {
        out->setting = ExecutionSetting::kPlainCpu;
      } else if (v == "sgx-in") {
        out->setting = ExecutionSetting::kSgxDataInEnclave;
      } else if (v == "sgx-out") {
        out->setting = ExecutionSetting::kSgxDataOutsideEnclave;
      } else {
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      out->positional.push_back(arg);
    }
  }
  return !out->positional.empty();
}

int RunInfo() {
  const CpuInfo& cpu = CpuInfo::Host();
  const auto& cal = perf::CalibrationParams::Default();
  std::printf("host:      %s\n", cpu.model_name.c_str());
  std::printf("cores:     %d | SIMD: %s\n", cpu.logical_cores,
              SimdLevelToString(cpu.max_simd));
  std::printf("caches:    L1d %s | L2 %s | L3 %s\n",
              core::FormatBytes(cpu.l1d_bytes).c_str(),
              core::FormatBytes(cpu.l2_bytes).c_str(),
              core::FormatBytes(cpu.l3_bytes).c_str());
  std::printf("reference: %d x %d cores @ %.1f GHz, EPC %s/socket\n",
              cal.sockets, cal.cores_per_socket,
              cal.base_frequency_hz / 1e9,
              core::FormatBytes(cal.epc_per_socket_bytes).c_str());
  std::printf("model:     transition %lu cyc | EDMM %.0f us/page | "
              "ILP penalty %.2fx\n",
              static_cast<unsigned long>(cal.transition_cycles),
              cal.edmm_page_add_ns / 1000.0, cal.ilp_penalty_reference);
  return 0;
}

int RunJoin(const Args& args) {
  const std::string& name = args.positional[1];
  const auto* known = std::find_if(
      std::begin(kJoinNames), std::end(kJoinNames),
      [&](const auto& entry) { return name == entry.first; });
  if (known == std::end(kJoinNames)) return Usage();

  const size_t build_n =
      BytesToTuples(static_cast<size_t>(args.build_mb * 1_MiB));
  const size_t probe_n =
      BytesToTuples(static_cast<size_t>(args.probe_mb * 1_MiB));
  auto build =
      join::GenerateBuildRelation(build_n, MemoryRegion::kUntrusted)
          .value();
  auto probe =
      args.skew > 0
          ? join::GenerateSkewedProbeRelation(probe_n, build_n, args.skew,
                                              MemoryRegion::kUntrusted)
                .value()
          : join::GenerateProbeRelation(probe_n, build_n,
                                        MemoryRegion::kUntrusted)
                .value();

  sgx::EnclaveConfig ecfg;
  ecfg.initial_heap_bytes =
      static_cast<size_t>(8 * (args.build_mb + args.probe_mb)) * 1_MiB +
      64_MiB;
  sgx::Enclave* enclave = sgx::Enclave::Create(ecfg).value();

  join::JoinConfig cfg;
  cfg.num_threads = args.threads;
  cfg.flavor = args.reference ? KernelFlavor::kReference
                              : KernelFlavor::kUnrolledReordered;
  cfg.setting = args.setting;
  cfg.enclave = enclave;
  cfg.materialize = args.materialize;

  Result<join::JoinResult> r =
      join::RunJoin(known->second, build, probe, cfg);
  if (!r.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 r.status().ToString().c_str());
    sgx::DestroyEnclave(enclave);
    return 1;
  }
  const join::JoinResult& res = r.value();
  double rows = static_cast<double>(build_n) + probe_n;
  std::printf("%s: %llu matches in %s (%s)\n", name.c_str(),
              static_cast<unsigned long long>(res.matches),
              core::FormatNanos(res.host_ns).c_str(),
              core::FormatRowsPerSec(rows / (res.host_ns * 1e-9)).c_str());
  for (const auto& phase : res.phases.phases) {
    std::printf("  %-14s %12s  x%.2f under %s\n", phase.name.c_str(),
                core::FormatNanos(phase.host_ns).c_str(),
                core::PhaseSlowdown(phase, args.setting),
                ExecutionSettingToString(args.setting));
  }
  sgx::DestroyEnclave(enclave);
  return 0;
}

int RunScan(const Args& args) {
  const size_t n = static_cast<size_t>(args.scan_mb * 1_MiB);
  auto col = Column<uint8_t>::Allocate(n, MemoryRegion::kUntrusted).value();
  Xoshiro256 rng(1);
  for (size_t i = 0; i < n; ++i) {
    col[i] = static_cast<uint8_t>(rng.Next());
  }
  scan::ScanConfig cfg;
  cfg.lo = 0;
  cfg.hi = static_cast<uint8_t>(
      args.selectivity_pct == 0
          ? 0
          : args.selectivity_pct * 256 / 100 - 1);
  cfg.num_threads = args.threads;
  cfg.setting = args.setting;

  if (args.rowids) {
    std::vector<uint64_t> ids(n);
    uint64_t count = 0;
    auto r = scan::RunRowIdScan(col, ids.data(), &count, cfg).value();
    std::printf("rowid scan: %llu matches, %.2f GB/s\n",
                static_cast<unsigned long long>(count),
                n / (r.host_ns * 1e-9) / 1e9);
  } else {
    auto bv = BitVector::Allocate(n, MemoryRegion::kUntrusted).value();
    auto r = scan::RunBitVectorScan(col, &bv, cfg).value();
    std::printf("bitvector scan: %llu matches, %.2f GB/s\n",
                static_cast<unsigned long long>(r.matches),
                n / (r.host_ns * 1e-9) / 1e9);
  }
  return 0;
}

int RunQueryCmd(const Args& args) {
  const std::string& q = args.positional[1];
  int number = plan::kQueryQ12Grouped;
  if (q != "12g") {
    char* end = nullptr;
    number = static_cast<int>(std::strtol(q.c_str(), &end, 10));
    if (end == q.c_str() || *end != '\0') return Usage();
  }

  tpch::GenConfig gen;
  gen.scale_factor = args.sf;
  tpch::TpchDb db = tpch::Generate(gen).value();

  sgx::EnclaveConfig ecfg;
  ecfg.initial_heap_bytes = 512_MiB;
  sgx::Enclave* enclave = sgx::Enclave::Create(ecfg).value();
  tpch::QueryConfig cfg;
  cfg.num_threads = args.threads;
  cfg.setting = args.setting;
  cfg.enclave = enclave;

  Result<tpch::QueryResult> r = tpch::RunQuery(number, db, cfg);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 r.status().ToString().c_str());
    sgx::DestroyEnclave(enclave);
    return 1;
  }
  std::printf("Q%s at SF %.2f: count=%llu in %s\n", q.c_str(), args.sf,
              static_cast<unsigned long long>(r.value().count),
              core::FormatNanos(r.value().host_ns).c_str());
  const std::vector<uint64_t>& groups = r.value().group_counts;
  if (number == plan::kQueryQ12Grouped) {
    std::printf("  groups: high=%llu low=%llu\n",
                static_cast<unsigned long long>(groups[0]),
                static_cast<unsigned long long>(groups[1]));
  } else if (!groups.empty()) {
    std::printf("  groups:");
    for (uint64_t g : groups) {
      std::printf(" %llu", static_cast<unsigned long long>(g));
    }
    std::printf("\n");
  }
  const plan::Plan& query_plan = plan::FindQuery(number)->plan;
  const plan::PlanDecisions decisions = plan::DecideFor(query_plan, cfg);
  std::printf("%s", plan::Explain(query_plan, decisions).c_str());
  sgx::DestroyEnclave(enclave);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const std::string& cmd = args.positional[0];
  if (cmd == "info") return RunInfo();
  if (cmd == "join" && args.positional.size() == 2) return RunJoin(args);
  if (cmd == "scan") return RunScan(args);
  if (cmd == "query" && args.positional.size() == 2) {
    return RunQueryCmd(args);
  }
  return Usage();
}
