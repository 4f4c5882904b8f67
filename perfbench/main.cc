// perfbench_serve: the serving benchmark binary (README.md).
//
//   perfbench_serve --workload resident|paged|htap --seed N --seconds S
//                   --trace 0|1 [--sf F] [--setups K] [--spans PATH]
//                   [--git-sha SHA] [--wrong-answer]
//
// Generates TPC-H data, serves the seeded closed-loop mix through
// serve::QueryServer in the data-in-enclave setting of a static simulated
// enclave, checks every answer, and prints the run record, a summary and,
// as the last line of standard output, one JSON result object. The
// untraced run (--trace 0) reports the end-to-end metrics; the traced run
// reports the per-layer metrics. Exit code 0 only when every answer was
// right and nothing failed.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/cpu_info.h"
#include "common/timer.h"
#include "perf/calibration.h"
#include "probes.h"
#include "stats.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kQueries[] = {6, 1, 12, 3};
// A p95 rests on at least this many completions (ten beyond the tail).
constexpr size_t kMinTailSamples = 200;
// The share of the timed windows the timings are taken from: those in
// which the hypervisor stole the least CPU time.
constexpr double kQuietShare = 2.0 / 3.0;

struct Args {
  BenchOptions opt;
  std::string spans_path;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_serve --workload "
               "resident|paged|htap --seed N --seconds S --trace 0|1 "
               "[--sf F] [--setups K] [--spans PATH] [--git-sha SHA] "
               "[--wrong-answer]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-answer") {
      a.opt.wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a.opt.workload)) Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      a.opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.opt.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.opt.trace = v == "1";
    } else if (flag == "--sf") {
      a.opt.scale_factor = std::strtod(v.c_str(), &end);
    } else if (flag == "--setups") {
      a.opt.setups = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.opt.seconds <= 0 || a.opt.scale_factor <= 0 || a.opt.setups < 1) {
    Usage("--seconds, --sf and --setups must be positive");
  }
  return a;
}

// Any SGXBENCH_* knob can silently change the measured program; the
// benchmark configures everything through option structs instead.
bool EnvironmentClean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SGXBENCH_", 9) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

// Peak RSS since the last ResetPeakRss(): VmHWM of /proc/self/status, or
// the process-lifetime peak where that is unavailable.
double PeakRssMib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Returns the heap the earlier set-ups freed to the kernel and restarts
// the peak, so peak_rss_mib covers one set-up and the timed run rather
// than whatever the allocator kept from the ones before.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::vector<double> Collect(const std::vector<Completion>& cs, int query,
                            double Completion::*field) {
  std::vector<double> v;
  for (const Completion& c : cs) {
    if (query == 0 || c.query == query) v.push_back(c.*field);
  }
  return v;
}

double ModelRatio(const std::vector<const Completion*>& cs, int qa, int qb) {
  double sgx = 0, plain = 0;
  for (const Completion* c : cs) {
    if (c->query != qa && c->query != qb) continue;
    sgx += c->model_sgx_ns;
    plain += c->model_plain_ns;
  }
  return plain > 0 ? sgx / plain : 0;
}

// The windows the timings are taken from: the kQuietShare of them in
// which the hypervisor stole the least CPU time (README.md, "Host").
std::vector<Window> QuietWindows(std::vector<Window> windows) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal < b.steal;
                   });
  const size_t keep = static_cast<size_t>(
      std::ceil(kQuietShare * static_cast<double>(windows.size())));
  windows.resize(std::max<size_t>(1, std::min(keep, windows.size())));
  return windows;
}

bool InWindows(uint64_t t, const std::vector<Window>& windows) {
  for (const Window& w : windows) {
    if (t >= w.begin_ns && t <= w.end_ns) return true;
  }
  return false;
}

// The CommitReference steps that ended in `windows`.
std::vector<double> ReferenceSteps(const WriterResult& writer,
                                   const std::vector<Window>& windows) {
  std::vector<double> v;
  for (size_t i = 0; i < writer.step_ns.size(); ++i) {
    if (InWindows(writer.step_end_ns[i], windows)) {
      v.push_back(writer.step_ns[i]);
    }
  }
  return v;
}

// How AddEndToEnd scales the timings (hostref.h); the defaults give the
// raw host figures.
struct Scales {
  /// Each mix window's timings by the host reference measured just
  /// before it: nominal / reference. htap's commits ran in the mix
  /// windows and are scaled with them; the solo burst's windows carry no
  /// host reference.
  bool by_window = false;
  /// setup_s, by the run's host reference.
  double setup = 1;
  /// The solo burst's commit percentiles, by the commit reference.
  double commit_p50 = 1;
  double commit_p95 = 1;
};

// The end-to-end metrics over the completions and commits that ended in
// `quiet` (mix windows) and `quiet_commits` (the windows of whichever
// writer ran), scaled as `sc` says. The traced run reports them again
// under `prefix` so the tracing overhead is visible.
void AddEndToEnd(const MixResult& mix, const WriterResult& writer,
                 const std::vector<Window>& quiet,
                 const std::vector<Window>& quiet_commits, double setup_s,
                 double peak_rss_mib, const Scales& sc,
                 const std::string& prefix, MetricList* m) {
  auto window_scale = [&](const Window& w) {
    return sc.by_window && w.reference_ns > 0
               ? kReferenceNominalNs / w.reference_ns
               : 1.0;
  };
  auto in = [](uint64_t t, const Window& w) {
    return t >= w.begin_ns && t <= w.end_ns;
  };
  std::vector<const Completion*> cs;
  std::map<int, std::vector<double>> latency;
  double seconds = 0;
  for (const Window& w : quiet) {
    const double s = window_scale(w);
    seconds += s * static_cast<double>(w.end_ns - w.begin_ns) * 1e-9;
    for (const Completion& c : mix.completions) {
      if (!in(c.end_ns, w)) continue;
      cs.push_back(&c);
      latency[c.query].push_back(s * c.total_ns);
    }
  }
  std::vector<double> commits;
  for (const Window& w : quiet_commits) {
    const double s = window_scale(w);
    for (size_t i = 0; i < writer.commit_ns.size(); ++i) {
      if (in(writer.commit_end_ns[i], w)) {
        commits.push_back(s * writer.commit_ns[i]);
      }
    }
  }
  m->Add(prefix + "qps", static_cast<double>(cs.size()) / seconds, "1/s");
  for (int q : kQueries) {
    const std::string n = prefix + "q" + std::to_string(q);
    m->Add(n + "_p50_ms", Quantile(latency[q], 0.50) / 1e6, "ms");
    m->Add(n + "_p95_ms", Quantile(latency[q], 0.95) / 1e6, "ms");
  }
  m->Add(prefix + "setup_s", sc.setup * setup_s, "s");
  m->Add(prefix + "peak_rss_mib", peak_rss_mib, "MiB");
  m->Add(prefix + "model_sgx_ratio_scan", ModelRatio(cs, 6, 1), "x");
  m->Add(prefix + "model_sgx_ratio_join", ModelRatio(cs, 12, 3), "x");
  m->Add(prefix + "commit_p50_us",
         sc.commit_p50 * Quantile(commits, 0.50) / 1e3, "us");
  m->Add(prefix + "commit_p95_us",
         sc.commit_p95 * Quantile(commits, 0.95) / 1e3, "us");
}

// Mean of a report counter over the completions of `query` (0 = all).
double PerQuery(const std::vector<Completion>& cs, int query,
                double (*field)(const obs::QueryReport&)) {
  double sum = 0, n = 0;
  for (const Completion& c : cs) {
    if (query != 0 && c.query != query) continue;
    sum += field(c.report);
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

// Ratio of two report counters summed over all completions.
double SumRatio(const std::vector<Completion>& cs,
                uint64_t obs::QueryReport::*a, uint64_t obs::QueryReport::*b) {
  double num = 0, den = 0;
  for (const Completion& c : cs) {
    num += static_cast<double>(c.report.*a);
    den += static_cast<double>(c.report.*b);
  }
  return den > 0 ? num / den : 0;
}

void AddPerLayer(const MixResult& mix, const WriterResult& writer,
                 MetricList* m) {
  const auto& cs = mix.completions;
  using R = obs::QueryReport;
  constexpr double kMiB = 1 << 20;

  // serve
  m->Add("serve.admit_us_p50",
         Quantile(Collect(cs, 0, &Completion::queue_ns), 0.5) / 1e3, "us");
  int granted_min = cs.empty() ? 0 : cs.front().granted_threads;
  for (const Completion& c : cs) {
    granted_min = std::min(granted_min, c.granted_threads);
  }
  m->Add("serve.granted_threads_min", granted_min, "count");

  // tpch / plan
  static const char* kKinds[] = {"filter", "join", "aggregate"};
  for (int q : kQueries) {
    const std::string n = "q" + std::to_string(q);
    m->Add("tpch.exec_ms_p50." + n,
           Quantile(Collect(cs, q, &Completion::exec_ns), 0.5) / 1e6, "ms");
    for (int k = 0; k < 3; ++k) {
      std::vector<double> v;
      for (const Completion& c : cs) {
        if (c.query == q) v.push_back(c.phase_ns[k]);
      }
      m->Add("tpch.phase_ms." + n + "." + kKinds[k], Median(v) / 1e6, "ms");
    }
  }
  for (int q : {12, 3}) {
    m->Add("tpch.materialized_mib.q" + std::to_string(q),
           PerQuery(cs, q, [](const R& r) {
             return static_cast<double>(r.bytes_materialized) / kMiB;
           }),
           "MiB");
  }

  // Report counters averaged per completed query.
  struct Counter {
    const char* name;
    double (*get)(const R&);
    const char* unit;
  };
  static const Counter kCounters[] = {
      {"exec.gangs_per_query", [](const R& r) { return 1.0 * r.gangs; },
       "count"},
      {"exec.morsels_per_query", [](const R& r) { return 1.0 * r.morsels; },
       "count"},
      {"storage.reloads_per_query",
       [](const R& r) { return 1.0 * r.partitions_reloaded; }, "count"},
      {"storage.decrypt_mib_per_query",
       [](const R& r) { return r.storage_decrypt_bytes / kMiB; }, "MiB"},
      {"storage.evictions_per_query",
       [](const R& r) { return 1.0 * r.partitions_evicted; }, "count"},
      {"storage.pin_waits_per_query",
       [](const R& r) { return 1.0 * r.storage_pin_waits; }, "count"},
      {"sgx.ecalls_per_query", [](const R& r) { return 1.0 * r.ecalls; },
       "count"},
      {"sgx.transition_ms_per_query",
       [](const R& r) { return CyclesToNanos(r.transition_cycles) / 1e6; },
       "ms"},
      {"sgx.parks_per_query", [](const R& r) { return 1.0 * r.mutex_parks; },
       "count"},
      {"sgx.park_ms_per_query",
       [](const R& r) { return r.mutex_park_ns / 1e6; }, "ms"},
      {"sgx.edmm_pages_per_query",
       [](const R& r) { return 1.0 * r.edmm_pages_added; }, "count"},
      {"mem.arena_mib_per_query",
       [](const R& r) { return r.arena_bytes / kMiB; }, "MiB"},
  };
  for (const Counter& c : kCounters) {
    m->Add(c.name, PerQuery(cs, 0, c.get), c.unit);
  }
  m->Add("exec.steal_frac", SumRatio(cs, &R::morsel_steals, &R::morsels),
         "frac");
  double hits = 0, lookups = 0;
  for (const Completion& c : cs) {
    hits += static_cast<double>(c.report.pool_hits);
    lookups += static_cast<double>(c.report.pool_hits + c.report.pool_misses);
  }
  m->Add("mem.pool_hit_frac", lookups > 0 ? hits / lookups : 0, "frac");

  // txn (the writer's view)
  const txn::TxnStats& ts = writer.stats;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  m->Add("txn.cow_kib_per_commit", ratio(ts.cow_bytes / 1024.0, ts.commits),
         "KiB");
  m->Add("txn.reclaim_frac",
         ratio(ts.versions_reclaimed, ts.versions_retired), "frac");
  m->Add("txn.live_version_mib", ts.live_version_bytes / kMiB, "MiB");
  m->Add("txn.late_tick_frac", ratio(writer.late_ticks, writer.ticks),
         "frac");
}

void PrintRecord(const Args& a) {
  const CpuInfo& cpu = CpuInfo::Host();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d sf=%g\n",
              WorkloadName(a.opt.workload),
              static_cast<unsigned long long>(a.opt.seed), a.opt.seconds,
              a.opt.trace ? 1 : 0, a.opt.scale_factor);
  std::printf("# git_sha=%s nproc=%ld cpu=\"%s\" simd=%s calib_hash=%s\n",
              a.git_sha.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              cpu.model_name.c_str(), SimdLevelToString(cpu.max_simd),
              perf::CalibrationMachineHash().c_str());
  std::printf("# load: clients=%d gang_threads=%d max_inflight=%d "
              "worker_share=%d setting=sgx-data-in-enclave\n",
              kClients, kGangThreads, kClients, kGangThreads);
}

void PrintWindows(const char* what, const std::vector<Window>& all,
                  const std::vector<Window>& quiet) {
  std::printf("# %s windows: %zu of %zu kept; steal %%:", what, quiet.size(),
              all.size());
  for (const Window& w : all) {
    std::printf(" %.2f%s", 100 * w.steal,
                InWindows(w.begin_ns, quiet) ? "" : "x");
  }
  std::printf("\n");
}

void PrintSummary(const MixResult& mix, const WriterResult& writer,
                  const std::vector<double>& setups, uint64_t attempted,
                  uint64_t failed) {
  std::printf("# setups_s:");
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\n# completions=%zu", mix.completions.size());
  for (int q : kQueries) {
    const size_t n = Collect(mix.completions, q, &Completion::total_ns).size();
    std::printf(" q%d=%zu", q, n);
  }
  std::printf("\n# commits=%zu late_ticks=%llu/%llu\n",
              writer.commit_ns.size(),
              static_cast<unsigned long long>(writer.late_ticks),
              static_cast<unsigned long long>(writer.ticks));
  std::printf("# attempted=%llu failed=%llu fail_frac=%.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0);
}

int Run(const Args& a) {
  const BenchOptions& opt = a.opt;
  PrintRecord(a);
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (kClients * kGangThreads > nproc) {
    std::fprintf(stderr,
                 "perfbench: clients x gang width = %d exceeds nproc = %d\n",
                 kClients * kGangThreads, nproc);
    return 2;
  }

  uint64_t attempted = 0, failed = 0;
  Oracle oracle;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < opt.setups; ++i) {
    fx.reset();
    if (i == opt.setups - 1) ResetPeakRss();
    const uint64_t begin = NowNs();
    auto built = Fixture::Build(opt);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    fx = std::move(built).value();
    uint64_t oracle_ns = 0;
    if (i == 0) {
      // The oracle is the benchmark's own work; it is computed once and
      // kept out of setup_s.
      const uint64_t t = NowNs();
      oracle = ComputeOracle(fx->db());
      if (opt.wrong_answer) oracle.q12_count += 1;
      oracle_ns = NowNs() - t;
    }
    const MixResult warm =
        RunMix(*fx, oracle, opt, 0, 1, false, 1000 + i, nullptr);
    attempted += warm.attempted;
    failed += warm.failed;
    setup_s.push_back(static_cast<double>(NowNs() - begin - oracle_ns) * 1e-9);
  }

  if (opt.trace) Spans().Enable();
  const bool htap = opt.workload == Workload::kHtap;
  HostReference reference(kClients * kGangThreads);
  MixResult mix =
      RunMix(*fx, oracle, opt, opt.seconds, 0, htap, 1, &reference);
  attempted += mix.attempted;
  failed += mix.failed;
  fx->StopServing();

  WriterResult writer;
  if (htap) {
    writer = std::move(*mix.writer);
  } else {
    if (opt.workload == Workload::kResident) fx->AddVersioning();
    writer = RunSoloWriter(fx->vdb(), opt, 2);
  }
  attempted += writer.attempted;
  failed += writer.failed;

  // Taken before the metrics copy any completions.
  const double peak_rss_mib = PeakRssMib();
  const std::vector<Window>& commit_windows =
      htap ? mix.windows : writer.windows;
  const std::vector<Window> quiet = QuietWindows(mix.windows);
  const std::vector<Window> quiet_commits = QuietWindows(commit_windows);
  std::vector<double> references;
  for (const Window& w : quiet) references.push_back(w.reference_ns);
  const double reference_ns = Median(references);
  const double scale = kReferenceNominalNs / reference_ns;
  Scales scales;
  scales.by_window = true;
  scales.setup = scale;
  // Each commit percentile of the solo burst is scaled by the same
  // percentile of the reference steps run among its commits. htap's are
  // not: there the steps would also slow with the queries' load on the
  // writer, the very effect htap exists to show, so they are scaled with
  // the mix.
  double step_p50_ns = 0, step_p95_ns = 0;
  if (!htap) {
    const std::vector<double> steps = ReferenceSteps(writer, quiet_commits);
    step_p50_ns = Quantile(steps, 0.50);
    step_p95_ns = Quantile(steps, 0.95);
    scales.commit_p50 = kCommitReferenceP50Ns / step_p50_ns;
    scales.commit_p95 = kCommitReferenceP95Ns / step_p95_ns;
  }
  MetricList metrics, unscaled;
  AddEndToEnd(mix, writer, mix.windows, commit_windows, Median(setup_s),
              peak_rss_mib, Scales{}, "", &unscaled);
  if (opt.trace) {
    AddEndToEnd(mix, writer, quiet, quiet_commits, Median(setup_s),
                peak_rss_mib, scales, "traced.", &metrics);
    AddPerLayer(mix, writer, &metrics);
    metrics.Add("host.reference_ms", reference_ns / 1e6, "ms");
    const Status s = RunProbes(*fx, &metrics);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: probe failed: %s\n",
                   s.ToString().c_str());
      ++failed;
    }
  } else {
    AddEndToEnd(mix, writer, quiet, quiet_commits, Median(setup_s),
                peak_rss_mib, scales, "", &metrics);
  }

  failed += CheckAfterWrites(*fx, writer.log, &attempted);
  fx.reset();

  PrintSummary(mix, writer, setup_s, attempted, failed);
  PrintWindows("mix", mix.windows, quiet);
  std::printf("# completions in kept windows:");
  for (int q : kQueries) {
    size_t n = 0;
    for (const Completion& c : mix.completions) {
      n += c.query == q && InWindows(c.end_ns, quiet);
    }
    std::printf(" q%d=%zu%s", q, n, n < kMinTailSamples ? "(p95 thin)" : "");
  }
  std::printf("\n");
  if (!htap) PrintWindows("commit", commit_windows, quiet_commits);
  std::printf("# host reference: %.4f ms (median over kept windows), "
              "setup_s scale %.4f; per window:",
              reference_ns / 1e6, scale);
  for (const Window& w : mix.windows) {
    std::printf(" %.3f", w.reference_ns / 1e6);
  }
  if (!htap) {
    std::printf("\n# commit reference over kept windows: p50 %.4f us, p95 "
                "%.4f us; scales %.4f, %.4f",
                step_p50_ns / 1e3, step_p95_ns / 1e3, scales.commit_p50,
                scales.commit_p95);
  }
  std::printf("\n# unscaled, all windows: %s\n", unscaled.ToJson().c_str());
  if (opt.trace && !a.spans_path.empty()) {
    if (Spans().WriteChromeJson(a.spans_path)) {
      std::printf("# spans=%zu written to %s\n", Spans().size(),
                  a.spans_path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.spans_path.c_str());
    }
  }
  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (!perfbench::EnvironmentClean()) return 2;
  return perfbench::Run(args);
}
