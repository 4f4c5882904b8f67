// Serving throughput and tail-latency fairness (docs/serving.md).
//
// Drives the multi-tenant QueryServer with a mixed workload from 1 to
// 1000 concurrent clients: cheap pure-scan queries (Q6, Q1), medium
// selection+join queries (Q12, Q19), and heavy multi-join queries
// (Q3, Q10). Reports queries/sec and exact per-class p50/p99 latency at
// each client count, split into end-to-end (submit -> response, queueing
// included) and execution-only time.
//
// The fairness gate: a cheap query's p99 *execution* time under full
// load must stay within 3x its isolated p99. Execution time is what the
// scheduler controls — share-aware gang sizing and worker leasing keep a
// heavy Q3 from monopolizing the pool — while end-to-end time at 1000
// clients is dominated by the admission queue, whose depth is the
// client's choice of offered load, not a scheduling property. The gate
// is enforced in smoke mode too (exit 1 on violation).
//
// Reproduce the CSV with:
//   SGXBENCH_CSV_DIR=results ./build/bench/bench_serve_throughput
// CI runs SGXBENCH_SMOKE=1 (SF 0.01, up to 8 clients) and keeps the CSV
// as an artifact.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/executor.h"
#include "serve/serve.h"

using namespace sgxb;

namespace {

bool SmokeMode() { return std::getenv("SGXBENCH_SMOKE") != nullptr; }

struct QueryClass {
  const char* name;
  std::vector<int> queries;
  int priority;  // cheap interactive traffic outranks heavy analytics
};

const std::vector<QueryClass>& Classes() {
  static const std::vector<QueryClass> classes = {
      {"cheap", {6, 1}, 2},
      {"medium", {12, 19}, 1},
      {"heavy", {3, 10}, 0},
  };
  return classes;
}

struct Sample {
  double total_ns = 0;
  double exec_ns = 0;
};

struct ClassSeries {
  std::vector<double> total_ns;
  std::vector<double> exec_ns;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[rank];
}

// One client's deterministic walk through the mix: 4 cheap : 2 medium :
// 1 heavy, offset by the client id so concurrent clients interleave
// classes instead of phase-locking.
int ClassOfStep(int step) {
  const int m = step % 7;
  if (m < 4) return 0;
  if (m < 6) return 1;
  return 2;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Serving", "multi-tenant throughput and tail-latency fairness");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  gen.scale_factor = SmokeMode() ? 0.01 : (core::FullScale() ? 1.0 : 0.1);
  std::printf("  generating TPC-H data at SF %.2f ...\n", gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();

  serve::ServerOptions opts;
  opts.max_inflight = 8;
  // A quarter of the host, so even a heavy query leaves three quarters of
  // the pool to others.
  opts.worker_share = std::max(1, exec::Executor::DefaultParallelism() / 4);
  opts.max_queue = 1 << 20;  // measure scheduling, not admission drops
  std::printf("  max_inflight=%d worker_share=%d\n", opts.max_inflight,
              opts.worker_share);

  const std::vector<int> client_counts =
      SmokeMode() ? std::vector<int>{1, 8}
                  : std::vector<int>{1, 8, 64, 256, 1000};

  // Phase A: isolated per-class baselines (one query at a time through
  // the same server configuration).
  std::vector<double> isolated_exec_p99(Classes().size(), 0);
  {
    serve::QueryServer server(db, opts);
    for (size_t c = 0; c < Classes().size(); ++c) {
      std::vector<double> exec_ns;
      const int reps = SmokeMode() ? 3 : 9;
      for (int rep = 0; rep < reps; ++rep) {
        for (int query : Classes()[c].queries) {
          serve::QueryRequest req;
          req.query_number = query;
          req.priority = Classes()[c].priority;
          serve::QueryResponse r = server.Submit(req).get();
          if (!r.status.ok()) {
            std::fprintf(stderr, "isolated Q%d failed: %s\n", query,
                         r.status.ToString().c_str());
            return 1;
          }
          exec_ns.push_back(r.exec_ns);
        }
      }
      isolated_exec_p99[c] = Percentile(exec_ns, 0.99);
    }
  }

  core::TablePrinter table({"clients", "class", "queries", "q/s",
                            "p50 total", "p99 total", "p50 exec",
                            "p99 exec", "vs isolated p99"});

  bool fairness_violated = false;
  double worst_cheap_ratio = 0.0;

  for (int clients : client_counts) {
    serve::QueryServer server(db, opts);
    // Keep total work bounded as the client count grows: the point of
    // the high-client runs is queueing behaviour, not more samples.
    const int per_client =
        SmokeMode() ? 4 : std::max(2, 512 / std::max(1, clients));

    std::vector<ClassSeries> series(Classes().size());
    std::mutex series_mu;
    WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    std::atomic<uint64_t> failures{0};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::pair<int, Sample>> local;
        for (int step = 0; step < per_client; ++step) {
          const int cls = ClassOfStep(c + step);
          const QueryClass& qc = Classes()[cls];
          serve::QueryRequest req;
          req.query_number = qc.queries[(c + step) % qc.queries.size()];
          req.priority = qc.priority;
          WallTimer t;
          serve::QueryResponse r = server.Submit(req).get();
          if (!r.status.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          Sample s;
          s.total_ns = static_cast<double>(t.ElapsedNanos());
          s.exec_ns = r.exec_ns;
          local.emplace_back(cls, s);
        }
        std::lock_guard<std::mutex> lock(series_mu);
        for (const auto& [cls, s] : local) {
          series[cls].total_ns.push_back(s.total_ns);
          series[cls].exec_ns.push_back(s.exec_ns);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall_s = static_cast<double>(wall.ElapsedNanos()) * 1e-9;
    if (failures.load() != 0) {
      std::fprintf(stderr, "%llu queries failed at %d clients\n",
                   static_cast<unsigned long long>(failures.load()),
                   clients);
      return 1;
    }

    const bool full_load = clients == client_counts.back();
    for (size_t cls = 0; cls < Classes().size(); ++cls) {
      const ClassSeries& s = series[cls];
      if (s.total_ns.empty()) continue;
      const double p99_exec = Percentile(s.exec_ns, 0.99);
      const double ratio = isolated_exec_p99[cls] > 0
                               ? p99_exec / isolated_exec_p99[cls]
                               : 0;
      if (full_load && cls == 0) {
        worst_cheap_ratio = ratio;
        if (ratio > 3.0) fairness_violated = true;
      }
      table.AddRow({std::to_string(clients), Classes()[cls].name,
                    std::to_string(s.total_ns.size()),
                    core::FormatRel(static_cast<double>(s.total_ns.size()) /
                                    wall_s),
                    core::FormatNanos(Percentile(s.total_ns, 0.5)),
                    core::FormatNanos(Percentile(s.total_ns, 0.99)),
                    core::FormatNanos(Percentile(s.exec_ns, 0.5)),
                    core::FormatNanos(p99_exec), core::FormatRel(ratio)});
    }
  }

  table.Print();
  table.ExportCsv("serve_throughput");

  std::printf(
      "  fairness: cheap-class p99 exec at full load = %.2fx isolated "
      "(gate: <= 3x)\n",
      worst_cheap_ratio);
  core::PrintNote(
      "end-to-end p99 at high client counts is queueing delay by "
      "construction (offered load exceeds the admission bound); the "
      "execution-time ratio shows what the worker-share cap and fair "
      "gang sizing buy: cheap queries keep near-isolated execution "
      "times while heavy joins run beside them.");

  if (fairness_violated) {
    std::fprintf(stderr,
                 "FAIL: cheap-class p99 exec exceeded 3x isolated under "
                 "full load\n");
    return 1;
  }
  return 0;
}
