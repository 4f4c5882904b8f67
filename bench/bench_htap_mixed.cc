// HTAP mixed read/write workload (docs/htap.md).
//
// Runs the analytical query classes (Q6 pure scan, Q1 scan+group, Q3
// multi-join) over pinned snapshots of a VersionedTpchDb while a paced,
// skewed update feed commits single-row writes at 0 / 10k / 100k rows/s
// against the same tables. Per (rate, class) the table reports scan
// latency and its slowdown versus the read-only baseline, plus the
// per-query sgx_mutex park counts and parked time — the Figure 10
// avalanche surfacing inside analytical queries purely through the
// commit latch — and per rate the feed's achieved rate, commit p50/p99
// (latch wait included: that IS the avalanche exhibit), and the COW /
// reclaim byte churn the EDMM accounting sees.
//
// Reproduce the CSV with:
//   SGXBENCH_CSV_DIR=results ./build/bench/bench_htap_mixed
// CI runs SGXBENCH_SMOKE=1 (SF 0.01, scaled-down rates) and keeps the
// CSV as an artifact. Smoke gates: the rate-0 counts of every class
// must match the same query run directly over the base tables, the feed
// must commit without failures, and the retire list must drain empty.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/executor.h"
#include "obs/query_report.h"
#include "tpch/queries.h"
#include "txn/update_feed.h"
#include "txn/versioned_db.h"

using namespace sgxb;

namespace {

bool SmokeMode() { return std::getenv("SGXBENCH_SMOKE") != nullptr; }

struct QueryClass {
  const char* name;
  int query;
};

const std::vector<QueryClass>& Classes() {
  static const std::vector<QueryClass> classes = {
      {"scan (Q6)", 6},
      {"group (Q1)", 1},
      {"join (Q3)", 3},
  };
  return classes;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[rank];
}

std::string FormatCount(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "HTAP mixed",
      "snapshot scans vs a live update feed on versioned columns");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  gen.scale_factor = SmokeMode() ? 0.01 : (core::FullScale() ? 1.0 : 0.1);
  std::printf("  generating TPC-H data at SF %.2f ...\n", gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();

  // Three update rates per the experiment design; smoke keeps the shape
  // (read-only baseline, moderate, heavy) at CI-friendly magnitudes.
  const std::vector<double> rates =
      SmokeMode() ? std::vector<double>{0, 2000, 10000}
                  : std::vector<double>{0, 10000, 100000};
  const int reps = SmokeMode() ? 3 : 9;

  // Enough writers to contend the latch, moderate skew so hot chunks
  // exist; the rate is set per sweep point below.
  txn::UpdateFeedOptions feed_opts;
  feed_opts.threads = SmokeMode() ? 2 : 4;
  feed_opts.zipf_theta = 0.5;
  const txn::TxnOptions txn_opts;

  tpch::QueryConfig base_config;
  base_config.num_threads =
      std::min(4, exec::Executor::DefaultParallelism());

  std::printf("  feed: threads=%d theta=%.2f chunk_rows=%zu\n",
              feed_opts.threads, feed_opts.zipf_theta,
              txn_opts.chunk_rows);

  core::TablePrinter table(
      {"rate/s", "class", "runs", "p50", "p99", "slowdown", "parks/q",
       "park ms/q", "wakes/q", "cow", "reclaimed"});

  // Rate-0 oracle counts: every class over the untouched base tables.
  std::vector<uint64_t> base_counts;
  for (const QueryClass& qc : Classes()) {
    auto r = tpch::RunQuery(qc.query, db, base_config);
    if (!r.ok()) {
      std::fprintf(stderr, "baseline Q%d failed: %s\n", qc.query,
                   r.status().ToString().c_str());
      return 1;
    }
    base_counts.push_back(r.value().count);
  }

  std::vector<double> baseline_p50(Classes().size(), 0);
  bool gate_failed = false;

  for (const double rate : rates) {
    txn::VersionedTpchDb vdb(db, txn_opts);
    obs::Registry& registry = obs::Registry::Global();

    // The feed gets its own attribution domain so its share of the latch
    // avalanche and COW churn is separable from the query-side numbers.
    const int feed_domain = rate > 0 ? registry.AcquireDomain() : -1;
    txn::UpdateFeedOptions opts = feed_opts;
    opts.rows_per_sec = rate;
    opts.obs_domain = feed_domain;
    txn::UpdateFeed feed(&vdb, opts);
    obs::QueryReportScope feed_scope("update_feed", feed_domain);
    if (rate > 0) {
      feed.Start();
      // Let the feed reach its paced steady state (and build up version
      // chains for the scans to walk) before measuring queries; the
      // smoke queries alone finish in milliseconds, far too short a
      // window to judge the achieved rate.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(SmokeMode() ? 300 : 2000));
    }

    for (size_t c = 0; c < Classes().size(); ++c) {
      const QueryClass& qc = Classes()[c];
      const int domain = registry.AcquireDomain();
      tpch::QueryConfig config = base_config;
      config.obs_domain = domain;

      std::vector<double> wall_ns;
      uint64_t parks = 0, park_ns = 0, wakes = 0;
      for (int rep = 0; rep < reps; ++rep) {
        auto snap = vdb.OpenSnapshot();
        if (!snap.ok()) {
          std::fprintf(stderr, "snapshot failed: %s\n",
                       snap.status().ToString().c_str());
          return 1;
        }
        auto r = tpch::RunQuery(qc.query, snap.value().view(), config);
        if (!r.ok()) {
          std::fprintf(stderr, "Q%d at %.0f rows/s failed: %s\n", qc.query,
                       rate, r.status().ToString().c_str());
          return 1;
        }
        wall_ns.push_back(r.value().report.wall_ns);
        parks += r.value().report.mutex_parks;
        park_ns += r.value().report.mutex_park_ns;
        wakes += r.value().report.mutex_wake_ocalls;
        if (rate == 0 && rep == 0 && r.value().count != base_counts[c]) {
          std::fprintf(stderr,
                       "GATE: Q%d rate-0 count %llu != base count %llu\n",
                       qc.query,
                       static_cast<unsigned long long>(r.value().count),
                       static_cast<unsigned long long>(base_counts[c]));
          gate_failed = true;
        }
      }
      if (domain >= 0) registry.ReleaseDomain(domain);

      const double p50 = Percentile(wall_ns, 0.5);
      if (rate == 0) baseline_p50[c] = p50;
      const double slowdown =
          baseline_p50[c] > 0 ? p50 / baseline_p50[c] : 0;
      const double n = static_cast<double>(reps);
      table.AddRow({std::to_string(static_cast<long long>(rate)), qc.name,
                    std::to_string(reps), core::FormatNanos(p50),
                    core::FormatNanos(Percentile(wall_ns, 0.99)),
                    core::FormatRel(slowdown),
                    FormatCount(static_cast<double>(parks) / n),
                    FormatCount(static_cast<double>(park_ns) / n / 1e6),
                    FormatCount(static_cast<double>(wakes) / n), "-", "-"});
    }

    if (rate > 0) {
      feed.Stop();
      const txn::UpdateFeed::Stats fs = feed.stats();
      const obs::QueryReport fr = feed_scope.Finish();
      if (fs.failed != 0) {
        std::fprintf(stderr, "GATE: %llu feed commits failed\n",
                     static_cast<unsigned long long>(fs.failed));
        gate_failed = true;
      }
      const double n = std::max<uint64_t>(1, fs.committed);
      table.AddRow(
          {std::to_string(static_cast<long long>(rate)), "feed (writes)",
           std::to_string(fs.committed),
           core::FormatNanos(static_cast<double>(fs.p50_ns)),
           core::FormatNanos(static_cast<double>(fs.p99_ns)),
           core::FormatRel(rate > 0 ? fs.achieved_rps / rate : 0),
           FormatCount(static_cast<double>(fr.mutex_parks) / n * 1000),
           FormatCount(static_cast<double>(fr.mutex_park_ns) / 1e6),
           FormatCount(static_cast<double>(fr.mutex_wake_ocalls) / n *
                       1000),
           core::FormatBytes(static_cast<double>(vdb.stats().cow_bytes)),
           core::FormatBytes(
               static_cast<double>(vdb.stats().reclaimed_bytes))});
    }
    if (feed_domain >= 0) registry.ReleaseDomain(feed_domain);

    if (!vdb.Drain().ok()) {
      std::fprintf(stderr, "GATE: retire list failed to drain at %.0f\n",
                   rate);
      gate_failed = true;
    } else if (vdb.stats().retired_pending != 0) {
      std::fprintf(stderr, "GATE: retired chunks leaked at %.0f\n", rate);
      gate_failed = true;
    }
  }

  table.Print();
  table.ExportCsv("htap_mixed");

  core::PrintNote(
      "scan slowdown under the feed combines snapshot chain walks "
      "(version chunks break scan runs) with commit-latch park/wake "
      "OCALL pressure; the feed row's slowdown column is achieved/target "
      "rate, its parks and wakes are per 1000 commits, and its p50/p99 "
      "include latch wait — the paper's Figure 10 avalanche driven by "
      "writes instead of a mutex microbenchmark.");

  if (gate_failed) {
    std::fprintf(stderr, "FAIL: htap mixed smoke gate violated\n");
    return 1;
  }
  return 0;
}
