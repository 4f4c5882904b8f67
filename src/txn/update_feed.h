// Paced update-stream driver for the HTAP mixed workload (docs/htap.md).
//
// UpdateFeed commits single-row updates against a VersionedTpchDb at a
// configurable aggregate rate with configurable key skew, from one or
// more writer threads. It is the transactional half of bench_htap_mixed:
// the analytical half scans snapshots while the feed hammers the commit
// latch, so the sgx_mutex park/wake avalanche and the COW/EDMM churn show
// up under a controlled, reproducible load.
//
// Pacing is a per-thread token schedule: each writer computes its share
// of the target rate and sleeps to its next tick between small batches,
// so the offered load is rate-shaped rather than closed-loop (a stalled
// commit latch shows up as missed rate + latency, like a real ingest
// pipeline). Keys are Zipf-distributed (theta = 0 uniform) and scrambled
// with a multiplicative hash so hot keys spread across version chunks.

#ifndef SGXB_TXN_UPDATE_FEED_H_
#define SGXB_TXN_UPDATE_FEED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "txn/versioned_db.h"

namespace sgxb::txn {

/// \brief Feed configuration, set by the caller (the feed reads no
/// environment).
struct UpdateFeedOptions {
  /// Target aggregate commit rate over all writer threads.
  double rows_per_sec = 10000;
  /// Zipf theta for row selection: 0 = uniform, -> 1 = few hot rows
  /// (hence few hot chunks: maximal latch + COW contention).
  double zipf_theta = 0.0;
  /// Writer threads splitting the rate.
  int threads = 1;
  uint64_t seed = 42;
  /// Attribution domain for the feed's parks / COW counters (-1 = none);
  /// lets the bench separate feed-side from query-side avalanche cost.
  int obs_domain = -1;
};

class UpdateFeed {
 public:
  struct Stats {
    uint64_t committed = 0;
    uint64_t failed = 0;
    double achieved_rps = 0;  ///< committed / wall seconds while running
    /// Nearest-rank percentiles of every committed op's latency (latch
    /// wait included); 0 until Stop().
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t max_ns = 0;
  };

  UpdateFeed(VersionedTpchDb* db, UpdateFeedOptions options);
  ~UpdateFeed();  ///< stops and joins if still running

  UpdateFeed(const UpdateFeed&) = delete;
  UpdateFeed& operator=(const UpdateFeed&) = delete;

  void Start();
  /// \brief Stops the writers and joins them. Idempotent.
  void Stop();
  bool running() const { return running_; }

  /// \brief committed, failed and max_ns may be read while the feed
  /// runs; achieved_rps, p50_ns and p99_ns are filled once Stop() has
  /// joined the writers.
  Stats stats() const;

 private:
  struct Writer;
  void WriterLoop(Writer* w);

  VersionedTpchDb* db_;
  UpdateFeedOptions options_;
  std::vector<std::unique_ptr<Writer>> writers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  WallTimer run_timer_;
  double elapsed_sec_ = 0;  ///< Start -> Stop window (set in Stop)
};

}  // namespace sgxb::txn

#endif  // SGXB_TXN_UPDATE_FEED_H_
