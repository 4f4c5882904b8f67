#include "txn/update_feed.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "tpch/tpch_schema.h"

namespace sgxb::txn {

namespace {

uint64_t ScrambleRow(uint64_t key, uint64_t n) {
  // Fibonacci hashing: repeated draws of a hot Zipf key stay hot, but
  // consecutive key ranks land in unrelated version chunks.
  return (key * 0x9e3779b97f4a7c15ull) % n;
}

}  // namespace

struct UpdateFeed::Writer {
  int index = 0;
  double rows_per_sec = 0;
  // Written by the writer thread. The counters may be read while it
  // runs; latencies_ns is its own until Stop() has joined it.
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> max_ns{0};
  std::vector<uint64_t> latencies_ns;
};

UpdateFeed::UpdateFeed(VersionedTpchDb* db, UpdateFeedOptions options)
    : db_(db), options_(options) {
  options_.threads = std::max(1, options_.threads);
}

UpdateFeed::~UpdateFeed() { Stop(); }

void UpdateFeed::Start() {
  if (running_ || options_.rows_per_sec <= 0) return;
  stop_.store(false, std::memory_order_relaxed);
  running_ = true;
  elapsed_sec_ = 0;
  run_timer_.Restart();
  writers_.clear();
  threads_.clear();
  for (int i = 0; i < options_.threads; ++i) {
    auto w = std::make_unique<Writer>();
    w->index = i;
    w->rows_per_sec = options_.rows_per_sec / options_.threads;
    writers_.push_back(std::move(w));
  }
  threads_.reserve(writers_.size());
  for (auto& w : writers_) {
    threads_.emplace_back([this, wp = w.get()] { WriterLoop(wp); });
  }
}

void UpdateFeed::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  elapsed_sec_ = run_timer_.ElapsedSeconds();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  running_ = false;
}

void UpdateFeed::WriterLoop(Writer* w) {
  obs::ScopedMetricDomain domain(options_.obs_domain);
  uint64_t seed_state = options_.seed + 0x1000ull * (w->index + 1);
  Xoshiro256 rng(SplitMix64(seed_state));
  // One key space sized for the largest table; per-op it is folded onto
  // the target column's rows so the same skew shape drives every column.
  const uint64_t key_space =
      std::max<uint64_t>(1, std::max(db_->lineitem_rows(),
                                     db_->orders_rows()));
  ZipfGenerator zipf(key_space, options_.zipf_theta,
                     SplitMix64(seed_state));

  // Rate shaping: fire a small batch every tick. Batches keep the tick
  // period >= ~1ms so the pacing does not degenerate into a spin loop at
  // high rates.
  const double rps = w->rows_per_sec;
  const uint64_t batch =
      std::max<uint64_t>(1, static_cast<uint64_t>(rps / 1000.0));
  const auto tick = std::chrono::nanoseconds(
      static_cast<uint64_t>(1e9 * static_cast<double>(batch) / rps));
  auto next = std::chrono::steady_clock::now();

  while (!stop_.load(std::memory_order_relaxed)) {
    for (uint64_t i = 0; i < batch; ++i) {
      UpdateOp op;
      op.column = static_cast<UpdateColumn>(
          (w->committed.load(std::memory_order_relaxed) + i) %
          kNumUpdateColumns);
      const uint64_t rows = db_->RowsFor(op.column);
      if (rows == 0) continue;
      op.row = ScrambleRow(zipf.Next(), key_space) % rows;
      switch (op.column) {
        case UpdateColumn::kLQuantity:
          op.value = 1 + static_cast<uint32_t>(rng.NextBounded(50));
          break;
        case UpdateColumn::kLExtendedPrice:
          op.value = 100 + static_cast<uint32_t>(rng.NextBounded(10000000));
          break;
        case UpdateColumn::kLDiscount:
          op.value = static_cast<uint32_t>(rng.NextBounded(11));
          break;
        case UpdateColumn::kOOrderDate:
          op.value = static_cast<uint32_t>(
              rng.NextBounded(tpch::kDate19980802 + 1));
          break;
      }
      WallTimer t;
      const Status s = db_->Commit(op);
      const uint64_t ns = t.ElapsedNanos();
      if (s.ok()) {
        w->committed.fetch_add(1, std::memory_order_relaxed);
        w->latencies_ns.push_back(ns);
        uint64_t prev = w->max_ns.load(std::memory_order_relaxed);
        while (ns > prev && !w->max_ns.compare_exchange_weak(
                                prev, ns, std::memory_order_relaxed)) {
        }
      } else {
        w->failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    next += tick;
    const auto now = std::chrono::steady_clock::now();
    if (next > now) {
      std::this_thread::sleep_until(next);
    } else {
      // Behind schedule (commit latch contention): don't accumulate debt,
      // or a brief stall would be followed by an unbounded burst.
      next = now;
    }
  }
}

UpdateFeed::Stats UpdateFeed::stats() const {
  Stats s;
  std::vector<uint64_t> latencies;
  for (const auto& w : writers_) {
    s.committed += w->committed.load(std::memory_order_relaxed);
    s.failed += w->failed.load(std::memory_order_relaxed);
    s.max_ns = std::max(s.max_ns, w->max_ns.load(std::memory_order_relaxed));
    if (!running_) {
      latencies.insert(latencies.end(), w->latencies_ns.begin(),
                       w->latencies_ns.end());
    }
  }
  if (elapsed_sec_ > 0) {
    s.achieved_rps = static_cast<double>(s.committed) / elapsed_sec_;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    // Nearest rank: the smallest sample with at least pct% of all
    // samples at or below it.
    auto rank = [&](size_t pct) {
      return latencies[(latencies.size() * pct + 99) / 100 - 1];
    };
    s.p50_ns = rank(50);
    s.p99_ns = rank(99);
  }
  return s;
}

}  // namespace sgxb::txn
