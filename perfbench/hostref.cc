#include "hostref.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "stats.h"

namespace perfbench {

namespace {

// Per thread: a 4 MiB table (past the core's L2, like a join's hash
// table), kProbes reads of it and kHashes arithmetic steps.
constexpr size_t kTableSlots = 512u << 10;
constexpr size_t kProbes = 64u << 10;
constexpr int kHashes = 300000;
// Rounds per measurement; the median round is kept.
constexpr int kRounds = 3;

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostReference::HostReference(int threads) : tables_(threads) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::vector<uint64_t>& table : tables_) {
    table.resize(kTableSlots);
    for (uint64_t& v : table) v = x = XorShift(x);
  }
}

uint64_t HostReference::Job(const std::vector<uint64_t>& table,
                            uint64_t seed) {
  uint64_t x = seed | 1, sum = 0;
  for (int i = 0; i < kHashes; ++i) {
    x = XorShift(x);
    sum += x & 0xff;
  }
  for (size_t i = 0; i < kProbes; ++i) {
    x = XorShift(x);
    sum += table[x & (kTableSlots - 1)];
  }
  return sum;
}

double HostReference::MeasureNs() {
  const int n = static_cast<int>(tables_.size());
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<uint64_t> ns(n, 0), sums(n, 0);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < n) std::this_thread::yield();
        const uint64_t begin = NowNs();
        sums[t] = Job(tables_[t], static_cast<uint64_t>(t) + 1);
        ns[t] = NowNs() - begin;
      });
    }
    double total = 0;
    for (int t = 0; t < n; ++t) {
      threads[t].join();
      total += static_cast<double>(ns[t]);
      sink_ += sums[t];
    }
    rounds.push_back(total / n);
  }
  return Median(rounds);
}

CommitReference::CommitReference(size_t chunks)
    : versions_(std::max<size_t>(chunks, 2)), slots_(128) {
  for (void*& v : versions_) {
    v = std::aligned_alloc(64, kChunkBytes);
    if (v == nullptr) throw std::bad_alloc();
    std::memset(v, 1, kChunkBytes);
  }
  for (auto& slot : slots_) slot[0] = UINT64_MAX;
}

CommitReference::~CommitReference() {
  for (void* v : versions_) std::free(v);
}

double CommitReference::StepNs() {
  const uint64_t begin = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    x_ = XorShift(x_);
    void*& version = versions_[x_ % versions_.size()];
    void* fresh = std::aligned_alloc(64, kChunkBytes);
    if (fresh == nullptr) throw std::bad_alloc();
    std::memcpy(fresh, version, kChunkBytes);
    static_cast<uint32_t*>(fresh)[x_ % kChunkRows] =
        static_cast<uint32_t>(x_);
    void* superseded = version;
    version = fresh;
    uint64_t min_pinned = UINT64_MAX;
    for (const auto& slot : slots_) min_pinned = std::min(min_pinned, slot[0]);
    for (auto& c : counters_) {
      c.fetch_add(min_pinned & 1, std::memory_order_relaxed);
    }
    std::free(superseded);
  }
  return static_cast<double>(NowNs() - begin);
}

}  // namespace perfbench
