#include "mem/arena_pool.h"

#include <cassert>

#include "mem/arena.h"
#include "obs/metrics.h"

namespace sgxb::mem {

namespace {
// Pool effectiveness mirrored into the obs registry; the per-query pool
// hit rate in obs::QueryReport is derived from these two.
obs::Counter& CtrPoolHits() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrPoolHits);
  return *c;
}
obs::Counter& CtrPoolMisses() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrPoolMisses);
  return *c;
}
}  // namespace

ArenaPool::ArenaPool(MemoryResource* resource, size_t chunk_bytes)
    : resource_(resource),
      chunk_bytes_(chunk_bytes != 0 ? chunk_bytes : kDefaultArenaChunkBytes) {
  assert(resource_ != nullptr);
}

Result<AlignedBuffer> ArenaPool::Acquire(size_t min_bytes) {
  const size_t want =
      (min_bytes + chunk_bytes_ - 1) / chunk_bytes_ * chunk_bytes_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.lower_bound(want);
    if (it != cache_.end()) {
      AlignedBuffer chunk = std::move(it->second);
      cached_bytes_ -= it->first;
      cache_.erase(it);
      ++reuse_hits_;
      ++outstanding_chunks_;
      CtrPoolHits().Increment();
      return chunk;
    }
    ++fresh_allocs_;
    CtrPoolMisses().Increment();
  }
  // Allocate outside the lock: an EDMM-growing enclave allocation injects
  // real page-commit delays, which must not serialize unrelated arenas.
  Result<AlignedBuffer> chunk = resource_->Allocate(want);
  if (chunk.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_chunks_;
  }
  return chunk;
}

void ArenaPool::Release(AlignedBuffer chunk) {
  if (chunk.data() == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  --outstanding_chunks_;
  ++released_;
  cached_bytes_ += chunk.size();
  cache_.emplace(chunk.size(), std::move(chunk));
}

void ArenaPool::Trim() {
  std::multimap<size_t, AlignedBuffer> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(cache_);
    cached_bytes_ = 0;
  }
  // Chunks free as `doomed` dies, outside the lock.
}

ArenaPool::Stats ArenaPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.reuse_hits = reuse_hits_;
  s.fresh_allocs = fresh_allocs_;
  s.released = released_;
  s.outstanding_chunks = outstanding_chunks_;
  s.cached_chunks = cache_.size();
  s.cached_bytes = cached_bytes_;
  return s;
}

}  // namespace sgxb::mem
