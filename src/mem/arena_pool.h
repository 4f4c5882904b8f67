// Warm chunk reuse across queries (docs/memory.md).
//
// An ArenaPool caches arena chunks instead of returning them to the
// resource, so repeated queries against a long-lived enclave commit EDMM
// pages once (first query) and then run allocation-free — the Fig 11
// "static sizing" behaviour reproduced at the allocator level. Without a
// pool, a dynamic (edmm_trim) enclave trims freed pages after every query
// and re-pays the per-page commit cost on the next one.
//
// Thread-safe; multiple Arenas (one per worker/query) may share a pool.
//
// Lifetime: cached chunks credit their resource when dropped, so a pool
// over mem::ForEnclave(e) must be Trim()ed or destroyed before
// DestroyEnclave(e).

#ifndef SGXB_MEM_ARENA_POOL_H_
#define SGXB_MEM_ARENA_POOL_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "mem/memory_resource.h"

namespace sgxb::mem {

class ArenaPool {
 public:
  struct Stats {
    uint64_t reuse_hits = 0;     ///< Acquires served from the cache.
    uint64_t fresh_allocs = 0;   ///< Acquires that hit the resource.
    uint64_t released = 0;       ///< Chunks returned to the pool.
    /// Chunks acquired and not yet Release()d — chunks a live Arena (or a
    /// leak) is still holding. Balances to zero once every query drains;
    /// the serving layer's accounting test asserts exactly that.
    int64_t outstanding_chunks = 0;
    size_t cached_chunks = 0;
    size_t cached_bytes = 0;
  };

  /// \brief `chunk_bytes` 0 = kDefaultArenaChunkBytes (arena.h).
  explicit ArenaPool(MemoryResource* resource, size_t chunk_bytes = 0);
  ~ArenaPool() = default;

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// \brief A chunk of at least `min_bytes` (rounded up to a chunk-size
  /// multiple): cached if one fits, else freshly allocated.
  Result<AlignedBuffer> Acquire(size_t min_bytes);

  /// \brief Returns a chunk for reuse.
  void Release(AlignedBuffer chunk);

  /// \brief Drops all cached chunks (e.g. to shed enclave heap).
  void Trim();

  Stats stats() const;
  size_t chunk_bytes() const { return chunk_bytes_; }
  MemoryResource* resource() const { return resource_; }

 private:
  MemoryResource* resource_;
  size_t chunk_bytes_;
  mutable std::mutex mu_;
  std::multimap<size_t, AlignedBuffer> cache_;
  uint64_t reuse_hits_ = 0;
  uint64_t fresh_allocs_ = 0;
  uint64_t released_ = 0;
  int64_t outstanding_chunks_ = 0;
  size_t cached_bytes_ = 0;
};

}  // namespace sgxb::mem

#endif  // SGXB_MEM_ARENA_POOL_H_
