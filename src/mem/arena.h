// Bump-pointer arena over a MemoryResource (docs/memory.md).
//
// Operators allocate per-phase scratch (partitions, histograms, hash
// tables, temp buffers) from an Arena instead of making one resource
// allocation per structure. The arena grabs chunks (default 2 MiB) from
// its resource — or from an ArenaPool for warm reuse across queries — and
// serves 64-byte-aligned carve-outs by bumping an offset. ArenaCheckpoint
// captures the high-water mark so a finished phase's memory can be rolled
// back: whole chunks past the checkpoint go back to the pool (or resource)
// immediately.
//
// Not thread-safe: one Arena per owner (a join invocation, a query, a
// worker). Concurrent operators share chunks through a (thread-safe)
// ArenaPool instead.

#ifndef SGXB_MEM_ARENA_H_
#define SGXB_MEM_ARENA_H_

#include <cstddef>
#include <vector>

#include "mem/memory_resource.h"

namespace sgxb::mem {

class ArenaPool;

/// \brief Chunk size of arenas and pools that are not given one.
inline constexpr size_t kDefaultArenaChunkBytes = size_t{2} * 1024 * 1024;

/// \brief Position marker for scoped rollback (see Arena::Save).
struct ArenaCheckpoint {
  size_t chunk_index = 0;
  size_t offset = 0;
};

class Arena {
 public:
  /// \brief `chunk_bytes` 0 = the pool's chunk size if `pool` is given,
  /// else kDefaultArenaChunkBytes. With a pool, chunks are acquired from
  /// and released to it (warm reuse); the pool's resource must match.
  explicit Arena(MemoryResource* resource, size_t chunk_bytes = 0,
                 ArenaPool* pool = nullptr);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// \brief Carves `bytes` aligned to `alignment` (power of two, <= the
  /// chunk alignment of 64 or any larger power of two). Oversized
  /// requests get a dedicated chunk. Returns Status on resource
  /// exhaustion / injected failure.
  Result<void*> Allocate(size_t bytes, size_t alignment = kCacheLineSize);

  /// \brief Typed array carve-out (uninitialized; T must be trivially
  /// destructible — the arena never runs destructors).
  template <typename T>
  Result<T*> AllocateArray(size_t n) {
    auto p = Allocate(n * sizeof(T),
                      alignof(T) > kCacheLineSize ? alignof(T)
                                                  : kCacheLineSize);
    if (!p.ok()) return p.status();
    return static_cast<T*>(p.value());
  }

  /// \brief Captures the current allocation position.
  ArenaCheckpoint Save() const;

  /// \brief Rolls back to `cp`: everything allocated after it is dead,
  /// and whole chunks past the checkpoint are released to the pool (or
  /// freed). Checkpoints must be rolled back newest-first.
  void Rollback(const ArenaCheckpoint& cp);

  /// \brief Forgets all allocations but RETAINS the chunks for reuse —
  /// the cheap per-query reset when the arena itself is long-lived.
  void Reset();

  /// \brief Bytes handed out since construction/Reset (including
  /// alignment padding).
  size_t used() const;
  /// \brief Bytes held in chunks (>= used).
  size_t reserved() const;
  size_t num_chunks() const { return chunks_.size(); }
  size_t chunk_bytes() const { return chunk_bytes_; }
  MemoryResource* resource() const { return resource_; }
  ArenaPool* pool() const { return pool_; }

 private:
  struct Chunk {
    AlignedBuffer buf;
    size_t used = 0;
  };

  Status AcquireChunk(size_t min_bytes);
  void ReleaseChunksAfter(size_t keep_count);

  MemoryResource* resource_;
  ArenaPool* pool_;
  size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  // Chunk currently being bumped; chunks before it are frozen, chunks
  // after it are empties retained by Reset().
  size_t cur_ = 0;
};

}  // namespace sgxb::mem

#endif  // SGXB_MEM_ARENA_H_
