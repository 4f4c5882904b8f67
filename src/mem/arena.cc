#include "mem/arena.h"

#include <cassert>
#include <cstdint>

#include "mem/arena_pool.h"
#include "obs/metrics.h"

namespace sgxb::mem {

namespace {
size_t RoundUp(size_t v, size_t to) { return (v + to - 1) & ~(to - 1); }

// Chunk acquisitions mirrored into the obs registry: per-query reports use
// the byte/chunk deltas to show how much arena memory a query pulled in.
obs::Counter& CtrArenaBytes() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrArenaBytes);
  return *c;
}
obs::Counter& CtrArenaChunks() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrArenaChunks);
  return *c;
}
}  // namespace

Arena::Arena(MemoryResource* resource, size_t chunk_bytes, ArenaPool* pool)
    : resource_(resource), pool_(pool) {
  assert(resource_ != nullptr);
  assert(pool_ == nullptr || pool_->resource() == resource_);
  chunk_bytes_ = chunk_bytes != 0 ? chunk_bytes
                 : pool_ != nullptr ? pool_->chunk_bytes()
                                    : kDefaultArenaChunkBytes;
}

Arena::~Arena() { ReleaseChunksAfter(0); }

Status Arena::AcquireChunk(size_t min_bytes) {
  const size_t want = RoundUp(min_bytes < chunk_bytes_ ? chunk_bytes_
                                                       : min_bytes,
                              chunk_bytes_);
  Result<AlignedBuffer> buf =
      pool_ != nullptr ? pool_->Acquire(want) : resource_->Allocate(want);
  if (!buf.ok()) return buf.status();
  Chunk c;
  c.buf = std::move(buf).value();
  CtrArenaBytes().Add(c.buf.size());
  CtrArenaChunks().Increment();
  chunks_.push_back(std::move(c));
  return Status::OK();
}

void Arena::ReleaseChunksAfter(size_t keep_count) {
  while (chunks_.size() > keep_count) {
    if (pool_ != nullptr) {
      pool_->Release(std::move(chunks_.back().buf));
    }
    chunks_.pop_back();  // non-pooled chunks free via AlignedBuffer dtor
  }
}

Result<void*> Arena::Allocate(size_t bytes, size_t alignment) {
  if (alignment < kCacheLineSize || (alignment & (alignment - 1)) != 0) {
    return Status::InvalidArgument("alignment must be a power of two >= 64");
  }
  if (bytes == 0) bytes = 1;  // distinct non-null results for empty asks
  while (true) {
    if (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      const uintptr_t base = reinterpret_cast<uintptr_t>(c.buf.data());
      const uintptr_t at = RoundUp(base + c.used, alignment);
      if (at + bytes <= base + c.buf.size()) {
        c.used = (at - base) + bytes;
        return reinterpret_cast<void*>(at);
      }
      // Try the next retained chunk (after Reset) before growing.
      if (cur_ + 1 < chunks_.size()) {
        ++cur_;
        chunks_[cur_].used = 0;
        continue;
      }
    }
    // Alignment slack: the chunk base is 64-aligned but not necessarily
    // `alignment`-aligned.
    SGXB_RETURN_NOT_OK(
        AcquireChunk(bytes + (alignment > kCacheLineSize ? alignment : 0)));
    cur_ = chunks_.size() - 1;
    chunks_[cur_].used = 0;
  }
}

ArenaCheckpoint Arena::Save() const {
  if (chunks_.empty()) return ArenaCheckpoint{0, 0};
  return ArenaCheckpoint{cur_, chunks_[cur_].used};
}

void Arena::Rollback(const ArenaCheckpoint& cp) {
  if (chunks_.empty()) return;
  assert(cp.chunk_index <= cur_ && "rollback to a future checkpoint");
  if (cp.chunk_index == 0 && cp.offset == 0) {
    ReleaseChunksAfter(0);
    cur_ = 0;
    return;
  }
  ReleaseChunksAfter(cp.chunk_index + 1);
  cur_ = cp.chunk_index;
  assert(cp.offset <= chunks_[cur_].used);
  chunks_[cur_].used = cp.offset;
}

void Arena::Reset() {
  for (Chunk& c : chunks_) c.used = 0;
  cur_ = 0;
}

size_t Arena::used() const {
  size_t total = 0;
  for (size_t i = 0; i <= cur_ && i < chunks_.size(); ++i) {
    total += chunks_[i].used;
  }
  return total;
}

size_t Arena::reserved() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.buf.size();
  return total;
}

}  // namespace sgxb::mem
