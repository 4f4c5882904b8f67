// Shared bucket-chained hash table (Blanas et al. layout).
//
// The PHT join's latched-build / latch-free-probe chained table. The
// table does not own its memory: callers carve the bucket + overflow
// arrays from a JoinScratch / Arena / resource buffer (sized by
// BytesFor) so allocation policy and enclave accounting stay with the
// owner.
//
// Concurrency contract: Insert() takes the head bucket's latch and is
// safe from any number of threads. ProbeBucket() and the batched cursor
// are latch-free and must only run once all inserts have completed (the
// join barriers between build and probe).

#ifndef SGXB_JOIN_HASH_TABLE_H_
#define SGXB_JOIN_HASH_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/types.h"
#include "join/join_common.h"
#include "sync/spinlock.h"

namespace sgxb::join {

struct BucketChainTable {
  // Bucket layout follows the classic multi-core hash join code: two
  // in-line tuple slots, a latch for parallel builds, and an overflow
  // link. 32 bytes, so a chain hop never spans two cache lines.
  struct Bucket {
    SpinLock latch;
    uint32_t count;
    uint32_t next;  // index into the overflow pool, kNoOverflow if none
    Tuple tuples[2];
  };
  static_assert(sizeof(Bucket) <= 32, "Bucket should stay compact");

  static constexpr uint32_t kNoOverflow = 0xffffffffu;

  /// \brief Head-bucket count for `build_tuples` inserts: power of two,
  /// averaging two tuples per bucket like the original implementation.
  static size_t NumBuckets(size_t build_tuples) {
    size_t buckets = 16;
    while (buckets * 2 < build_tuples) buckets <<= 1;
    return buckets;
  }

  static uint32_t BitsOf(size_t pow2) {
    uint32_t bits = 0;
    while ((size_t{1} << bits) < pow2) ++bits;
    return bits;
  }

  /// \brief Worst case: every insert spills once -> one overflow bucket
  /// per two build tuples, plus slack.
  static size_t OverflowCap(size_t build_tuples) {
    return build_tuples / 2 + 16;
  }

  /// \brief Bytes Bind() expects for a table of `build_tuples` capacity.
  static size_t BytesFor(size_t build_tuples) {
    return (NumBuckets(build_tuples) + OverflowCap(build_tuples)) *
           sizeof(Bucket);
  }

  Bucket* buckets = nullptr;
  size_t num_buckets = 0;
  uint32_t hash_bits = 0;
  Bucket* overflow = nullptr;
  std::atomic<uint32_t> overflow_next{0};
  size_t overflow_cap = 0;

  /// \brief Carves the bucket and overflow arrays out of `mem`, which
  /// must hold BytesFor(build_capacity) bytes (64-byte aligned). Bucket
  /// headers are NOT initialized — call InitBuckets over [0, num_buckets)
  /// (typically split across the build gang) before the first Insert.
  void Bind(void* mem, size_t build_capacity) {
    num_buckets = NumBuckets(build_capacity);
    hash_bits = BitsOf(num_buckets);
    buckets = static_cast<Bucket*>(mem);
    overflow = buckets + num_buckets;
    overflow_cap = OverflowCap(build_capacity);
    overflow_next.store(0, std::memory_order_relaxed);
  }

  /// \brief Placement-initializes bucket headers [begin, end).
  void InitBuckets(size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      Bucket* bucket = new (&buckets[b]) Bucket();
      bucket->count = 0;
      bucket->next = kNoOverflow;
    }
  }

  uint32_t HashOf(uint32_t key) const { return HashKey(key, hash_bits); }

  // Inserts under the head bucket's latch. When the head is full its
  // contents are pushed into a fresh overflow bucket, so inserts always
  // hit the head (constant work under the latch).
  void Insert(const Tuple& t) {
    Bucket& head = buckets[HashKey(t.key, hash_bits)];
    head.latch.lock();
    if (head.count == 2) {
      uint32_t idx = overflow_next.fetch_add(1, std::memory_order_relaxed);
      assert(idx < overflow_cap && "PHT overflow pool exhausted");
      Bucket& spill = overflow[idx];
      spill.count = head.count;
      spill.next = head.next;
      spill.tuples[0] = head.tuples[0];
      spill.tuples[1] = head.tuples[1];
      head.next = idx;
      head.count = 0;
    }
    head.tuples[head.count++] = t;
    head.latch.unlock();
  }

  // Probes the chain starting at `buckets[bucket]` (hash hoisted to the
  // caller so batched probes compute it exactly once per tuple). The
  // probe phase is ordered after all builds, so this path must never
  // touch the latch; count/next are still snapshotted into const locals
  // before the slot scan so a bucket is read exactly once per hop and a
  // mutated head can never walk the scan out of bounds.
  template <typename OnMatch>
  uint64_t ProbeBucket(uint32_t bucket, const Tuple& t,
                       OnMatch&& on_match) const {
    uint64_t matches = 0;
    const Bucket* b = &buckets[bucket];
    for (;;) {
      const uint32_t count = b->count <= 2 ? b->count : 2;
      const uint32_t next = b->next;
      for (uint32_t i = 0; i < count; ++i) {
        if (b->tuples[i].key == t.key) {
          ++matches;
          on_match(b->tuples[i], t);
        }
      }
      if (next == kNoOverflow) break;
      assert(next < overflow_cap);
      b = &overflow[next];
    }
    return matches;
  }
};

// Probe state machine for the batched drivers (exec/probe_pipeline.h):
// one hop per Advance() — head bucket, then each overflow bucket. Buckets
// are 32 bytes in a cache-aligned array, so a hop never spans two lines.
template <typename OnMatch>
struct BucketChainCursor {
  static constexpr int kPrefetchLines = 1;
  const BucketChainTable* table = nullptr;
  OnMatch* on_match = nullptr;
  uint64_t matches = 0;

  Tuple probe_;
  const BucketChainTable::Bucket* b_ = nullptr;

  void Reset(const Tuple& t) {
    probe_ = t;
    b_ = &table->buckets[table->HashOf(t.key)];
  }
  const void* Target() const { return b_; }
  void Advance() {
    const uint32_t count = b_->count <= 2 ? b_->count : 2;
    const uint32_t next = b_->next;
    for (uint32_t i = 0; i < count; ++i) {
      if (b_->tuples[i].key == probe_.key) {
        ++matches;
        (*on_match)(b_->tuples[i], probe_);
      }
    }
    b_ = next == BucketChainTable::kNoOverflow ? nullptr
                                               : &table->overflow[next];
  }
};

}  // namespace sgxb::join

#endif  // SGXB_JOIN_HASH_TABLE_H_
