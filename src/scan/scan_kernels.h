// Column-scan kernels: scalar, AVX2, and AVX-512 variants.
//
// The paper's scan (Section 5) implements the SIMD-scan designs of
// Willhalm et al. and Polychroniou et al.: load 64 byte-sized values at a
// time, compare against a lower and an upper bound, and either store the
// 64-bit comparison mask into a bit vector or materialize the row indexes
// of matching values. The predicate is inclusive: lo <= v <= hi.
//
// AVX-512 kernels compile only when the build targets AVX-512 (the paper
// uses -march=native on an Ice Lake Xeon); ScanDispatch picks the widest
// kernel the *host* supports at runtime.

#ifndef SGXB_SCAN_SCAN_KERNELS_H_
#define SGXB_SCAN_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_info.h"

namespace sgxb::scan {

// --- Bit-vector output ---------------------------------------------------
// `out_words` must hold (n + 63) / 64 words; n need not be a multiple of
// 64 (the tail word is partially filled). Returns the number of matches.

uint64_t ScanBitVectorScalar(const uint8_t* data, size_t n, uint8_t lo,
                             uint8_t hi, uint64_t* out_words);
uint64_t ScanBitVectorAvx2(const uint8_t* data, size_t n, uint8_t lo,
                           uint8_t hi, uint64_t* out_words);
uint64_t ScanBitVectorAvx512(const uint8_t* data, size_t n, uint8_t lo,
                             uint8_t hi, uint64_t* out_words);

// --- Row-id materialization ------------------------------------------------
// `out_ids` must have room for n entries (worst case). `base` is added to
// every produced index (for partitioned multi-threaded scans). Returns the
// number of ids written.

uint64_t ScanRowIdsScalar(const uint8_t* data, size_t n, uint8_t lo,
                          uint8_t hi, uint64_t base, uint64_t* out_ids);
uint64_t ScanRowIdsAvx2(const uint8_t* data, size_t n, uint8_t lo,
                        uint8_t hi, uint64_t base, uint64_t* out_ids);
uint64_t ScanRowIdsAvx512(const uint8_t* data, size_t n, uint8_t lo,
                          uint8_t hi, uint64_t base, uint64_t* out_ids);

/// \brief AVX-512 row-id kernel using VPCOMPRESSQ (compress-store), the
/// branch-free materialization of Polychroniou et al.: eight candidate
/// indexes are compressed by the comparison mask per step, so the write
/// pattern has no data-dependent branches. Falls back to
/// ScanRowIdsAvx512 without AVX-512.
uint64_t ScanRowIdsAvx512Compress(const uint8_t* data, size_t n,
                                  uint8_t lo, uint8_t hi, uint64_t base,
                                  uint64_t* out_ids);

// --- u32 row-id materialization ---------------------------------------------
// The row-id contract above over 32-bit values (the TPC-H date, key and
// measure columns): `out_ids` must have room for n entries, and entries
// past the returned count may be overwritten. The AVX-512 kernel
// compares 16 values per step and compress-stores the matching ids
// (VPCOMPRESSQ into a register, then one full store per 8 ids), the AVX2
// kernel permutes 4 ids at a time through a 16-entry table, and the
// scalar kernel is the branchless conditional append.

uint64_t ScanRowIdsU32Scalar(const uint32_t* data, size_t n, uint32_t lo,
                             uint32_t hi, uint64_t base, uint64_t* out_ids);
uint64_t ScanRowIdsU32Avx2(const uint32_t* data, size_t n, uint32_t lo,
                           uint32_t hi, uint64_t base, uint64_t* out_ids);
uint64_t ScanRowIdsU32Avx512(const uint32_t* data, size_t n, uint32_t lo,
                             uint32_t hi, uint64_t base, uint64_t* out_ids);

// --- Dispatch ---------------------------------------------------------------

using BitVectorKernel = uint64_t (*)(const uint8_t*, size_t, uint8_t,
                                     uint8_t, uint64_t*);
using RowIdKernel = uint64_t (*)(const uint8_t*, size_t, uint8_t, uint8_t,
                                 uint64_t, uint64_t*);
using RowIdKernelU32 = uint64_t (*)(const uint32_t*, size_t, uint32_t,
                                    uint32_t, uint64_t, uint64_t*);

/// \brief Returns the widest bit-vector kernel available on this host, or
/// the kernel for an explicitly requested level (falling back if the host
/// cannot run it).
BitVectorKernel PickBitVectorKernel(SimdLevel level);
RowIdKernel PickRowIdKernel(SimdLevel level);
RowIdKernelU32 PickRowIdKernelU32(SimdLevel level);

/// \brief Widest level that both the build and the host support.
SimdLevel BestSupportedSimdLevel();

// --- Gather kernels over one run ---------------------------------------------
//
// The stages after a fused pipeline's first filter evaluate predicates
// and aggregates on a selection vector of row ids. Each kernel works on
// one run as storage::ForEachRun hands it out: `run` holds rows
// [base, base + n), and every id of `ids[0, m)` lies in that range in
// ascending order (an id may repeat). A kernel reads run[id - base] and
// never past run + n. A 32-bit
// gather of a u8 value reads 3 bytes beyond it, so the u8 kernels gather
// only ids at least 4 bytes before the run's end and finish the last few
// scalar (at most 3 distinct ids).
//
// Refinements write the surviving ids in order to `out`, which must have
// room for m entries (entries past the returned count may be
// overwritten), and return how many survived. Multi-column kernels take
// one run per column, all covering the same rows.

/// \brief count(*) and sum(value) of one group.
struct GroupCountSum {
  uint64_t count = 0;
  uint64_t sum = 0;
};

/// \brief Private histogram copies of the grouped aggregate: the paper's
/// Listing 2 spreads successive updates over separate histograms so that
/// runs of one group do not serialize on a single counter's
/// load-add-store chain.
inline constexpr int kGroupCopies = 4;

/// \brief One SIMD level's gather kernels.
struct GatherKernels {
  /// Keeps ids with lo <= run[id] <= hi.
  size_t (*u32_range)(const uint32_t* run, uint64_t base, size_t n,
                      const uint64_t* ids, size_t m, uint32_t lo,
                      uint32_t hi, uint64_t* out);
  /// Keeps ids whose key run[id] is below `domain` and has its bit set
  /// in `bitmap` (key k is bit k % 64 of word k / 64; the bitmap holds
  /// (domain + 63) / 64 words). A key at or above `domain` is a miss and
  /// reads no bitmap word. Scalar at every level: a key gather followed
  /// by a dependent bitmap-word gather ran slower than the scalar loop.
  size_t (*u32_in_bitmap)(const uint32_t* run, uint64_t base, size_t n,
                          const uint64_t* ids, size_t m,
                          const uint64_t* bitmap, uint32_t domain,
                          uint64_t* out);
  /// Keeps ids with lo <= run[id] <= hi.
  size_t (*u8_range)(const uint8_t* run, uint64_t base, size_t n,
                     const uint64_t* ids, size_t m, uint8_t lo, uint8_t hi,
                     uint64_t* out);
  /// Keeps ids whose code run[id] has its bit set in `set_mask` (codes
  /// of 64 and above are never in the set).
  size_t (*u8_in_set)(const uint8_t* run, uint64_t base, size_t n,
                      const uint64_t* ids, size_t m, uint64_t set_mask,
                      uint64_t* out);
  /// Keeps ids with a[id] < b[id].
  size_t (*u32_less)(const uint32_t* a, const uint32_t* b, uint64_t base,
                     size_t n, const uint64_t* ids, size_t m,
                     uint64_t* out);
  /// sum(a[id] * b[id]) over the ids, 64-bit products, wrapping mod 2^64.
  uint64_t (*sum_product)(const uint32_t* a, const uint32_t* b,
                          uint64_t base, size_t n, const uint64_t* ids,
                          size_t m);
  /// Grouped count(*) and sum(val) with group g1[id] * num_g2 + g2[id].
  /// `hist` holds kGroupCopies copies of `stride` groups (copy c at
  /// hist + c * stride); successive ids update successive copies, and the
  /// caller sums the copies. Stops at the first id whose g1 >= num_g1 or
  /// g2 >= num_g2 and returns its index; returns m when all ids fit.
  size_t (*group_sum2)(const uint32_t* val, const uint8_t* g1,
                       const uint8_t* g2, uint64_t base, size_t n,
                       const uint64_t* ids, size_t m, uint32_t num_g1,
                       uint32_t num_g2, GroupCountSum* hist, size_t stride);
};

/// \brief The gather kernels for `level`, clamped to what the build and
/// the host support (the scalar set runs where AVX2 does not).
const GatherKernels& PickGatherKernels(SimdLevel level);

}  // namespace sgxb::scan

#endif  // SGXB_SCAN_SCAN_KERNELS_H_
