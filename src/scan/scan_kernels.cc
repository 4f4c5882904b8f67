#include "scan/scan_kernels.h"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sgxb::scan {

namespace {

inline bool Matches(uint8_t v, uint8_t lo, uint8_t hi) {
  return v >= lo && v <= hi;
}

}  // namespace

// --- Scalar ----------------------------------------------------------------

uint64_t ScanBitVectorScalar(const uint8_t* data, size_t n, uint8_t lo,
                             uint8_t hi, uint64_t* out_words) {
  uint64_t count = 0;
  size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    uint64_t word = 0;
    const uint8_t* block = data + w * 64;
    for (int i = 0; i < 64; ++i) {
      word |= static_cast<uint64_t>(Matches(block[i], lo, hi)) << i;
    }
    out_words[w] = word;
    count += __builtin_popcountll(word);
  }
  if (n % 64 != 0) {
    uint64_t word = 0;
    const uint8_t* block = data + full_words * 64;
    for (size_t i = 0; i < n % 64; ++i) {
      word |= static_cast<uint64_t>(Matches(block[i], lo, hi)) << i;
    }
    out_words[full_words] = word;
    count += __builtin_popcountll(word);
  }
  return count;
}

uint64_t ScanRowIdsScalar(const uint8_t* data, size_t n, uint8_t lo,
                          uint8_t hi, uint64_t base, uint64_t* out_ids) {
  uint64_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (Matches(data[i], lo, hi)) out_ids[k++] = base + i;
  }
  return k;
}

uint64_t ScanRowIdsU32Scalar(const uint32_t* data, size_t n, uint32_t lo,
                             uint32_t hi, uint64_t base, uint64_t* out_ids) {
  uint64_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    // Branchless conditional append: always write, advance on a match.
    out_ids[k] = base + i;
    k += (data[i] >= lo && data[i] <= hi) ? 1 : 0;
  }
  return k;
}

namespace {

// Scalar gather kernels: the set for hosts without AVX2, and the tails of
// the SIMD kernels.

template <typename Pred>
size_t RefineScalar(uint64_t base, const uint64_t* ids, size_t m,
                    uint64_t* out, Pred pred) {
  size_t k = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint64_t id = ids[i];
    out[k] = id;
    k += pred(id - base) ? 1 : 0;
  }
  return k;
}

inline bool InSet(uint64_t set_mask, uint32_t code) {
  return code < 64 && ((set_mask >> code) & 1u) != 0;
}

size_t RefineU32RangeScalar(const uint32_t* run, uint64_t base, size_t,
                            const uint64_t* ids, size_t m, uint32_t lo,
                            uint32_t hi, uint64_t* out) {
  return RefineScalar(base, ids, m, out, [&](uint64_t off) {
    return run[off] >= lo && run[off] <= hi;
  });
}

size_t RefineU32InBitmapScalar(const uint32_t* run, uint64_t base, size_t,
                               const uint64_t* ids, size_t m,
                               const uint64_t* bitmap, uint32_t domain,
                               uint64_t* out) {
  return RefineScalar(base, ids, m, out, [&](uint64_t off) {
    const uint32_t key = run[off];
    return key < domain && ((bitmap[key >> 6] >> (key & 63)) & 1) != 0;
  });
}

size_t RefineU8RangeScalar(const uint8_t* run, uint64_t base, size_t,
                           const uint64_t* ids, size_t m, uint8_t lo,
                           uint8_t hi, uint64_t* out) {
  return RefineScalar(base, ids, m, out, [&](uint64_t off) {
    return Matches(run[off], lo, hi);
  });
}

size_t RefineU8InSetScalar(const uint8_t* run, uint64_t base, size_t,
                           const uint64_t* ids, size_t m, uint64_t set_mask,
                           uint64_t* out) {
  return RefineScalar(base, ids, m, out, [&](uint64_t off) {
    return InSet(set_mask, run[off]);
  });
}

size_t RefineU32LessScalar(const uint32_t* a, const uint32_t* b,
                           uint64_t base, size_t, const uint64_t* ids,
                           size_t m, uint64_t* out) {
  return RefineScalar(base, ids, m, out,
                      [&](uint64_t off) { return a[off] < b[off]; });
}

uint64_t SumProductScalar(const uint32_t* a, const uint32_t* b,
                          uint64_t base, size_t, const uint64_t* ids,
                          size_t m) {
  uint64_t sum = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint64_t off = ids[i] - base;
    sum += static_cast<uint64_t>(a[off]) * b[off];
  }
  return sum;
}

size_t GroupSum2Scalar(const uint32_t* val, const uint8_t* g1,
                       const uint8_t* g2, uint64_t base, size_t,
                       const uint64_t* ids, size_t m, uint32_t num_g1,
                       uint32_t num_g2, GroupCountSum* hist, size_t stride) {
  for (size_t i = 0; i < m; ++i) {
    const uint64_t off = ids[i] - base;
    const uint32_t a = g1[off];
    const uint32_t b = g2[off];
    if (a >= num_g1 || b >= num_g2) return i;
    GroupCountSum& g = hist[(i % kGroupCopies) * stride + a * num_g2 + b];
    ++g.count;
    g.sum += val[off];
  }
  return m;
}

// Leading ids of an ascending list whose 4-byte read at run + (id - base)
// stays inside the n-byte run. The rest (at most 3 distinct ids) must be
// read one byte at a time.
inline size_t U8GatherSafe(uint64_t base, size_t n, const uint64_t* ids,
                           size_t m) {
  while (m > 0 && ids[m - 1] - base + 4 > n) --m;
  return m;
}

constexpr GatherKernels kScalarGather = {
    &RefineU32RangeScalar, &RefineU32InBitmapScalar, &RefineU8RangeScalar,
    &RefineU8InSetScalar,  &RefineU32LessScalar,     &SumProductScalar,
    &GroupSum2Scalar,
};

}  // namespace

// --- AVX2 --------------------------------------------------------------------

#if defined(__AVX2__)

namespace {

// Unsigned byte range check with AVX2: shift into signed space, then
// (v >= lo) & (v <= hi) via signed compares.
inline uint32_t RangeMask32(__m256i v, __m256i lo_s, __m256i hi_s,
                            __m256i bias) {
  __m256i vs = _mm256_xor_si256(v, bias);
  __m256i ge_lo = _mm256_cmpgt_epi8(lo_s, vs);  // lo > v  -> fail
  __m256i gt_hi = _mm256_cmpgt_epi8(vs, hi_s);  // v > hi  -> fail
  __m256i fail = _mm256_or_si256(ge_lo, gt_hi);
  return ~static_cast<uint32_t>(_mm256_movemask_epi8(fail));
}

}  // namespace

uint64_t ScanBitVectorAvx2(const uint8_t* data, size_t n, uint8_t lo,
                           uint8_t hi, uint64_t* out_words) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i lo_s =
      _mm256_set1_epi8(static_cast<char>(lo ^ 0x80));
  const __m256i hi_s =
      _mm256_set1_epi8(static_cast<char>(hi ^ 0x80));

  uint64_t count = 0;
  size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    __m256i v0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + w * 64));
    __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + w * 64 + 32));
    uint64_t word = static_cast<uint64_t>(RangeMask32(v0, lo_s, hi_s, bias));
    word |= static_cast<uint64_t>(RangeMask32(v1, lo_s, hi_s, bias)) << 32;
    out_words[w] = word;
    count += __builtin_popcountll(word);
  }
  if (n % 64 != 0) {
    count += ScanBitVectorScalar(data + full * 64, n % 64, lo, hi,
                                 out_words + full);
  }
  return count;
}

uint64_t ScanRowIdsAvx2(const uint8_t* data, size_t n, uint8_t lo,
                        uint8_t hi, uint64_t base, uint64_t* out_ids) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i lo_s = _mm256_set1_epi8(static_cast<char>(lo ^ 0x80));
  const __m256i hi_s = _mm256_set1_epi8(static_cast<char>(hi ^ 0x80));

  uint64_t k = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + i));
    uint32_t mask = RangeMask32(v, lo_s, hi_s, bias);
    while (mask != 0) {
      int bit = __builtin_ctz(mask);
      out_ids[k++] = base + i + bit;
      mask &= mask - 1;
    }
  }
  k += ScanRowIdsScalar(data + i, n - i, lo, hi, base + i, out_ids + k);
  return k;
}

namespace {

// kCompress4.idx[m] lists the 32-bit halves of the u64 lanes selected by
// the 4-bit mask m, selected lanes first: a _mm256_permutevar8x32_epi32
// with it packs the selected ids to the front of the vector.
struct Compress4Table {
  alignas(32) uint32_t idx[16][8];
};

constexpr Compress4Table MakeCompress4() {
  Compress4Table t{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (((m >> lane) & 1) == 0) continue;
      t.idx[m][2 * k] = static_cast<uint32_t>(2 * lane);
      t.idx[m][2 * k + 1] = static_cast<uint32_t>(2 * lane + 1);
      ++k;
    }
    for (; k < 4; ++k) {
      t.idx[m][2 * k] = 0;
      t.idx[m][2 * k + 1] = 1;
    }
  }
  return t;
}

constexpr Compress4Table kCompress4 = MakeCompress4();

// Stores the u64 lanes of `ids` selected by the 4-bit `mask` at `out`
// (one full 4-lane store) and returns how many there were.
inline size_t Compress4(uint64_t* out, int mask, __m256i ids) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompress4.idx[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(ids, perm));
  return static_cast<size_t>(__builtin_popcount(mask));
}

// Unsigned lo <= v <= hi per 32-bit lane, as an all-ones/zero lane mask.
inline __m128i InRange4(__m128i v, __m128i lo, __m128i hi) {
  return _mm_and_si128(_mm_cmpeq_epi32(_mm_max_epu32(v, lo), v),
                       _mm_cmpeq_epi32(_mm_min_epu32(v, hi), v));
}

inline int LaneMask4(__m128i m) {
  return _mm_movemask_ps(_mm_castsi128_ps(m));
}

inline __m256i LoadIds4(const uint64_t* ids) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids));
}

inline __m128i Gather4U32(const uint32_t* run, __m256i off) {
  return _mm256_i64gather_epi32(reinterpret_cast<const int*>(run), off, 4);
}

// 4-byte reads at byte offsets, masked to the low byte; every offset
// must be at least 4 bytes before the run's end.
inline __m128i Gather4U8(const uint8_t* run, __m256i off) {
  return _mm_and_si128(
      _mm256_i64gather_epi32(reinterpret_cast<const int*>(run), off, 1),
      _mm_set1_epi32(0xff));
}

size_t RefineU32RangeAvx2(const uint32_t* run, uint64_t base, size_t n,
                          const uint64_t* ids, size_t m, uint32_t lo,
                          uint32_t hi, uint64_t* out) {
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m128i vlo = _mm_set1_epi32(static_cast<int>(lo));
  const __m128i vhi = _mm_set1_epi32(static_cast<int>(hi));
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256i id4 = LoadIds4(ids + i);
    const __m128i v = Gather4U32(run, _mm256_sub_epi64(id4, vbase));
    k += Compress4(out + k, LaneMask4(InRange4(v, vlo, vhi)), id4);
  }
  return k + RefineU32RangeScalar(run, base, n, ids + i, m - i, lo, hi,
                                  out + k);
}

size_t RefineU8RangeAvx2(const uint8_t* run, uint64_t base, size_t n,
                         const uint64_t* ids, size_t m, uint8_t lo,
                         uint8_t hi, uint64_t* out) {
  const size_t safe = U8GatherSafe(base, n, ids, m);
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m128i vlo = _mm_set1_epi32(lo);
  const __m128i vhi = _mm_set1_epi32(hi);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= safe; i += 4) {
    const __m256i id4 = LoadIds4(ids + i);
    const __m128i v = Gather4U8(run, _mm256_sub_epi64(id4, vbase));
    k += Compress4(out + k, LaneMask4(InRange4(v, vlo, vhi)), id4);
  }
  return k + RefineU8RangeScalar(run, base, n, ids + i, m - i, lo, hi,
                                 out + k);
}

size_t RefineU8InSetAvx2(const uint8_t* run, uint64_t base, size_t n,
                         const uint64_t* ids, size_t m, uint64_t set_mask,
                         uint64_t* out) {
  const size_t safe = U8GatherSafe(base, n, ids, m);
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m256i vset = _mm256_set1_epi64x(static_cast<long long>(set_mask));
  const __m256i one = _mm256_set1_epi64x(1);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= safe; i += 4) {
    const __m256i id4 = LoadIds4(ids + i);
    const __m128i v = Gather4U8(run, _mm256_sub_epi64(id4, vbase));
    // Variable shifts by 64 or more yield 0: codes >= 64 are not in set.
    const __m256i bit = _mm256_and_si256(
        _mm256_srlv_epi64(vset, _mm256_cvtepu32_epi64(v)), one);
    const int mask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(bit, one)));
    k += Compress4(out + k, mask, id4);
  }
  return k + RefineU8InSetScalar(run, base, n, ids + i, m - i, set_mask,
                                 out + k);
}

size_t RefineU32LessAvx2(const uint32_t* a, const uint32_t* b,
                         uint64_t base, size_t n, const uint64_t* ids,
                         size_t m, uint64_t* out) {
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256i id4 = LoadIds4(ids + i);
    const __m256i off = _mm256_sub_epi64(id4, vbase);
    const __m128i va = Gather4U32(a, off);
    const __m128i vb = Gather4U32(b, off);
    // a < b  <=>  not (max(a, b) == a).
    const int ge = LaneMask4(_mm_cmpeq_epi32(_mm_max_epu32(va, vb), va));
    k += Compress4(out + k, ~ge & 0xf, id4);
  }
  return k + RefineU32LessScalar(a, b, base, n, ids + i, m - i, out + k);
}

uint64_t SumProductAvx2(const uint32_t* a, const uint32_t* b, uint64_t base,
                        size_t n, const uint64_t* ids, size_t m) {
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256i off = _mm256_sub_epi64(LoadIds4(ids + i), vbase);
    const __m256i va = _mm256_cvtepu32_epi64(Gather4U32(a, off));
    const __m256i vb = _mm256_cvtepu32_epi64(Gather4U32(b, off));
    acc = _mm256_add_epi64(acc, _mm256_mul_epu32(va, vb));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         SumProductScalar(a, b, base, n, ids + i, m - i);
}

size_t GroupSum2Avx2(const uint32_t* val, const uint8_t* g1,
                     const uint8_t* g2, uint64_t base, size_t n,
                     const uint64_t* ids, size_t m, uint32_t num_g1,
                     uint32_t num_g2, GroupCountSum* hist, size_t stride) {
  const size_t safe = U8GatherSafe(base, n, ids, m);
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m128i vg1 = _mm_set1_epi32(static_cast<int>(num_g1));
  const __m128i vg2 = _mm_set1_epi32(static_cast<int>(num_g2));
  size_t i = 0;
  for (; i + 4 <= safe; i += 4) {
    const __m256i off = _mm256_sub_epi64(LoadIds4(ids + i), vbase);
    const __m128i a = Gather4U8(g1, off);
    const __m128i b = Gather4U8(g2, off);
    // a >= num_g1  <=>  max(a, num_g1) == a. The scalar tail below
    // re-walks an offending block and stops at the exact id.
    const __m128i bad =
        _mm_or_si128(_mm_cmpeq_epi32(_mm_max_epu32(a, vg1), a),
                     _mm_cmpeq_epi32(_mm_max_epu32(b, vg2), b));
    if (LaneMask4(bad) != 0) break;
    alignas(16) uint32_t g[4];
    alignas(16) uint32_t v[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(g),
                    _mm_add_epi32(_mm_mullo_epi32(a, vg2), b));
    _mm_store_si128(reinterpret_cast<__m128i*>(v), Gather4U32(val, off));
    for (int j = 0; j < 4; ++j) {
      GroupCountSum& h = hist[static_cast<size_t>(j) * stride + g[j]];
      ++h.count;
      h.sum += v[j];
    }
  }
  return i + GroupSum2Scalar(val, g1, g2, base, n, ids + i, m - i, num_g1,
                             num_g2, hist, stride);
}

constexpr GatherKernels kAvx2Gather = {
    &RefineU32RangeAvx2, &RefineU32InBitmapScalar, &RefineU8RangeAvx2,
    &RefineU8InSetAvx2,  &RefineU32LessAvx2,       &SumProductAvx2,
    &GroupSum2Avx2,
};

}  // namespace

uint64_t ScanRowIdsU32Avx2(const uint32_t* data, size_t n, uint32_t lo,
                           uint32_t hi, uint64_t base, uint64_t* out_ids) {
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  __m256i ids_lo = _mm256_add_epi64(_mm256_setr_epi64x(0, 1, 2, 3), vbase);
  __m256i ids_hi = _mm256_add_epi64(_mm256_setr_epi64x(4, 5, 6, 7), vbase);
  const __m256i step = _mm256_set1_epi64x(8);
  uint64_t k = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i in =
        _mm256_and_si256(_mm256_cmpeq_epi32(_mm256_max_epu32(v, vlo), v),
                         _mm256_cmpeq_epi32(_mm256_min_epu32(v, vhi), v));
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(in));
    k += Compress4(out_ids + k, mask & 0xf, ids_lo);
    k += Compress4(out_ids + k, mask >> 4, ids_hi);
    ids_lo = _mm256_add_epi64(ids_lo, step);
    ids_hi = _mm256_add_epi64(ids_hi, step);
  }
  return k + ScanRowIdsU32Scalar(data + i, n - i, lo, hi, base + i,
                                 out_ids + k);
}

#else  // !__AVX2__

uint64_t ScanBitVectorAvx2(const uint8_t* data, size_t n, uint8_t lo,
                           uint8_t hi, uint64_t* out_words) {
  return ScanBitVectorScalar(data, n, lo, hi, out_words);
}
uint64_t ScanRowIdsAvx2(const uint8_t* data, size_t n, uint8_t lo,
                        uint8_t hi, uint64_t base, uint64_t* out_ids) {
  return ScanRowIdsScalar(data, n, lo, hi, base, out_ids);
}
uint64_t ScanRowIdsU32Avx2(const uint32_t* data, size_t n, uint32_t lo,
                           uint32_t hi, uint64_t base, uint64_t* out_ids) {
  return ScanRowIdsU32Scalar(data, n, lo, hi, base, out_ids);
}

#endif  // __AVX2__

// --- AVX-512 ------------------------------------------------------------------

#if defined(__AVX512F__) && defined(__AVX512BW__)

// GCC 12's AVX-512 headers build their "undefined" vectors from
// self-initialized locals, which -Wuninitialized reports at every inlined
// gather, shift and widening (later GCC releases no longer do).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

uint64_t ScanBitVectorAvx512(const uint8_t* data, size_t n, uint8_t lo,
                             uint8_t hi, uint64_t* out_words) {
  const __m512i vlo = _mm512_set1_epi8(static_cast<char>(lo));
  const __m512i vhi = _mm512_set1_epi8(static_cast<char>(hi));

  uint64_t count = 0;
  size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    __m512i v = _mm512_loadu_si512(data + w * 64);
    __mmask64 ge = _mm512_cmp_epu8_mask(v, vlo, _MM_CMPINT_NLT);
    __mmask64 le = _mm512_cmp_epu8_mask(v, vhi, _MM_CMPINT_LE);
    uint64_t word = static_cast<uint64_t>(ge & le);
    out_words[w] = word;
    count += __builtin_popcountll(word);
  }
  if (n % 64 != 0) {
    count += ScanBitVectorScalar(data + full * 64, n % 64, lo, hi,
                                 out_words + full);
  }
  return count;
}

uint64_t ScanRowIdsAvx512(const uint8_t* data, size_t n, uint8_t lo,
                          uint8_t hi, uint64_t base, uint64_t* out_ids) {
  const __m512i vlo = _mm512_set1_epi8(static_cast<char>(lo));
  const __m512i vhi = _mm512_set1_epi8(static_cast<char>(hi));

  uint64_t k = 0;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512i v = _mm512_loadu_si512(data + i);
    __mmask64 ge = _mm512_cmp_epu8_mask(v, vlo, _MM_CMPINT_NLT);
    __mmask64 le = _mm512_cmp_epu8_mask(v, vhi, _MM_CMPINT_LE);
    uint64_t mask = static_cast<uint64_t>(ge & le);
    while (mask != 0) {
      int bit = __builtin_ctzll(mask);
      out_ids[k++] = base + i + bit;
      mask &= mask - 1;
    }
  }
  k += ScanRowIdsScalar(data + i, n - i, lo, hi, base + i, out_ids + k);
  return k;
}

uint64_t ScanRowIdsAvx512Compress(const uint8_t* data, size_t n,
                                  uint8_t lo, uint8_t hi, uint64_t base,
                                  uint64_t* out_ids) {
  const __m512i vlo = _mm512_set1_epi8(static_cast<char>(lo));
  const __m512i vhi = _mm512_set1_epi8(static_cast<char>(hi));
  // Rolling vector of eight candidate row ids.
  __m512i ids = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  ids = _mm512_add_epi64(ids, _mm512_set1_epi64(
                                  static_cast<long long>(base)));
  const __m512i step = _mm512_set1_epi64(8);

  uint64_t k = 0;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512i v = _mm512_loadu_si512(data + i);
    __mmask64 ge = _mm512_cmp_epu8_mask(v, vlo, _MM_CMPINT_NLT);
    __mmask64 le = _mm512_cmp_epu8_mask(v, vhi, _MM_CMPINT_LE);
    uint64_t mask = static_cast<uint64_t>(ge & le);
    // Eight compress-stores of eight candidate ids each: no
    // data-dependent branches in the materialization.
    for (int b = 0; b < 8; ++b) {
      __mmask8 m = static_cast<__mmask8>(mask >> (8 * b));
      _mm512_mask_compressstoreu_epi64(out_ids + k, m, ids);
      k += __builtin_popcount(m);
      ids = _mm512_add_epi64(ids, step);
    }
  }
  k += ScanRowIdsScalar(data + i, n - i, lo, hi, base + i, out_ids + k);
  return k;
}

namespace {

inline __m512i LoadIds8(const uint64_t* ids) {
  return _mm512_loadu_si512(ids);
}

inline __m256i Gather8U32(const uint32_t* run, __m512i off) {
  return _mm512_i64gather_epi32(off, run, 4);
}

// 4-byte reads at byte offsets, masked to the low byte; every offset
// must be at least 4 bytes before the run's end.
inline __m256i Gather8U8(const uint8_t* run, __m512i off) {
  return _mm256_and_si256(_mm512_i64gather_epi32(off, run, 1),
                          _mm256_set1_epi32(0xff));
}

// Unsigned compare of 8 u32 lanes (the upper half of the widened vectors
// is masked off). The predicate is a template argument because the
// instruction takes it as an immediate.
template <int kOp>
inline __mmask8 Cmp8(__m256i a, __m256i b) {
  return static_cast<__mmask8>(_mm512_mask_cmp_epu32_mask(
      0xff, _mm512_castsi256_si512(a), _mm512_castsi256_si512(b), kOp));
}

inline size_t Compress8(uint64_t* out, __mmask8 mask, __m512i ids) {
  _mm512_storeu_si512(out, _mm512_maskz_compress_epi64(mask, ids));
  return static_cast<size_t>(__builtin_popcount(mask));
}

size_t RefineU32RangeAvx512(const uint32_t* run, uint64_t base, size_t n,
                            const uint64_t* ids, size_t m, uint32_t lo,
                            uint32_t hi, uint64_t* out) {
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i id8 = LoadIds8(ids + i);
    const __m256i v = Gather8U32(run, _mm512_sub_epi64(id8, vbase));
    k += Compress8(out + k,
                   Cmp8<_MM_CMPINT_NLT>(v, vlo) & Cmp8<_MM_CMPINT_LE>(v, vhi),
                   id8);
  }
  return k + RefineU32RangeScalar(run, base, n, ids + i, m - i, lo, hi,
                                  out + k);
}

size_t RefineU8RangeAvx512(const uint8_t* run, uint64_t base, size_t n,
                           const uint64_t* ids, size_t m, uint8_t lo,
                           uint8_t hi, uint64_t* out) {
  const size_t safe = U8GatherSafe(base, n, ids, m);
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= safe; i += 8) {
    const __m512i id8 = LoadIds8(ids + i);
    const __m256i v = Gather8U8(run, _mm512_sub_epi64(id8, vbase));
    k += Compress8(out + k,
                   Cmp8<_MM_CMPINT_NLT>(v, vlo) & Cmp8<_MM_CMPINT_LE>(v, vhi),
                   id8);
  }
  return k + RefineU8RangeScalar(run, base, n, ids + i, m - i, lo, hi,
                                 out + k);
}

size_t RefineU8InSetAvx512(const uint8_t* run, uint64_t base, size_t n,
                           const uint64_t* ids, size_t m, uint64_t set_mask,
                           uint64_t* out) {
  const size_t safe = U8GatherSafe(base, n, ids, m);
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  const __m512i vset = _mm512_set1_epi64(static_cast<long long>(set_mask));
  const __m512i one = _mm512_set1_epi64(1);
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= safe; i += 8) {
    const __m512i id8 = LoadIds8(ids + i);
    const __m256i v = Gather8U8(run, _mm512_sub_epi64(id8, vbase));
    // Variable shifts by 64 or more yield 0: codes >= 64 are not in set.
    const __m512i shifted =
        _mm512_srlv_epi64(vset, _mm512_cvtepu32_epi64(v));
    k += Compress8(out + k, _mm512_test_epi64_mask(shifted, one), id8);
  }
  return k + RefineU8InSetScalar(run, base, n, ids + i, m - i, set_mask,
                                 out + k);
}

size_t RefineU32LessAvx512(const uint32_t* a, const uint32_t* b,
                           uint64_t base, size_t n, const uint64_t* ids,
                           size_t m, uint64_t* out) {
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i id8 = LoadIds8(ids + i);
    const __m512i off = _mm512_sub_epi64(id8, vbase);
    k += Compress8(out + k,
                   Cmp8<_MM_CMPINT_LT>(Gather8U32(a, off),
                                       Gather8U32(b, off)),
                   id8);
  }
  return k + RefineU32LessScalar(a, b, base, n, ids + i, m - i, out + k);
}

uint64_t SumProductAvx512(const uint32_t* a, const uint32_t* b,
                          uint64_t base, size_t n, const uint64_t* ids,
                          size_t m) {
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i off = _mm512_sub_epi64(LoadIds8(ids + i), vbase);
    const __m512i va = _mm512_cvtepu32_epi64(Gather8U32(a, off));
    const __m512i vb = _mm512_cvtepu32_epi64(Gather8U32(b, off));
    acc = _mm512_add_epi64(acc, _mm512_mul_epu32(va, vb));
  }
  // Summed as unsigned lanes: the sum wraps mod 2^64 by contract, and
  // _mm512_reduce_add_epi64 adds signed 64-bit values, which must not
  // overflow.
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  uint64_t sum = 0;
  for (uint64_t lane : lanes) sum += lane;
  return sum + SumProductScalar(a, b, base, n, ids + i, m - i);
}

size_t GroupSum2Avx512(const uint32_t* val, const uint8_t* g1,
                       const uint8_t* g2, uint64_t base, size_t n,
                       const uint64_t* ids, size_t m, uint32_t num_g1,
                       uint32_t num_g2, GroupCountSum* hist, size_t stride) {
  const size_t safe = U8GatherSafe(base, n, ids, m);
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  const __m256i vg1 = _mm256_set1_epi32(static_cast<int>(num_g1));
  const __m256i vg2 = _mm256_set1_epi32(static_cast<int>(num_g2));
  size_t i = 0;
  for (; i + 8 <= safe; i += 8) {
    const __m512i off = _mm512_sub_epi64(LoadIds8(ids + i), vbase);
    const __m256i a = Gather8U8(g1, off);
    const __m256i b = Gather8U8(g2, off);
    // The scalar tail below re-walks an offending block and stops at the
    // exact id.
    if ((Cmp8<_MM_CMPINT_NLT>(a, vg1) | Cmp8<_MM_CMPINT_NLT>(b, vg2)) != 0) {
      break;
    }
    alignas(32) uint32_t g[8];
    alignas(32) uint32_t v[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(g),
                       _mm256_add_epi32(_mm256_mullo_epi32(a, vg2), b));
    _mm256_store_si256(reinterpret_cast<__m256i*>(v), Gather8U32(val, off));
    // Listing 2: eight updates spread over the private copies, so two
    // updates of one group in this block are kGroupCopies apart.
    for (int j = 0; j < 8; ++j) {
      GroupCountSum& h =
          hist[static_cast<size_t>(j % kGroupCopies) * stride + g[j]];
      ++h.count;
      h.sum += v[j];
    }
  }
  return i + GroupSum2Scalar(val, g1, g2, base, n, ids + i, m - i, num_g1,
                             num_g2, hist, stride);
}

constexpr GatherKernels kAvx512Gather = {
    &RefineU32RangeAvx512, &RefineU32InBitmapScalar, &RefineU8RangeAvx512,
    &RefineU8InSetAvx512,  &RefineU32LessAvx512,     &SumProductAvx512,
    &GroupSum2Avx512,
};

}  // namespace

uint64_t ScanRowIdsU32Avx512(const uint32_t* data, size_t n, uint32_t lo,
                             uint32_t hi, uint64_t base, uint64_t* out_ids) {
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vhi = _mm512_set1_epi32(static_cast<int>(hi));
  const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
  __m512i ids_lo =
      _mm512_add_epi64(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), vbase);
  __m512i ids_hi = _mm512_add_epi64(
      _mm512_setr_epi64(8, 9, 10, 11, 12, 13, 14, 15), vbase);
  const __m512i step = _mm512_set1_epi64(16);
  uint64_t k = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v = _mm512_loadu_si512(data + i);
    const __mmask16 m = _mm512_mask_cmp_epu32_mask(
        _mm512_cmp_epu32_mask(v, vlo, _MM_CMPINT_NLT), v, vhi,
        _MM_CMPINT_LE);
    // Each half compresses its selected ids into a register and stores
    // all 8 lanes: k + 8 <= i + 16 <= n, so the stores stay in out_ids.
    k += Compress8(out_ids + k, static_cast<__mmask8>(m), ids_lo);
    k += Compress8(out_ids + k, static_cast<__mmask8>(m >> 8), ids_hi);
    ids_lo = _mm512_add_epi64(ids_lo, step);
    ids_hi = _mm512_add_epi64(ids_hi, step);
  }
  return k + ScanRowIdsU32Scalar(data + i, n - i, lo, hi, base + i,
                                 out_ids + k);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#else  // !AVX512

uint64_t ScanBitVectorAvx512(const uint8_t* data, size_t n, uint8_t lo,
                             uint8_t hi, uint64_t* out_words) {
  return ScanBitVectorAvx2(data, n, lo, hi, out_words);
}
uint64_t ScanRowIdsAvx512(const uint8_t* data, size_t n, uint8_t lo,
                          uint8_t hi, uint64_t base, uint64_t* out_ids) {
  return ScanRowIdsAvx2(data, n, lo, hi, base, out_ids);
}
uint64_t ScanRowIdsAvx512Compress(const uint8_t* data, size_t n,
                                  uint8_t lo, uint8_t hi, uint64_t base,
                                  uint64_t* out_ids) {
  return ScanRowIdsAvx2(data, n, lo, hi, base, out_ids);
}
uint64_t ScanRowIdsU32Avx512(const uint32_t* data, size_t n, uint32_t lo,
                             uint32_t hi, uint64_t base, uint64_t* out_ids) {
  return ScanRowIdsU32Avx2(data, n, lo, hi, base, out_ids);
}

#endif  // AVX512

// --- Dispatch -----------------------------------------------------------------

SimdLevel BestSupportedSimdLevel() {
  SimdLevel host = CpuInfo::Host().max_simd;
#if defined(__AVX512F__) && defined(__AVX512BW__)
  SimdLevel build = SimdLevel::kAvx512;
#elif defined(__AVX2__)
  SimdLevel build = SimdLevel::kAvx2;
#else
  SimdLevel build = SimdLevel::kScalar;
#endif
  return std::min(host, build);
}

BitVectorKernel PickBitVectorKernel(SimdLevel level) {
  level = std::min(level, BestSupportedSimdLevel());
  switch (level) {
    case SimdLevel::kAvx512:
      return &ScanBitVectorAvx512;
    case SimdLevel::kAvx2:
      return &ScanBitVectorAvx2;
    case SimdLevel::kScalar:
      return &ScanBitVectorScalar;
  }
  return &ScanBitVectorScalar;
}

RowIdKernel PickRowIdKernel(SimdLevel level) {
  level = std::min(level, BestSupportedSimdLevel());
  switch (level) {
    case SimdLevel::kAvx512:
      return &ScanRowIdsAvx512;
    case SimdLevel::kAvx2:
      return &ScanRowIdsAvx2;
    case SimdLevel::kScalar:
      return &ScanRowIdsScalar;
  }
  return &ScanRowIdsScalar;
}

RowIdKernelU32 PickRowIdKernelU32(SimdLevel level) {
  level = std::min(level, BestSupportedSimdLevel());
  switch (level) {
    case SimdLevel::kAvx512:
      return &ScanRowIdsU32Avx512;
    case SimdLevel::kAvx2:
      return &ScanRowIdsU32Avx2;
    case SimdLevel::kScalar:
      return &ScanRowIdsU32Scalar;
  }
  return &ScanRowIdsU32Scalar;
}

const GatherKernels& PickGatherKernels(SimdLevel level) {
  level = std::min(level, BestSupportedSimdLevel());
#if defined(__AVX512F__) && defined(__AVX512BW__)
  if (level == SimdLevel::kAvx512) return kAvx512Gather;
#endif
#if defined(__AVX2__)
  if (level >= SimdLevel::kAvx2) return kAvx2Gather;
#endif
  return kScalarGather;
}

}  // namespace sgxb::scan
