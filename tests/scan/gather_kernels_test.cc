// Property tests for the u32 row-id kernels and the gather kernels that
// run a fused pipeline's refinements and aggregates: at every SIMD level
// they must agree with plain loops written here. Inputs cover random
// sizes up to 20k, every tail length, nonzero bases, empty and full
// predicates, unaligned starts, and ids at the very end of a run.
//
// Inputs and outputs sit at the end of a GuardedArray, directly before a
// PROT_NONE page: a read or write past the end faults in every build,
// including the vector gathers that AddressSanitizer does not see into.

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "scan/scan_kernels.h"

namespace sgxb::scan {
namespace {

const SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                             SimdLevel::kAvx512};

// `count` values that end exactly where an inaccessible page begins.
template <typename T>
class GuardedArray {
 public:
  explicit GuardedArray(size_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = count * sizeof(T);
    data_bytes_ = (bytes + page - 1) / page * page;
    map_bytes_ = data_bytes_ + page;
    void* p = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) std::abort();
    base_ = static_cast<char*>(p);
    if (mprotect(base_ + data_bytes_, page, PROT_NONE) != 0) std::abort();
    data_ = reinterpret_cast<T*>(base_ + data_bytes_ - bytes);
  }
  ~GuardedArray() { munmap(base_, map_bytes_); }
  GuardedArray(const GuardedArray&) = delete;
  GuardedArray& operator=(const GuardedArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  char* base_ = nullptr;
  size_t data_bytes_ = 0;
  size_t map_bytes_ = 0;
  T* data_ = nullptr;
};

// --- u32 row-id kernels ----------------------------------------------------

std::vector<uint64_t> OracleRowIds(const uint32_t* data, size_t n,
                                   uint32_t lo, uint32_t hi, uint64_t base) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < n; ++i) {
    if (data[i] >= lo && data[i] <= hi) ids.push_back(base + i);
  }
  return ids;
}

// Runs every level on data[0, n), which ends at a guard page, with the
// output also ending at one.
void ExpectRowIdsMatch(const uint32_t* data, size_t n, uint32_t lo,
                       uint32_t hi, uint64_t base, const char* what) {
  const std::vector<uint64_t> want = OracleRowIds(data, n, lo, hi, base);
  for (SimdLevel level : kLevels) {
    GuardedArray<uint64_t> out(n);
    const uint64_t k =
        PickRowIdKernelU32(level)(data, n, lo, hi, base, out.data());
    ASSERT_EQ(k, want.size()) << SimdLevelToString(level) << " " << what
                              << " n=" << n << " lo=" << lo << " hi=" << hi;
    for (size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i], want[i]) << SimdLevelToString(level) << " " << what
                                 << " n=" << n << " id " << i;
    }
  }
}

TEST(RowIdU32PropertyTest, RandomSizesAndBoundsMatchOracle) {
  Xoshiro256 rng(2024);
  for (int round = 0; round < 40; ++round) {
    const size_t n = 1 + rng.NextBounded(20000);
    // Narrow value domains give dense hits; wide ones sparse hits.
    const uint32_t domain =
        round % 2 == 0 ? 64u : std::numeric_limits<uint32_t>::max();
    // Unaligned starts: the run begins `skew` values into the array,
    // and still ends at the guard page.
    const size_t skew = rng.NextBounded(16);
    GuardedArray<uint32_t> arr(n + skew);
    for (size_t i = 0; i < n + skew; ++i) {
      arr[i] = static_cast<uint32_t>(rng.NextBounded(domain));
    }
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(domain));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(domain));
    uint32_t lo = std::min(a, b);
    uint32_t hi = std::max(a, b);
    if (round % 5 == 1) std::swap(lo, hi);  // lo > hi: empty predicate
    if (round % 5 == 2) hi = lo;            // single-value predicate
    if (round % 5 == 3) {                   // full range
      lo = 0;
      hi = std::numeric_limits<uint32_t>::max();
    }
    const uint64_t base = (1ull << 33) + rng.NextBounded(1000);
    ExpectRowIdsMatch(arr.data() + skew, n, lo, hi, base, "random");
  }
}

TEST(RowIdU32PropertyTest, EveryTailLengthMatchesOracle) {
  Xoshiro256 rng(77);
  for (size_t tail = 0; tail < 16; ++tail) {
    for (size_t full : {0, 3}) {
      const size_t n = full * 16 + tail;
      GuardedArray<uint32_t> arr(n);
      for (size_t i = 0; i < n; ++i) {
        arr[i] = 1000 + static_cast<uint32_t>(rng.NextBounded(5));
      }
      ExpectRowIdsMatch(arr.data(), n, 1001, 1003, 12345, "tail");
      ExpectRowIdsMatch(arr.data(), n, 1002, 1002, 0, "tail lo==hi");
    }
  }
}

TEST(RowIdU32PropertyTest, ExtremeValuesCompareUnsigned) {
  // Values with the top bit set must compare as unsigned, not signed.
  const uint32_t values[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                             0x80000001u, 0xfffffffeu, 0xffffffffu};
  GuardedArray<uint32_t> arr(70);
  for (size_t i = 0; i < 70; ++i) arr[i] = values[i % 7];
  ExpectRowIdsMatch(arr.data(), 70, 0x7fffffffu, 0x80000001u, 7, "sign");
  ExpectRowIdsMatch(arr.data(), 70, 0x80000000u, 0xffffffffu, 7, "top");
  ExpectRowIdsMatch(arr.data(), 70, 0u, 0u, 7, "zero");
}

// --- Gather kernels ----------------------------------------------------------

// One run of rows [base, base + n) in every column type the kernels read,
// each column ending at a guard page, plus an ascending id subset.
struct RunFixture {
  size_t n;
  uint64_t base;
  GuardedArray<uint32_t> a;
  GuardedArray<uint32_t> b;
  GuardedArray<uint8_t> c1;
  GuardedArray<uint8_t> c2;
  std::vector<uint64_t> ids;

  RunFixture(Xoshiro256& rng, size_t rows, uint64_t run_base,
             double density, uint32_t u32_domain, uint32_t u8_domain)
      : n(rows), base(run_base), a(rows), b(rows), c1(rows), c2(rows) {
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<uint32_t>(rng.NextBounded(u32_domain));
      b[i] = static_cast<uint32_t>(rng.NextBounded(u32_domain));
      c1[i] = static_cast<uint8_t>(rng.NextBounded(u8_domain));
      c2[i] = static_cast<uint8_t>(rng.NextBounded(u8_domain));
    }
    const uint64_t cut = static_cast<uint64_t>(density * 1024);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBounded(1024) < cut) ids.push_back(base + i);
    }
    // The last rows of the run are where a 4-byte u8 gather would
    // overread; select them often.
    for (size_t back = 1; back <= std::min<size_t>(3, n); ++back) {
      if (rng.NextBounded(2) == 0) continue;
      const uint64_t id = base + n - back;
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    std::sort(ids.begin(), ids.end());
  }
};

template <typename Pred>
std::vector<uint64_t> OracleRefine(const RunFixture& f, Pred pred) {
  std::vector<uint64_t> out;
  for (uint64_t id : f.ids) {
    if (pred(id - f.base)) out.push_back(id);
  }
  return out;
}

// Calls `kernel(in, m, out)` with the fixture's ids copied to the end of
// a guarded array and an output of exactly m guarded entries.
template <typename Kernel>
std::vector<uint64_t> RunRefine(const RunFixture& f, Kernel kernel) {
  const size_t m = f.ids.size();
  GuardedArray<uint64_t> in(m);
  std::copy(f.ids.begin(), f.ids.end(), in.data());
  GuardedArray<uint64_t> out(m);
  const size_t k = kernel(in.data(), m, out.data());
  return std::vector<uint64_t>(out.data(), out.data() + k);
}

void ExpectGatherKernelsMatch(RunFixture& f, uint32_t lo, uint32_t hi,
                              uint64_t set_mask, uint32_t num_g1,
                              uint32_t num_g2, const std::string& what) {
  const uint8_t lo8 = static_cast<uint8_t>(lo);
  const uint8_t hi8 = static_cast<uint8_t>(hi);
  const auto want_u32 = OracleRefine(f, [&](uint64_t o) {
    return f.a[o] >= lo && f.a[o] <= hi;
  });
  const auto want_u8 = OracleRefine(f, [&](uint64_t o) {
    return f.c1[o] >= lo8 && f.c1[o] <= hi8;
  });
  const auto want_set = OracleRefine(f, [&](uint64_t o) {
    return f.c1[o] < 64 && ((set_mask >> f.c1[o]) & 1) != 0;
  });
  const auto want_less =
      OracleRefine(f, [&](uint64_t o) { return f.a[o] < f.b[o]; });
  uint64_t want_sum = 0;
  for (uint64_t id : f.ids) {
    want_sum += static_cast<uint64_t>(f.a[id - f.base]) * f.b[id - f.base];
  }
  // Grouped aggregate: one histogram, stopping at the first bad code.
  const size_t stride = static_cast<size_t>(num_g1) * num_g2;
  std::vector<GroupCountSum> want_groups(stride);
  size_t want_fit = f.ids.size();
  for (size_t i = 0; i < f.ids.size(); ++i) {
    const uint64_t o = f.ids[i] - f.base;
    if (f.c1[o] >= num_g1 || f.c2[o] >= num_g2) {
      want_fit = i;
      break;
    }
    GroupCountSum& g = want_groups[f.c1[o] * num_g2 + f.c2[o]];
    ++g.count;
    g.sum += f.a[o];
  }

  for (SimdLevel level : kLevels) {
    const GatherKernels& g = PickGatherKernels(level);
    const std::string at = std::string(SimdLevelToString(level)) + " " +
                           what + " n=" + std::to_string(f.n) +
                           " m=" + std::to_string(f.ids.size());
    EXPECT_EQ(RunRefine(f,
                        [&](const uint64_t* in, size_t m, uint64_t* out) {
                          return g.u32_range(f.a.data(), f.base, f.n, in, m,
                                             lo, hi, out);
                        }),
              want_u32)
        << at << " u32_range";
    EXPECT_EQ(RunRefine(f,
                        [&](const uint64_t* in, size_t m, uint64_t* out) {
                          return g.u8_range(f.c1.data(), f.base, f.n, in, m,
                                            lo8, hi8, out);
                        }),
              want_u8)
        << at << " u8_range";
    EXPECT_EQ(RunRefine(f,
                        [&](const uint64_t* in, size_t m, uint64_t* out) {
                          return g.u8_in_set(f.c1.data(), f.base, f.n, in,
                                             m, set_mask, out);
                        }),
              want_set)
        << at << " u8_in_set";
    EXPECT_EQ(RunRefine(f,
                        [&](const uint64_t* in, size_t m, uint64_t* out) {
                          return g.u32_less(f.a.data(), f.b.data(), f.base,
                                            f.n, in, m, out);
                        }),
              want_less)
        << at << " u32_less";

    GuardedArray<uint64_t> in(f.ids.size());
    std::copy(f.ids.begin(), f.ids.end(), in.data());
    EXPECT_EQ(g.sum_product(f.a.data(), f.b.data(), f.base, f.n, in.data(),
                            f.ids.size()),
              want_sum)
        << at << " sum_product";

    std::vector<GroupCountSum> hist(kGroupCopies * stride);
    const size_t fit =
        g.group_sum2(f.a.data(), f.c1.data(), f.c2.data(), f.base, f.n,
                     in.data(), f.ids.size(), num_g1, num_g2, hist.data(),
                     stride);
    EXPECT_EQ(fit, want_fit) << at << " group_sum2 stop";
    for (size_t grp = 0; grp < stride; ++grp) {
      GroupCountSum merged;
      for (int c = 0; c < kGroupCopies; ++c) {
        merged.count += hist[c * stride + grp].count;
        merged.sum += hist[c * stride + grp].sum;
      }
      EXPECT_EQ(merged.count, want_groups[grp].count)
          << at << " group " << grp;
      EXPECT_EQ(merged.sum, want_groups[grp].sum) << at << " group " << grp;
    }
  }
}

TEST(GatherKernelPropertyTest, RandomRunsMatchOracle) {
  Xoshiro256 rng(31337);
  const double densities[] = {0.01, 0.3, 0.9, 1.0};
  for (int round = 0; round < 24; ++round) {
    const size_t n = 1 + rng.NextBounded(20000);
    const uint64_t base = (1ull << 32) + rng.NextBounded(1 << 20);
    RunFixture f(rng, n, base, densities[round % 4], 1000, 8);
    const uint32_t x = static_cast<uint32_t>(rng.NextBounded(1000));
    const uint32_t y = static_cast<uint32_t>(rng.NextBounded(1000));
    uint32_t lo = std::min(x, y);
    uint32_t hi = std::max(x, y);
    if (round % 3 == 1) std::swap(lo, hi);  // empty
    if (round % 3 == 2) hi = lo;
    ExpectGatherKernelsMatch(f, lo, hi, rng.Next(), 4, 2,
                             "round " + std::to_string(round));
  }
}

TEST(GatherKernelPropertyTest, EveryTailLengthAndRunEnd) {
  // Dense id lists of every length mod 16 over short runs, so the
  // vector loops' remainders and the u8 end-of-run ids are all hit.
  Xoshiro256 rng(5);
  for (size_t n = 1; n <= 40; ++n) {
    RunFixture f(rng, n, 1ull << 40, 1.0, 16, 4);
    ExpectGatherKernelsMatch(f, 3, 9, 0x5555, 2, 2,
                             "dense n=" + std::to_string(n));
    RunFixture g(rng, n, 0, 0.5, 16, 4);
    ExpectGatherKernelsMatch(g, 0, 15, ~0ull, 4, 4,
                             "half n=" + std::to_string(n));
  }
}

TEST(GatherKernelPropertyTest, FullRangeAndWideCodes) {
  Xoshiro256 rng(8);
  // u8 codes up to 255: codes >= 64 are never in a 64-bit set, and every
  // group code is out of range for small group counts.
  RunFixture f(rng, 5000, 99, 0.5, std::numeric_limits<uint32_t>::max(),
               256);
  ExpectGatherKernelsMatch(f, 0, std::numeric_limits<uint32_t>::max(),
                           ~0ull, 3, 2, "full range");
  ExpectGatherKernelsMatch(f, 0x80000000u, 0xffffffffu, 1ull << 63, 255,
                           255, "top half");
}

TEST(GatherKernelPropertyTest, GroupSumStopsAtFirstBadCode) {
  Xoshiro256 rng(12);
  RunFixture f(rng, 3000, 7, 1.0, 100, 3);
  // Plant one out-of-range code in the middle of a vector block.
  const size_t bad = 1234;
  f.c2[bad] = 200;
  ExpectGatherKernelsMatch(f, 10, 20, 0x6, 3, 3, "planted");
}

// The bitmap refinement of a fused join's probe. The run of keys and
// the bitmap's words both end at a guard page: a key at or past the
// domain that read its word, with a domain that is a multiple of 64,
// would fault. Keys 0, domain - 1, domain and 0xffffffff are planted
// throughout, including the run's last rows.
TEST(GatherKernelPropertyTest, BitmapTestMatchesOracle) {
  Xoshiro256 rng(64);
  const double densities[] = {0.05, 0.5, 1.0};
  for (uint32_t domain : {0u, 1u, 37u, 640u, 100003u}) {
    const size_t words = (static_cast<size_t>(domain) + 63) / 64;
    GuardedArray<uint64_t> bitmap(words);
    for (size_t w = 0; w < words; ++w) bitmap[w] = rng.Next();
    const uint32_t edges[] = {0u, domain - 1, domain, 0xffffffffu};
    for (double density : densities) {
      const size_t n = 1 + rng.NextBounded(5000);
      RunFixture f(rng, n, (1ull << 34) + rng.NextBounded(100), density,
                   domain + 64, 4);
      for (size_t i = 0; i < n; i += 1 + rng.NextBounded(8)) {
        f.a[i] = edges[rng.NextBounded(4)];
      }
      f.a[n - 1] = edges[rng.NextBounded(4)];
      const auto want = OracleRefine(f, [&](uint64_t o) {
        const uint32_t key = f.a[o];
        return key < domain && ((bitmap[key / 64] >> (key % 64)) & 1) != 0;
      });
      for (SimdLevel level : kLevels) {
        const GatherKernels& g = PickGatherKernels(level);
        EXPECT_EQ(RunRefine(f,
                            [&](const uint64_t* in, size_t m, uint64_t* out) {
                              return g.u32_in_bitmap(f.a.data(), f.base, f.n,
                                                     in, m, bitmap.data(),
                                                     domain, out);
                            }),
                  want)
            << SimdLevelToString(level) << " domain=" << domain
            << " n=" << n << " m=" << f.ids.size();
      }
    }
  }
}

TEST(GatherKernelPropertyTest, EmptyIdListTouchesNothing) {
  GuardedArray<uint32_t> col(0);
  GuardedArray<uint8_t> codes(0);
  for (SimdLevel level : kLevels) {
    const GatherKernels& g = PickGatherKernels(level);
    EXPECT_EQ(g.u32_range(col.data(), 0, 0, nullptr, 0, 0, 1, nullptr), 0u);
    EXPECT_EQ(g.u32_in_bitmap(col.data(), 0, 0, nullptr, 0, nullptr, 0,
                              nullptr),
              0u);
    EXPECT_EQ(g.u8_range(codes.data(), 0, 0, nullptr, 0, 0, 1, nullptr), 0u);
    EXPECT_EQ(g.sum_product(col.data(), col.data(), 0, 0, nullptr, 0), 0u);
  }
}

}  // namespace
}  // namespace sgxb::scan
