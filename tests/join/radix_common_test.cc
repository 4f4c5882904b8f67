#include "join/radix_common.h"

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "join/join_common.h"

namespace sgxb::join {
namespace {

std::vector<Tuple> MakeTuples(size_t n, uint64_t seed = 1,
                              uint32_t key_domain = 0) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i].key = key_domain == 0
                      ? static_cast<uint32_t>(rng.Next())
                      : static_cast<uint32_t>(rng.NextBounded(key_domain));
    data[i].payload = static_cast<uint32_t>(i);
  }
  return data;
}

// A kernel parameter that prints as its name. A bare function pointer
// prints as its address, which moves with every run under ASLR, and
// gtest_discover_tests builds the ctest names from the printed
// parameters, so those names would change with every build.
template <typename Kernel>
struct NamedKernel {
  const char* name;
  Kernel fn;
};

template <typename Kernel>
void PrintTo(const NamedKernel<Kernel>& kernel, std::ostream* os) {
  *os << kernel.name;
}

// All histogram kernels must agree with a trivially correct count.
class HistogramKernelTest
    : public ::testing::TestWithParam<
          std::tuple<NamedKernel<HistogramKernel>, size_t, int>> {};

TEST_P(HistogramKernelTest, MatchesOracle) {
  auto [named, n, bits] = GetParam();
  const HistogramKernel kernel = named.fn;
  const uint32_t fanout = 1u << bits;
  const uint32_t mask = fanout - 1;
  auto data = MakeTuples(n);

  std::vector<uint32_t> hist(fanout, 0);
  kernel(data.data(), n, mask, 0, hist.data());

  std::vector<uint32_t> expected(fanout, 0);
  for (const Tuple& t : data) ++expected[t.key & mask];
  EXPECT_EQ(hist, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, HistogramKernelTest,
    ::testing::Combine(
        ::testing::Values(
            NamedKernel<HistogramKernel>{"Reference", &HistogramReference},
            NamedKernel<HistogramKernel>{"Unrolled", &HistogramUnrolled},
            NamedKernel<HistogramKernel>{"Simd", &HistogramSimd}),
        ::testing::Values<size_t>(0, 1, 7, 8, 15, 16, 1000, 65536),
        ::testing::Values(1, 7, 12)));

TEST(HistogramKernelTest, ShiftedRadixBits) {
  auto data = MakeTuples(10000, 2);
  const uint32_t bits = 6, shift = 7;
  const uint32_t mask = ((1u << bits) - 1) << shift;
  std::vector<uint32_t> ref(1u << bits, 0), unrolled(1u << bits, 0),
      simd(1u << bits, 0);
  HistogramReference(data.data(), data.size(), mask, shift, ref.data());
  HistogramUnrolled(data.data(), data.size(), mask, shift,
                    unrolled.data());
  HistogramSimd(data.data(), data.size(), mask, shift, simd.data());
  EXPECT_EQ(ref, unrolled);
  EXPECT_EQ(ref, simd);
}

class ScatterKernelTest
    : public ::testing::TestWithParam<NamedKernel<ScatterKernel>> {};

TEST_P(ScatterKernelTest, PartitionsCorrectly) {
  ScatterKernel scatter = GetParam().fn;
  const int bits = 5;
  const uint32_t fanout = 1u << bits;
  const uint32_t mask = fanout - 1;
  auto data = MakeTuples(20000, 3);

  // Offsets from a histogram prefix sum.
  std::vector<uint32_t> hist(fanout, 0);
  HistogramReference(data.data(), data.size(), mask, 0, hist.data());
  std::vector<uint64_t> offsets(fanout);
  std::vector<uint64_t> bounds(fanout + 1);
  uint64_t sum = 0;
  for (uint32_t p = 0; p < fanout; ++p) {
    bounds[p] = sum;
    offsets[p] = sum;
    sum += hist[p];
  }
  bounds[fanout] = sum;

  std::vector<Tuple> out(data.size());
  scatter(data.data(), data.size(), mask, 0, offsets.data(), out.data());

  // Every tuple of partition p must have radix p; stability within a
  // partition preserves input order (payloads increase).
  for (uint32_t p = 0; p < fanout; ++p) {
    uint32_t prev_payload = 0;
    bool first = true;
    for (uint64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      EXPECT_EQ(out[i].key & mask, p);
      if (!first) {
        EXPECT_GT(out[i].payload, prev_payload);
      }
      prev_payload = out[i].payload;
      first = false;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ScatterKernelTest,
    ::testing::Values(
        NamedKernel<ScatterKernel>{"Reference", &ScatterReference},
        NamedKernel<ScatterKernel>{"Unrolled", &ScatterUnrolled}));

TEST(SoftwareBufferedScatterTest, MatchesReferenceScatter) {
  for (int bits : {1, 4, 8}) {
    const uint32_t fanout = 1u << bits;
    const uint32_t mask = fanout - 1;
    auto data = MakeTuples(10000 + bits, 7);

    std::vector<uint32_t> hist(fanout, 0);
    HistogramReference(data.data(), data.size(), mask, 0, hist.data());
    std::vector<uint64_t> off_ref(fanout), off_buf(fanout);
    uint64_t sum = 0;
    for (uint32_t p = 0; p < fanout; ++p) {
      off_ref[p] = sum;
      off_buf[p] = sum;
      sum += hist[p];
    }

    std::vector<Tuple> out_ref(data.size()), out_buf(data.size());
    ScatterReference(data.data(), data.size(), mask, 0, off_ref.data(),
                     out_ref.data());
    ScatterBufferScratch scratch;
    ASSERT_TRUE(scratch.Reserve(bits).ok());
    ScatterSoftwareBuffered(data.data(), data.size(), mask, 0,
                            off_buf.data(), out_buf.data(), &scratch);

    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(out_buf[i].key, out_ref[i].key) << "bits " << bits << " i "
                                                << i;
      ASSERT_EQ(out_buf[i].payload, out_ref[i].payload);
    }
    // Final offsets must agree too.
    EXPECT_EQ(off_ref, off_buf);
  }
}

TEST(SoftwareBufferedScatterTest, ScratchReusableAcrossFanouts) {
  ScatterBufferScratch scratch;
  for (int bits : {6, 3, 8}) {
    ASSERT_TRUE(scratch.Reserve(bits).ok());
    const uint32_t mask = (1u << bits) - 1;
    auto data = MakeTuples(777, bits);
    std::vector<uint32_t> hist(1u << bits, 0);
    HistogramReference(data.data(), data.size(), mask, 0, hist.data());
    std::vector<uint64_t> offsets(1u << bits);
    uint64_t sum = 0;
    for (uint32_t p = 0; p < (1u << bits); ++p) {
      offsets[p] = sum;
      sum += hist[p];
    }
    std::vector<Tuple> out(data.size());
    ScatterSoftwareBuffered(data.data(), data.size(), mask, 0,
                            offsets.data(), out.data(), &scratch);
    // Partition property: radix values are non-decreasing in output.
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].key & mask, out[i].key & mask);
    }
  }
}

TEST(KernelPickerTest, FlavorsMapToKernels) {
  EXPECT_EQ(PickHistogramKernel(KernelFlavor::kReference),
            &HistogramReference);
  EXPECT_EQ(PickHistogramKernel(KernelFlavor::kUnrolledReordered),
            &HistogramUnrolled);
  EXPECT_EQ(PickScatterKernel(KernelFlavor::kReference),
            &ScatterReference);
  EXPECT_EQ(PickScatterKernel(KernelFlavor::kUnrolledReordered),
            &ScatterUnrolled);
}

class InCacheJoinTest : public ::testing::TestWithParam<KernelFlavor> {};

TEST_P(InCacheJoinTest, CountsMatchesLikeAnOracle) {
  auto build = MakeTuples(500, 5, /*key_domain=*/200);
  auto probe = MakeTuples(3000, 6, /*key_domain=*/300);

  uint64_t expected = 0;
  for (const Tuple& p : probe) {
    for (const Tuple& b : build) expected += b.key == p.key;
  }

  InCacheJoinScratch scratch;
  uint64_t matches =
      InCachePartitionJoin(build.data(), build.size(), probe.data(),
                           probe.size(), GetParam(), &scratch);
  EXPECT_EQ(matches, expected);
}

TEST_P(InCacheJoinTest, EmitsEveryMatch) {
  auto build = MakeTuples(100, 8, 50);
  auto probe = MakeTuples(400, 9, 60);
  InCacheJoinScratch scratch;

  struct Ctx {
    uint64_t emitted = 0;
    uint64_t key_mismatches = 0;
  } ctx;
  auto emit = +[](void* vctx, const Tuple& b, const Tuple& p) {
    auto* c = static_cast<Ctx*>(vctx);
    ++c->emitted;
    c->key_mismatches += b.key != p.key;
  };
  uint64_t matches =
      InCachePartitionJoin(build.data(), build.size(), probe.data(),
                           probe.size(), GetParam(), &scratch, emit, &ctx);
  EXPECT_EQ(ctx.emitted, matches);
  EXPECT_EQ(ctx.key_mismatches, 0u);
  EXPECT_GT(matches, 0u);
}

TEST_P(InCacheJoinTest, EmptySidesYieldZero) {
  auto data = MakeTuples(10);
  InCacheJoinScratch scratch;
  EXPECT_EQ(InCachePartitionJoin(nullptr, 0, data.data(), data.size(),
                                 GetParam(), &scratch),
            0u);
  EXPECT_EQ(InCachePartitionJoin(data.data(), data.size(), nullptr, 0,
                                 GetParam(), &scratch),
            0u);
}

TEST_P(InCacheJoinTest, ScratchIsReusableAcrossPartitions) {
  InCacheJoinScratch scratch;
  for (int round = 0; round < 5; ++round) {
    auto build = MakeTuples(50 + round * 100, 10 + round, 64);
    auto probe = MakeTuples(200, 20 + round, 64);
    uint64_t expected = 0;
    for (const Tuple& p : probe) {
      for (const Tuple& b : build) expected += b.key == p.key;
    }
    EXPECT_EQ(InCachePartitionJoin(build.data(), build.size(),
                                   probe.data(), probe.size(), GetParam(),
                                   &scratch),
              expected)
        << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, InCacheJoinTest,
                         ::testing::Values(
                             KernelFlavor::kReference,
                             KernelFlavor::kUnrolledReordered));

TEST(ProfileTest, HistogramProfileReflectsFlavor) {
  auto ref = HistogramProfile(1000, 7, KernelFlavor::kReference);
  auto opt = HistogramProfile(1000, 7, KernelFlavor::kUnrolledReordered);
  EXPECT_EQ(ref.ilp, perf::IlpClass::kReferenceLoop);
  EXPECT_EQ(opt.ilp, perf::IlpClass::kUnrolledReordered);
  EXPECT_EQ(ref.seq_read_bytes, 8000u);
  EXPECT_EQ(ref.rand_write_working_set, (1u << 7) * sizeof(uint32_t));
}

}  // namespace
}  // namespace sgxb::join
