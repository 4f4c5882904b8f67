#include "scan/packed_column.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace sgxb::scan {
namespace {

Column<uint32_t> MakeColumn(size_t n, uint32_t limit, uint64_t seed = 5) {
  auto col =
      Column<uint32_t>::Allocate(n, MemoryRegion::kUntrusted).value();
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    col[i] = static_cast<uint32_t>(rng.NextBounded(limit + 1));
  }
  return col;
}

TEST(PackedColumnTest, RejectsBadWidths) {
  auto col = MakeColumn(10, 100);
  EXPECT_FALSE(PackedColumn::Pack(col, 0).ok());
  EXPECT_FALSE(PackedColumn::Pack(col, 32).ok());
}

TEST(PackedColumnTest, RejectsOverflowingValues) {
  auto col = MakeColumn(10, 100);
  col[5] = 1u << 10;
  auto r = PackedColumn::Pack(col, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("row 5"), std::string::npos);
}

class PackedWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedWidthTest, PackRoundTripsEveryValue) {
  const int w = GetParam();
  const uint32_t limit =
      w == 31 ? 0x7fffffffu : (1u << w) - 1;
  auto col = MakeColumn(4999, limit, w);
  PackedColumn packed = PackedColumn::Pack(col, w).value();
  EXPECT_EQ(packed.num_values(), col.num_values());
  EXPECT_EQ(packed.bit_width(), w);
  for (size_t i = 0; i < col.num_values(); ++i) {
    ASSERT_EQ(packed.Get(i), col[i]) << "w=" << w << " i=" << i;
  }
  // Compression: w+1 bits per value vs 32.
  if (w <= 14) {
    EXPECT_GT(packed.CompressionRatio(), 1.9);
  }
}

TEST_P(PackedWidthTest, ParallelScanMatchesScalarOracle) {
  const int w = GetParam();
  const uint32_t limit = w == 31 ? 0x7fffffffu : (1u << w) - 1;
  auto col = MakeColumn(10007, limit, 100 + w);
  PackedColumn packed = PackedColumn::Pack(col, w).value();

  Xoshiro256 rng(w);
  for (int round = 0; round < 5; ++round) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(limit + 1));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(limit + 1));
    uint32_t lo = std::min(a, b), hi = std::max(a, b);

    auto bv_fast =
        BitVector::Allocate(col.num_values(), MemoryRegion::kUntrusted)
            .value();
    auto bv_ref =
        BitVector::Allocate(col.num_values(), MemoryRegion::kUntrusted)
            .value();
    uint64_t fast = PackedScan(packed, lo, hi, &bv_fast);
    uint64_t ref = PackedScanScalar(packed, lo, hi, &bv_ref);
    ASSERT_EQ(fast, ref) << "w=" << w << " [" << lo << "," << hi << "]";
    for (size_t word = 0; word < bv_ref.num_words(); ++word) {
      ASSERT_EQ(bv_fast.words()[word], bv_ref.words()[word])
          << "w=" << w << " word " << word;
    }
    // And against the unpacked truth.
    uint64_t expected = 0;
    for (size_t i = 0; i < col.num_values(); ++i) {
      expected += col[i] >= lo && col[i] <= hi;
    }
    ASSERT_EQ(fast, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedWidthTest,
                         ::testing::Values(1, 2, 3, 7, 8, 13, 15, 21, 31));

TEST(PackedScanTest, EmptyAndFullPredicates) {
  auto col = MakeColumn(1000, 255);
  PackedColumn packed = PackedColumn::Pack(col, 8).value();
  auto bv =
      BitVector::Allocate(1000, MemoryRegion::kUntrusted).value();
  EXPECT_EQ(PackedScan(packed, 0, 255, &bv), 1000u);
  EXPECT_EQ(bv.CountOnes(), 1000u);
  EXPECT_EQ(PackedScan(packed, 200, 100, &bv), 0u);  // lo > hi
}

TEST(PackedScanTest, SingleValueColumn) {
  auto col = Column<uint32_t>::Allocate(1, MemoryRegion::kUntrusted)
                 .value();
  col[0] = 42;
  PackedColumn packed = PackedColumn::Pack(col, 7).value();
  auto bv = BitVector::Allocate(1, MemoryRegion::kUntrusted).value();
  EXPECT_EQ(PackedScan(packed, 42, 42, &bv), 1u);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_EQ(PackedScan(packed, 43, 50, &bv), 0u);
}

TEST(FrameOfReferenceTest, PicksWidthFromRangeNotMagnitude) {
  // Date-like values: absolute magnitude needs 23 bits, range needs 12.
  auto col = Column<uint32_t>::Allocate(5000, MemoryRegion::kUntrusted)
                 .value();
  Xoshiro256 rng(17);
  for (size_t i = 0; i < col.num_values(); ++i) {
    col[i] = 8035200u + static_cast<uint32_t>(rng.NextBounded(2557));
  }
  col[0] = 8035200u;     // pin the frame to a known minimum
  col[1] = 8035200u + 2556u;  // ...and the range to a known maximum
  PackedColumn packed = PackedColumn::PackFrameOfReference(col).value();
  EXPECT_EQ(packed.bit_width(), 12);
  EXPECT_EQ(packed.frame_min(), 8035200u);
  for (size_t i = 0; i < col.num_values(); ++i) {
    ASSERT_EQ(packed.Get(i), col[i]) << i;
  }
  // 13-bit fields, 4 per word: 16 effective bits per value vs 32 raw.
  EXPECT_GT(packed.CompressionRatio(), 1.9);
}

TEST(FrameOfReferenceTest, ConstantColumnPacksToOneBit) {
  auto col = Column<uint32_t>::Allocate(100, MemoryRegion::kUntrusted)
                 .value();
  for (size_t i = 0; i < col.num_values(); ++i) col[i] = 123456789u;
  PackedColumn packed = PackedColumn::PackFrameOfReference(col).value();
  EXPECT_EQ(packed.bit_width(), 1);
  for (size_t i = 0; i < col.num_values(); ++i) {
    ASSERT_EQ(packed.Get(i), 123456789u);
  }
}

TEST(FrameOfReferenceTest, ScanMatchesScalarOracleInAbsoluteDomain) {
  const uint32_t base = 19980101u;
  auto col = Column<uint32_t>::Allocate(10007, MemoryRegion::kUntrusted)
                 .value();
  Xoshiro256 rng(23);
  for (size_t i = 0; i < col.num_values(); ++i) {
    col[i] = base + static_cast<uint32_t>(rng.NextBounded(5000));
  }
  PackedColumn packed = PackedColumn::PackFrameOfReference(col).value();

  struct Case {
    uint32_t lo, hi;
  };
  const Case cases[] = {
      {base + 100, base + 2000},  // interior range
      {0, base - 1},              // entirely below the frame
      {base + 5000, 0xffffffffu},  // hi above the frame, clamped
      {0, 0xffffffffu},            // everything
      {base + 777, base + 777},    // point query
  };
  for (const Case& c : cases) {
    auto bv_fast =
        BitVector::Allocate(col.num_values(), MemoryRegion::kUntrusted)
            .value();
    auto bv_ref =
        BitVector::Allocate(col.num_values(), MemoryRegion::kUntrusted)
            .value();
    uint64_t fast = PackedScan(packed, c.lo, c.hi, &bv_fast);
    uint64_t ref = PackedScanScalar(packed, c.lo, c.hi, &bv_ref);
    ASSERT_EQ(fast, ref) << "[" << c.lo << "," << c.hi << "]";
    for (size_t word = 0; word < bv_ref.num_words(); ++word) {
      ASSERT_EQ(bv_fast.words()[word], bv_ref.words()[word]);
    }
    uint64_t expected = 0;
    for (size_t i = 0; i < col.num_values(); ++i) {
      expected += col[i] >= c.lo && col[i] <= c.hi;
    }
    ASSERT_EQ(fast, expected);
  }
}

TEST(FrameOfReferenceTest, RawPointerOverloadMatchesColumnOverload) {
  auto col = MakeColumn(997, (1u << 16) - 1, 31);
  PackedColumn a = PackedColumn::PackFrameOfReference(col).value();
  PackedColumn b =
      PackedColumn::PackFrameOfReference(col.data(), col.num_values())
          .value();
  ASSERT_EQ(a.num_values(), b.num_values());
  ASSERT_EQ(a.bit_width(), b.bit_width());
  ASSERT_EQ(a.frame_min(), b.frame_min());
  for (size_t i = 0; i < a.num_values(); ++i) {
    ASSERT_EQ(a.Get(i), b.Get(i));
  }
}

TEST(PackedScanTest, TailWordHandled) {
  // 13-bit fields: 4 per word; 10 values = 2 full words + tail of 2.
  auto col = MakeColumn(10, (1u << 13) - 1, 3);
  PackedColumn packed = PackedColumn::Pack(col, 13).value();
  auto bv = BitVector::Allocate(10, MemoryRegion::kUntrusted).value();
  uint64_t count = PackedScan(packed, 0, (1u << 13) - 1, &bv);
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(bv.CountOnes(), 10u);
}

}  // namespace
}  // namespace sgxb::scan
