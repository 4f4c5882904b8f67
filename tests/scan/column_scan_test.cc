#include "scan/column_scan.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "sgx/transition.h"

namespace sgxb::scan {
namespace {

Column<uint8_t> MakeColumn(size_t n, uint64_t seed = 5) {
  auto col = Column<uint8_t>::Allocate(n, MemoryRegion::kUntrusted).value();
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    col[i] = static_cast<uint8_t>(rng.Next());
  }
  return col;
}

uint64_t Oracle(const Column<uint8_t>& col, uint8_t lo, uint8_t hi) {
  uint64_t count = 0;
  for (size_t i = 0; i < col.num_values(); ++i) {
    count += col[i] >= lo && col[i] <= hi;
  }
  return count;
}

class ColumnScanThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(ColumnScanThreadsTest, BitVectorScanCorrectAcrossThreadCounts) {
  const size_t n = 100001;  // deliberately not a multiple of 64
  Column<uint8_t> col = MakeColumn(n);
  auto bv = BitVector::Allocate(n, MemoryRegion::kUntrusted).value();

  ScanConfig cfg;
  cfg.lo = 32;
  cfg.hi = 200;
  cfg.num_threads = GetParam();
  auto result = RunBitVectorScan(col, &bv, cfg);
  ASSERT_TRUE(result.ok());
  uint64_t expected = Oracle(col, 32, 200);
  EXPECT_EQ(result.value().matches, expected);
  EXPECT_EQ(bv.CountOnes(), expected);
  // Spot-check bit positions.
  for (size_t i = 0; i < n; i += 997) {
    EXPECT_EQ(bv.Get(i), col[i] >= 32 && col[i] <= 200) << i;
  }
}

TEST_P(ColumnScanThreadsTest, RowIdScanCorrectAcrossThreadCounts) {
  const size_t n = 64000;
  Column<uint8_t> col = MakeColumn(n, 11);
  std::vector<uint64_t> ids(n);
  uint64_t count = 0;

  ScanConfig cfg;
  cfg.lo = 100;
  cfg.hi = 150;
  cfg.num_threads = GetParam();
  auto result = RunRowIdScan(col, ids.data(), &count, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(count, Oracle(col, 100, 150));
  EXPECT_EQ(result.value().matches, count);
  // Ids must be valid, in-range, strictly increasing within the result.
  for (uint64_t k = 0; k < count; ++k) {
    ASSERT_LT(ids[k], n);
    EXPECT_TRUE(col[ids[k]] >= 100 && col[ids[k]] <= 150);
    if (k > 0) {
      EXPECT_LT(ids[k - 1], ids[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ColumnScanThreadsTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ColumnScanTest, RepetitionsProduceSameResult) {
  Column<uint8_t> col = MakeColumn(5000);
  auto bv = BitVector::Allocate(5000, MemoryRegion::kUntrusted).value();
  ScanConfig cfg;
  cfg.lo = 0;
  cfg.hi = 127;
  cfg.repetitions = 5;
  auto result = RunBitVectorScan(col, &bv, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, Oracle(col, 0, 127));
  EXPECT_EQ(result.value().profile.seq_read_bytes, 5000u * 5);
}

TEST(ColumnScanTest, EnclaveSettingEntersEnclave) {
  // The scan is morsel-driven (~256 KiB morsels): a tiny column is a
  // single morsel, so only one lane runs and only one thread pays an
  // enclave transition — extra requested threads no longer enter just to
  // find no work.
  sgx::ResetTransitionStats();
  Column<uint8_t> col = MakeColumn(1000);
  auto bv = BitVector::Allocate(1000, MemoryRegion::kUntrusted).value();
  ScanConfig cfg;
  cfg.setting = ExecutionSetting::kSgxDataInEnclave;
  cfg.num_threads = 2;
  ASSERT_TRUE(RunBitVectorScan(col, &bv, cfg).ok());
  EXPECT_EQ(sgx::GetTransitionStats().ecalls, 1u);  // one morsel, one lane

  // With at least one morsel per lane, every lane enters exactly once (not
  // once per morsel): one ECall per thread, as on hardware.
  constexpr size_t kBig = 600 * 1024;  // > 2 morsels
  sgx::ResetTransitionStats();
  Column<uint8_t> big = MakeColumn(kBig);
  auto big_bv = BitVector::Allocate(kBig, MemoryRegion::kUntrusted).value();
  ASSERT_TRUE(RunBitVectorScan(big, &big_bv, cfg).ok());
  EXPECT_EQ(sgx::GetTransitionStats().ecalls, 2u);  // one per lane
}

TEST(ColumnScanTest, RejectsInvalidConfig) {
  Column<uint8_t> col = MakeColumn(100);
  auto bv = BitVector::Allocate(100, MemoryRegion::kUntrusted).value();
  ScanConfig cfg;
  cfg.num_threads = 0;
  EXPECT_FALSE(RunBitVectorScan(col, &bv, cfg).ok());
  cfg.num_threads = 1;
  cfg.repetitions = 0;
  EXPECT_FALSE(RunBitVectorScan(col, &bv, cfg).ok());
  auto small = BitVector::Allocate(10, MemoryRegion::kUntrusted).value();
  ScanConfig ok_cfg;
  EXPECT_FALSE(RunBitVectorScan(col, &small, ok_cfg).ok());
}

TEST(ColumnScanTest, SelectivityControlsWriteVolume) {
  // The Fig. 14 mechanism: row-id output writes 8 bytes per match, so the
  // profile's write volume must track selectivity.
  Column<uint8_t> col = MakeColumn(10000);
  std::vector<uint64_t> ids(10000);
  uint64_t count = 0;
  ScanConfig narrow;
  narrow.lo = 0;
  narrow.hi = 25;  // ~10%
  auto r1 = RunRowIdScan(col, ids.data(), &count, narrow).value();
  ScanConfig wide;
  wide.lo = 0;
  wide.hi = 255;  // 100%
  auto r2 = RunRowIdScan(col, ids.data(), &count, wide).value();
  EXPECT_GT(r2.profile.seq_write_bytes, 7 * r1.profile.seq_write_bytes);
  EXPECT_EQ(r2.profile.seq_write_bytes, 10000u * 8);
}

}  // namespace
}  // namespace sgxb::scan
