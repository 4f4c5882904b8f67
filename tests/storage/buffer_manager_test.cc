#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/column_view.h"

namespace sgxb::storage {
namespace {

// A column of `n` u32 values with a date-like narrow range so spill
// images compress, value[i] derived from i so any partition mix-up is
// caught by value checks.
std::vector<uint32_t> MakeValues(size_t n) {
  std::vector<uint32_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = 8000000u + static_cast<uint32_t>(i % 1000);
  }
  return vals;
}

BufferManager::Config SmallPool(size_t buffer_bytes,
                                size_t partition_rows = 4096) {
  BufferManager::Config cfg;
  cfg.buffer_bytes = buffer_bytes;
  cfg.partition_rows = partition_rows;
  cfg.pin_wait_timeout_ms = 200;
  return cfg;
}

TEST(BufferManagerTest, PinReturnsRegisteredValues) {
  BufferManager bm(SmallPool(1 << 20));
  auto vals = MakeValues(10000);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();
  ASSERT_EQ(col->num_values(), vals.size());
  ASSERT_EQ(col->num_partitions(), 3u);  // 4096 + 4096 + 1808
  EXPECT_EQ(col->PartitionValues(2), 10000u - 2 * 4096u);

  for (size_t p = 0; p < col->num_partitions(); ++p) {
    const uint32_t* run = col->PinPartition(p).value();
    const size_t base = col->PartitionBegin(p);
    for (size_t i = 0; i < col->PartitionValues(p); ++i) {
      ASSERT_EQ(run[i], vals[base + i]) << "p=" << p << " i=" << i;
    }
    col->UnpinPartition(p);
  }
  EXPECT_EQ(bm.stats().partitions_registered, 3u);
  EXPECT_EQ(bm.stats().partitions_reloaded, 3u);  // all first-touch loads
}

TEST(BufferManagerTest, SmallPoolEvictsAndReloads) {
  // Pool holds ~2 decoded partitions (4096 * 4 = 16 KiB each); scanning
  // 8 partitions twice must evict and reload.
  BufferManager bm(SmallPool(36 << 10));
  auto vals = MakeValues(8 * 4096);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();

  for (int round = 0; round < 2; ++round) {
    for (size_t p = 0; p < col->num_partitions(); ++p) {
      const uint32_t* run = col->PinPartition(p).value();
      ASSERT_EQ(run[0], vals[col->PartitionBegin(p)]);
      col->UnpinPartition(p);
    }
  }
  BufferManagerStats s = bm.stats();
  EXPECT_GT(s.partitions_evicted, 0u);
  EXPECT_GT(s.partitions_reloaded, 8u);  // second round reloads
  EXPECT_GT(s.decrypt_bytes, 0u);
  EXPECT_LE(s.resident_bytes, 36u << 10);
}

TEST(BufferManagerTest, CompressionShrinksSpillImages) {
  auto vals = MakeValues(64 * 1024);

  BufferManager comp(SmallPool(1 << 20));
  comp.AddColumn("c", vals.data(), vals.size()).value();
  BufferManager::Config raw_cfg = SmallPool(1 << 20);
  raw_cfg.compress = false;
  BufferManager raw(raw_cfg);
  raw.AddColumn("c", vals.data(), vals.size()).value();

  EXPECT_EQ(raw.stats().spill_payload_bytes, vals.size() * sizeof(uint32_t));
  EXPECT_LT(comp.stats().spill_payload_bytes,
            raw.stats().spill_payload_bytes / 2);
  EXPECT_GT(comp.stats().CompressionRatio(), 2.0);
  EXPECT_EQ(comp.stats().logical_bytes, vals.size() * sizeof(uint32_t));
}

TEST(BufferManagerTest, PinnedPartitionIsNeverEvicted) {
  // Pool fits two partitions; hold a pin on partition 0 while sweeping
  // the rest — partition 0's data must stay valid throughout.
  BufferManager bm(SmallPool(36 << 10));
  auto vals = MakeValues(8 * 4096);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();

  const uint32_t* held = col->PinPartition(0).value();
  for (int round = 0; round < 3; ++round) {
    for (size_t p = 1; p < col->num_partitions(); ++p) {
      const uint32_t* run = col->PinPartition(p).value();
      ASSERT_EQ(run[0], vals[col->PartitionBegin(p)]);
      col->UnpinPartition(p);
    }
    // The held partition's memory is still the registered data.
    for (size_t i = 0; i < 4096; ++i) ASSERT_EQ(held[i], vals[i]);
  }
  EXPECT_GT(bm.stats().partitions_evicted, 0u);
  col->UnpinPartition(0);
}

TEST(BufferManagerTest, OverPinnedPoolFailsWithResourceExhausted) {
  // Pool fits one partition; pinning a second while the first is held
  // cannot succeed and must time out rather than hang.
  BufferManager bm(SmallPool(20 << 10));
  auto vals = MakeValues(4 * 4096);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();

  ASSERT_TRUE(col->PinPartition(0).ok());
  auto second = col->PinPartition(1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(bm.stats().pin_waits, 0u);
  col->UnpinPartition(0);

  // With the pin released the same partition loads fine.
  ASSERT_TRUE(col->PinPartition(1).ok());
  col->UnpinPartition(1);
}

TEST(BufferManagerTest, MultipleColumnsShareThePool) {
  BufferManager bm(SmallPool(64 << 10));
  auto a_vals = MakeValues(4 * 4096);
  std::vector<uint8_t> b_vals(4 * 4096);
  for (size_t i = 0; i < b_vals.size(); ++i) {
    b_vals[i] = static_cast<uint8_t>(i % 7);
  }
  PagedColumn<uint32_t>* a =
      bm.AddColumn("t.a", a_vals.data(), a_vals.size()).value();
  PagedColumn<uint8_t>* b =
      bm.AddColumn("t.b", b_vals.data(), b_vals.size()).value();

  for (size_t p = 0; p < a->num_partitions(); ++p) {
    const uint32_t* ra = a->PinPartition(p).value();
    const uint8_t* rb = b->PinPartition(p).value();
    const size_t base = a->PartitionBegin(p);
    for (size_t i = 0; i < a->PartitionValues(p); ++i) {
      ASSERT_EQ(ra[i], a_vals[base + i]);
      ASSERT_EQ(rb[i], b_vals[base + i]);
    }
    a->UnpinPartition(p);
    b->UnpinPartition(p);
  }
  EXPECT_EQ(bm.stats().partitions_registered, 8u);
}

TEST(BufferManagerTest, ForEachRunCoversArbitraryWindows) {
  BufferManager bm(SmallPool(1 << 20));
  auto vals = MakeValues(3 * 4096 + 17);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();
  ColumnView<uint32_t> view(col);

  Xoshiro256 rng(3);
  for (int round = 0; round < 20; ++round) {
    size_t b = rng.NextBounded(vals.size());
    size_t e = b + rng.NextBounded(vals.size() - b + 1);
    uint64_t sum = 0;
    ASSERT_TRUE(ForEachRun(view, b, e,
                           [&](const uint32_t* run, size_t base,
                               size_t n) {
                             for (size_t i = 0; i < n; ++i) {
                               ASSERT_EQ(run[i], vals[base + i]);
                               sum += run[i];
                             }
                           })
                    .ok());
    uint64_t expected = 0;
    for (size_t i = b; i < e; ++i) expected += vals[i];
    EXPECT_EQ(sum, expected) << "window [" << b << ", " << e << ")";
  }
}

TEST(BufferManagerTest, ColumnReaderRandomAccessMatchesSource) {
  BufferManager bm(SmallPool(36 << 10));
  auto vals = MakeValues(8 * 4096);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();
  ColumnReader<uint32_t> reader((ColumnView<uint32_t>(col)));

  Xoshiro256 rng(4);
  for (int i = 0; i < 20000; ++i) {
    const size_t idx = rng.NextBounded(vals.size());
    ASSERT_EQ(reader[idx], vals[idx]) << idx;
  }
  EXPECT_TRUE(reader.status().ok());
}

TEST(BufferManagerTest, PrefetchLoadsAheadOfThePin) {
  // Prefetch is an asynchronous hint, so wait for the worker to complete
  // the loads before pinning; the pins must then be hits (no further
  // demand reloads).
  BufferManager bm(SmallPool(256 << 10));
  auto vals = MakeValues(8 * 4096);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();

  for (size_t p = 0; p < 4; ++p) col->PrefetchPartition(p);
  for (int spin = 0; spin < 2000 && bm.stats().prefetch_loads < 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(bm.stats().prefetch_loads, 4u);

  for (size_t p = 0; p < 4; ++p) {
    const uint32_t* run = col->PinPartition(p).value();
    ASSERT_EQ(run[0], vals[col->PartitionBegin(p)]);
    col->UnpinPartition(p);
  }
  EXPECT_EQ(bm.stats().partitions_reloaded, 0u);

  // Prefetching an already-resident partition is a no-op.
  col->PrefetchPartition(0);
  EXPECT_EQ(bm.stats().prefetch_loads, 4u);
}

TEST(BufferManagerTest, CapacityWaiterSurvivesPinChurn) {
  // Regression test for pin-wait fairness under HTAP-style churn: two
  // threads overlap pins on partition 0 so its pin count almost never
  // reaches zero, while a third thread needs capacity for partition 1.
  // The waiter's deadline must refresh on every unpin (the pool is
  // moving, even though no eviction opportunity arose yet), so it
  // outlives a churn phase much longer than pin_wait_timeout_ms and
  // succeeds as soon as the churn drains. Before the fix the deadline
  // was fixed at entry and the waiter woke only when a pin count hit
  // zero, so this pattern timed out with a spurious ResourceExhausted.
  BufferManager::Config cfg = SmallPool(20 << 10);  // fits one partition
  cfg.pin_wait_timeout_ms = 100;
  cfg.prefetch = false;
  BufferManager bm(cfg);
  auto vals = MakeValues(2 * 4096);
  PagedColumn<uint32_t>* col =
      bm.AddColumn("t.c", vals.data(), vals.size()).value();
  ASSERT_EQ(col->num_partitions(), 2u);

  std::atomic<bool> stop{false};
  auto churn = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // A failed pin is legitimate once the waiter wins the pool; keep
      // churning rather than asserting.
      if (!col->PinPartition(0).ok()) continue;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      col->UnpinPartition(0);
    }
  };
  std::thread c1(churn);
  std::thread c2(churn);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Churn runs ~5x longer than the pin-wait timeout.
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop = true;
  });
  auto pinned = col->PinPartition(1);
  stopper.join();
  c1.join();
  c2.join();
  ASSERT_TRUE(pinned.ok()) << pinned.status().message();
  EXPECT_EQ(pinned.value()[0], vals[col->PartitionBegin(1)]);
  col->UnpinPartition(1);
  EXPECT_GT(bm.stats().pin_waits, 0u);
}

TEST(BufferManagerTest, ResidentViewsBypassTheManager) {
  // A ColumnView over plain memory must not touch any manager machinery.
  std::vector<uint32_t> vals = MakeValues(1000);
  ColumnView<uint32_t> view(vals.data(), vals.size());
  EXPECT_FALSE(view.paged());
  uint64_t sum = 0;
  ASSERT_TRUE(ForEachRun(view, 10, 900,
                         [&](const uint32_t* run, size_t base, size_t n) {
                           EXPECT_EQ(base, 10u);
                           EXPECT_EQ(n, 890u);
                           for (size_t i = 0; i < n; ++i) sum += run[i];
                         })
                  .ok());
  ColumnReader<uint32_t> reader(view);
  EXPECT_EQ(reader[0], vals[0]);
  EXPECT_EQ(reader[999], vals[999]);
  // Out-of-range on a resident view latches an error instead of reading
  // past the end.
  EXPECT_EQ(reader[1000], 0u);
  EXPECT_FALSE(reader.status().ok());
}

}  // namespace
}  // namespace sgxb::storage
