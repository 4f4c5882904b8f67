// Unit + equivalence coverage for the live-update HTAP subsystem
// (src/txn/, docs/htap.md): epoch pin/publish/reclaim mechanics, version
// visibility across chunk boundaries, the update feed, and the
// snapshot-isolation equivalence matrix — every catalog query at a pinned
// epoch must match a frozen-copy oracle, over resident and paged bases.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/random.h"
#include "plan/catalog.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "txn/epoch.h"
#include "txn/update_feed.h"
#include "txn/versioned_column.h"
#include "txn/versioned_db.h"

namespace sgxb::txn {
namespace {

const tpch::TpchDb& Db() {
  static const tpch::TpchDb db = [] {
    tpch::GenConfig cfg;
    cfg.scale_factor = 0.01;
    return tpch::Generate(cfg).value();
  }();
  return db;
}

// --- EpochRegistry -------------------------------------------------------

TEST(EpochRegistryTest, PinTracksCurrentEpoch) {
  EpochRegistry reg;
  EXPECT_EQ(reg.current(), 0u);
  EXPECT_EQ(reg.MinPinned(), EpochRegistry::kIdle);

  uint64_t e = ~0ull;
  const int slot = reg.Pin(&e);
  ASSERT_GE(slot, 0);
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(reg.MinPinned(), 0u);
  EXPECT_EQ(reg.active_snapshots(), 1);

  reg.Publish(1);
  EXPECT_EQ(reg.current(), 1u);
  EXPECT_EQ(reg.MinPinned(), 0u);  // old pin still gates reclamation

  uint64_t e2 = ~0ull;
  const int slot2 = reg.Pin(&e2);
  ASSERT_GE(slot2, 0);
  EXPECT_EQ(e2, 1u);

  reg.Unpin(slot);
  EXPECT_EQ(reg.MinPinned(), 1u);
  reg.Unpin(slot2);
  EXPECT_EQ(reg.MinPinned(), EpochRegistry::kIdle);
  EXPECT_EQ(reg.active_snapshots(), 0);
}

TEST(EpochRegistryTest, SlotsExhaustAndRecycle) {
  EpochRegistry reg;
  uint64_t e;
  std::vector<int> slots;
  for (int i = 0; i < EpochRegistry::kMaxSnapshots; ++i) {
    const int s = reg.Pin(&e);
    ASSERT_GE(s, 0);
    slots.push_back(s);
  }
  EXPECT_EQ(reg.Pin(&e), -1);  // full
  reg.Unpin(slots.back());
  EXPECT_GE(reg.Pin(&e), 0);  // freed slot is claimable again
}

TEST(EpochRegistryTest, SnapshotHandleReleasesOnDestruction) {
  EpochRegistry reg;
  reg.Publish(7);
  {
    SnapshotHandle h(&reg);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.epoch(), 7u);
    EXPECT_EQ(reg.MinPinned(), 7u);

    SnapshotHandle moved = std::move(h);
    EXPECT_TRUE(moved.ok());
    EXPECT_FALSE(h.ok());  // NOLINT(bugprone-use-after-move): tested
    EXPECT_EQ(reg.active_snapshots(), 1);
  }
  EXPECT_EQ(reg.MinPinned(), EpochRegistry::kIdle);
}

// --- VersionedColumn -----------------------------------------------------

// 20 rows, 8-row chunks (last chunk short): updates at chunk boundaries
// must resolve per chunk, with untouched chunks reading the base.
TEST(VersionedColumnTest, ChunkBoundaryVisibility) {
  std::vector<uint32_t> base(20);
  for (size_t i = 0; i < base.size(); ++i) base[i] = 1000 + i;
  VersionedColumn<uint32_t> col(
      storage::ColumnView<uint32_t>(base.data(), base.size()),
      /*chunk_rows=*/8, mem::SimulatedEnclave());

  RetiredVersion* retired = nullptr;
  RetiredVersion* retired2 = nullptr;
  ASSERT_TRUE(col.Apply(0, 11, /*epoch=*/1, &retired).ok());
  EXPECT_EQ(retired, nullptr);  // first version of chunk 0
  ASSERT_TRUE(col.Apply(7, 12, /*epoch=*/2, &retired).ok());
  ASSERT_NE(retired, nullptr);  // chunk 0 superseded
  EXPECT_EQ(retired->retire_epoch, 2u);
  ASSERT_TRUE(col.Apply(8, 13, /*epoch=*/3, &retired2).ok());
  EXPECT_EQ(retired2, nullptr);  // chunk 1's first version
  ASSERT_TRUE(col.Apply(19, 14, /*epoch=*/4, &retired2).ok());
  EXPECT_EQ(retired2, nullptr);  // short chunk 2's first version

  auto expect_at = [&](uint64_t epoch, std::vector<uint32_t> want) {
    // ForEachRun over the full range...
    std::vector<uint32_t> got(base.size(), 0);
    ASSERT_TRUE(storage::ForEachRun(
                    col.ViewAt(epoch), 0, base.size(),
                    [&](const uint32_t* run, size_t abs, size_t n) {
                      for (size_t i = 0; i < n; ++i) got[abs + i] = run[i];
                    })
                    .ok());
    EXPECT_EQ(got, want) << "ForEachRun at epoch " << epoch;
    // ...and ColumnReader random access, descending to stress re-caching.
    storage::ColumnReader<uint32_t> reader(col.ViewAt(epoch));
    for (size_t i = base.size(); i-- > 0;) {
      EXPECT_EQ(reader[i], want[i]) << "reader row " << i;
    }
    EXPECT_TRUE(reader.status().ok());
  };

  std::vector<uint32_t> at0 = base;  // epoch 0: nothing visible
  expect_at(0, at0);
  std::vector<uint32_t> at1 = base;
  at1[0] = 11;
  expect_at(1, at1);
  std::vector<uint32_t> at2 = at1;
  at2[7] = 12;
  expect_at(2, at2);
  std::vector<uint32_t> at4 = at2;
  at4[8] = 13;
  at4[19] = 14;
  expect_at(4, at4);

  // Reclaim the superseded epoch-1 version (no pinned readers remain at
  // epoch 1): epoch-2+ reads are unaffected, and the chain stays
  // consistent for the destructor.
  retired->Unlink();
  delete retired;
  expect_at(4, at4);
  expect_at(2, at2);
}

// --- VersionedTpchDb -----------------------------------------------------

TEST(VersionedDbTest, SnapshotsAreStableAndNewSnapshotsSeeCommits) {
  VersionedTpchDb vdb(Db());
  const uint32_t before = [&] {
    storage::ColumnReader<uint32_t> r(vdb.ViewAt(0).lineitem.l_quantity);
    return r[5];
  }();

  auto snap = vdb.OpenSnapshot().value();
  ASSERT_TRUE(vdb.Commit({UpdateColumn::kLQuantity, 5, before + 1}).ok());

  storage::ColumnReader<uint32_t> old_reader(snap.view().lineitem.l_quantity);
  EXPECT_EQ(old_reader[5], before) << "pinned snapshot must not move";

  auto snap2 = vdb.OpenSnapshot().value();
  EXPECT_GT(snap2.epoch(), snap.epoch());
  storage::ColumnReader<uint32_t> new_reader(
      snap2.view().lineitem.l_quantity);
  EXPECT_EQ(new_reader[5], before + 1);
}

TEST(VersionedDbTest, ReclamationGatedByPinnedSnapshot) {
  TxnOptions opts;
  opts.reclaim_on_commit = false;  // stage reclamation by hand
  VersionedTpchDb vdb(Db(), opts);

  ASSERT_TRUE(vdb.Commit({UpdateColumn::kLDiscount, 3, 1}).ok());
  {
    auto snap = vdb.OpenSnapshot().value();
    // Supersede the version the snapshot can still reach.
    ASSERT_TRUE(vdb.Commit({UpdateColumn::kLDiscount, 3, 2}).ok());
    EXPECT_EQ(vdb.stats().retired_pending, 1u);
    EXPECT_EQ(vdb.ReclaimQuiescent(), 0u) << "pinned snapshot gates reclaim";

    storage::ColumnReader<uint32_t> r(snap.view().lineitem.l_discount);
    EXPECT_EQ(r[3], 1u) << "snapshot reads the retired-but-live version";
  }
  EXPECT_EQ(vdb.ReclaimQuiescent(), 1u);
  const TxnStats s = vdb.stats();
  EXPECT_EQ(s.versions_retired, s.versions_reclaimed);
  EXPECT_EQ(s.retired_pending, 0u);
  EXPECT_GT(s.reclaimed_bytes, 0u);
  EXPECT_EQ(s.live_version_bytes, s.cow_bytes - s.reclaimed_bytes);
}

TEST(VersionedDbTest, CommitReclaimsAtMostTwoVersions) {
  // A snapshot pinned across kBacklog commits to one row leaves every
  // superseded version on the retire list. Once it unpins, each commit
  // frees at most two, so no single commit pays for the whole backlog,
  // and the backlog still drains because a commit retires at most one.
  constexpr uint64_t kBacklog = 24;
  VersionedTpchDb vdb(Db());
  uint32_t value = 0;
  auto commit = [&] {
    return vdb.Commit({UpdateColumn::kLDiscount, 7, ++value % 11});
  };
  ASSERT_TRUE(commit().ok());  // row 7's first version retires nothing
  {
    auto snap = vdb.OpenSnapshot().value();
    for (uint64_t i = 0; i < kBacklog; ++i) ASSERT_TRUE(commit().ok());
    EXPECT_EQ(vdb.stats().retired_pending, kBacklog);
  }

  const uint64_t reclaimed = vdb.stats().versions_reclaimed;
  ASSERT_TRUE(commit().ok());
  const uint64_t freed = vdb.stats().versions_reclaimed - reclaimed;
  EXPECT_GE(freed, 1u);
  EXPECT_LE(freed, 2u) << "one commit freed the whole backlog";

  uint64_t more = 0;
  while (vdb.stats().retired_pending > 0 && more < kBacklog) {
    ASSERT_TRUE(commit().ok());
    ++more;
  }
  EXPECT_EQ(vdb.stats().retired_pending, 0u)
      << "backlog left after " << more << " more commits";

  // ReclaimQuiescent and Drain are not bounded: they free everything.
  {
    auto snap = vdb.OpenSnapshot().value();
    for (uint64_t i = 0; i < kBacklog; ++i) ASSERT_TRUE(commit().ok());
  }
  EXPECT_EQ(vdb.ReclaimQuiescent(), kBacklog);
  {
    auto snap = vdb.OpenSnapshot().value();
    for (uint64_t i = 0; i < kBacklog; ++i) ASSERT_TRUE(commit().ok());
  }
  ASSERT_TRUE(vdb.Drain().ok());
  const TxnStats s = vdb.stats();
  EXPECT_EQ(s.retired_pending, 0u);
  EXPECT_EQ(s.versions_retired, s.versions_reclaimed);
  EXPECT_EQ(s.live_version_bytes, s.cow_bytes - s.reclaimed_bytes);
}

TEST(VersionedDbTest, CommitValidatesRowRange) {
  VersionedTpchDb vdb(Db());
  EXPECT_FALSE(
      vdb.Commit({UpdateColumn::kLQuantity, vdb.lineitem_rows(), 1}).ok());
  EXPECT_FALSE(
      vdb.Commit({UpdateColumn::kOOrderDate, vdb.orders_rows(), 1}).ok());
  EXPECT_TRUE(
      vdb.Commit({UpdateColumn::kOOrderDate, vdb.orders_rows() - 1, 1})
          .ok());
}

TEST(UpdateFeedTest, PacedFeedCommits) {
  VersionedTpchDb vdb(Db());
  UpdateFeedOptions opts;
  opts.rows_per_sec = 2000;
  opts.zipf_theta = 0.5;
  opts.threads = 2;
  UpdateFeed feed(&vdb, opts);
  feed.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  feed.Stop();

  const UpdateFeed::Stats s = feed.stats();
  EXPECT_GT(s.committed, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.p50_ns, 0u);
  EXPECT_LE(s.p50_ns, s.p99_ns);
  EXPECT_LE(s.p99_ns, s.max_ns);
  EXPECT_EQ(vdb.stats().commits, s.committed);
  EXPECT_TRUE(vdb.Drain().ok());
}

// --- Snapshot-isolation equivalence matrix -------------------------------
//
// The acceptance gate: apply a scripted update stream, pin a snapshot
// mid-stream, keep writing — then every catalog query over the pinned
// snapshot must equal the same query over a frozen database that has
// exactly the pre-pin prefix applied in place. Run over a resident base
// and over a paged base (columns behind the buffer manager).

std::vector<UpdateOp> ScriptedOps(const tpch::TpchDb& db, size_t n) {
  std::vector<UpdateOp> ops;
  ops.reserve(n);
  Xoshiro256 rng(0x48544150u);  // 'HTAP'
  for (size_t i = 0; i < n; ++i) {
    UpdateOp op;
    op.column = static_cast<UpdateColumn>(rng.NextBounded(4));
    const size_t rows = op.column == UpdateColumn::kOOrderDate
                            ? db.orders.num_rows
                            : db.lineitem.num_rows;
    op.row = rng.NextBounded(rows);
    switch (op.column) {
      case UpdateColumn::kLQuantity:
        op.value = 1 + static_cast<uint32_t>(rng.NextBounded(50));
        break;
      case UpdateColumn::kLExtendedPrice:
        op.value = 100 + static_cast<uint32_t>(rng.NextBounded(10000000));
        break;
      case UpdateColumn::kLDiscount:
        op.value = static_cast<uint32_t>(rng.NextBounded(11));
        break;
      case UpdateColumn::kOOrderDate:
        op.value = static_cast<uint32_t>(
            rng.NextBounded(tpch::kDate19980802 + 1));
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

void ApplyInPlace(tpch::TpchDb* db, const UpdateOp& op) {
  switch (op.column) {
    case UpdateColumn::kLQuantity:
      db->lineitem.l_quantity.data()[op.row] = op.value;
      break;
    case UpdateColumn::kLExtendedPrice:
      db->lineitem.l_extendedprice.data()[op.row] = op.value;
      break;
    case UpdateColumn::kLDiscount:
      db->lineitem.l_discount.data()[op.row] = op.value;
      break;
    case UpdateColumn::kOOrderDate:
      db->orders.o_orderdate.data()[op.row] = op.value;
      break;
  }
}

void RunEquivalenceMatrix(VersionedTpchDb* vdb) {
  tpch::GenConfig cfg;
  cfg.scale_factor = 0.01;
  tpch::TpchDb oracle = tpch::Generate(cfg).value();  // frozen copy

  const std::vector<UpdateOp> ops = ScriptedOps(oracle, 400);
  const size_t prefix = ops.size() / 2;
  for (size_t i = 0; i < prefix; ++i) {
    ASSERT_TRUE(vdb->Commit(ops[i]).ok()) << "op " << i;
    ApplyInPlace(&oracle, ops[i]);
  }
  auto snap = vdb->OpenSnapshot().value();
  for (size_t i = prefix; i < ops.size(); ++i) {
    ASSERT_TRUE(vdb->Commit(ops[i]).ok()) << "op " << i;
  }

  const tpch::TpchDbView oracle_view = tpch::ViewOf(oracle);
  tpch::QueryConfig config;
  config.num_threads = 2;
  for (const plan::CatalogEntry& entry : plan::Catalog()) {
    auto got = tpch::RunQuery(entry.query_number, snap.view(), config);
    ASSERT_TRUE(got.ok()) << "Q" << entry.query_number << ": "
                          << got.status().message();
    auto want = tpch::RunQuery(entry.query_number, oracle_view, config);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value().count, want.value().count)
        << "Q" << entry.query_number << " count diverged from the oracle";
    EXPECT_EQ(got.value().group_counts, want.value().group_counts)
        << "Q" << entry.query_number << " groups diverged from the oracle";
  }
}

TEST(SnapshotEquivalenceTest, AllCatalogQueriesResidentBase) {
  tpch::GenConfig cfg;
  cfg.scale_factor = 0.01;
  tpch::TpchDb db = tpch::Generate(cfg).value();
  VersionedTpchDb vdb(db);
  RunEquivalenceMatrix(&vdb);
}

TEST(SnapshotEquivalenceTest, AllCatalogQueriesPagedBase) {
  tpch::GenConfig cfg;
  cfg.scale_factor = 0.01;
  tpch::TpchDb db = tpch::Generate(cfg).value();
  storage::BufferManager::Config bm_cfg;
  bm_cfg.buffer_bytes = 8ull << 20;  // smaller than the working set
  bm_cfg.partition_rows = 8 * 1024;
  storage::BufferManager bm(bm_cfg);
  tpch::PagedTpchDb paged = tpch::PagedTpchDb::Build(db, &bm).value();
  VersionedTpchDb vdb(paged.View());
  RunEquivalenceMatrix(&vdb);
  EXPECT_GT(bm.stats().partitions_reloaded, 0u);
}

}  // namespace
}  // namespace sgxb::txn
