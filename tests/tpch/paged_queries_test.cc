// Equivalence matrix for the out-of-EPC buffer manager (docs/storage.md):
// every query must produce byte-identical results whether its columns are
// resident (TpchDb) or paged through a pool far smaller than the dataset
// (PagedTpchDb over a storage::BufferManager), in both the materializing
// and the fused-pipeline execution modes — while actually evicting and
// reloading (asserted via manager stats, so the matrix cannot silently
// degrade into an all-resident run).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "obs/query_report.h"
#include "plan/catalog.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace sgxb::tpch {
namespace {

// SF 0.01 (~60k lineitem rows, ~2.4 MB of columns) through a 768 KiB
// pool with 4096-row partitions, so scans cross many partition
// boundaries and the clock evicts continuously.
storage::BufferManager::Config PoolConfig() {
  storage::BufferManager::Config cfg;
  cfg.buffer_bytes = 768 << 10;
  cfg.partition_rows = 4096;
  return cfg;
}

// One shared generated database, plus a paged copy over one shared pool.
struct PagedWorld {
  TpchDb db;
  std::unique_ptr<storage::BufferManager> bm;
  PagedTpchDb paged;

  PagedWorld() {
    GenConfig gen;
    gen.scale_factor = 0.01;
    db = Generate(gen).value();
    bm = std::make_unique<storage::BufferManager>(PoolConfig());
    paged = PagedTpchDb::Build(db, bm.get()).value();
  }
};

PagedWorld& World() {
  static PagedWorld* world = new PagedWorld();
  return *world;
}

using PagedParam = std::tuple<int, bool>;  // query, fused pipeline

class PagedQueryTest : public ::testing::TestWithParam<PagedParam> {};

TEST_P(PagedQueryTest, PagedMatchesResident) {
  auto [query, fused] = GetParam();
  PagedWorld& w = World();

  QueryConfig cfg;
  cfg.num_threads = 4;
  cfg.pipeline = fused;

  auto resident = RunQuery(query, w.db, cfg);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();

  // Every case pages through its own cold pool: a pool that the previous
  // case (often this query's other lowering) just warmed can still hold
  // every partition the query touches, and then nothing reloads.
  storage::BufferManager bm(PoolConfig());
  auto paged_db = PagedTpchDb::Build(w.db, &bm);
  ASSERT_TRUE(paged_db.ok()) << paged_db.status().ToString();

  const storage::BufferManagerStats before = bm.stats();
  auto paged = RunQuery(query, paged_db.value().View(), cfg);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const storage::BufferManagerStats after = bm.stats();

  EXPECT_EQ(paged.value().count, resident.value().count);
  EXPECT_EQ(paged.value().group_counts, resident.value().group_counts);
  // The paged run must have gone through the manager, not a cached
  // resident copy: the pool holds ~1/3 of the data, so every query
  // reloads at least some partitions.
  EXPECT_GT(after.partitions_reloaded, before.partitions_reloaded);
  EXPECT_GT(after.decrypt_bytes, before.decrypt_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PagedQueryTest,
    ::testing::Combine(::testing::Values(1, 3, 6, 10, 12, 19),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<PagedParam>& info) {
      return "Q" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Fused" : "_Mat");
    });

TEST(PagedQueryTest, Q12GroupedPagedMatchesResident) {
  PagedWorld& w = World();
  for (bool fused : {false, true}) {
    QueryConfig cfg;
    cfg.num_threads = 4;
    cfg.pipeline = fused;
    auto resident = RunQuery(plan::kQueryQ12Grouped, w.db, cfg);
    ASSERT_TRUE(resident.ok()) << resident.status().ToString();
    auto paged = RunQuery(plan::kQueryQ12Grouped, w.paged.View(), cfg);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    EXPECT_EQ(paged.value().count, resident.value().count) << fused;
    EXPECT_EQ(paged.value().group_counts, resident.value().group_counts)
        << fused;
  }
}

TEST(PagedQueryTest, ViewOfResidentDbMatchesToo) {
  // TpchDbView is also the adapter for resident columns; the view
  // overloads must agree with the Column-based ones bit for bit.
  PagedWorld& w = World();
  QueryConfig cfg;
  cfg.num_threads = 2;
  for (int q : {1, 3, 6, 10, 12, 19}) {
    auto a = RunQuery(q, w.db, cfg);
    auto b = RunQuery(q, ViewOf(w.db), cfg);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a.value().count, b.value().count) << q;
    EXPECT_EQ(a.value().group_counts, b.value().group_counts) << q;
  }
}

TEST(PagedQueryTest, ReportStorageCountersMatchManagerDeltas) {
  // Satellite: the storage section of QueryReport is fed from the obs
  // registry mirror of the manager's counters. A paged query's report
  // must show the activity the manager actually performed in its window
  // (the manager may keep prefetching slightly past the report close, so
  // the manager delta bounds the report from above).
  PagedWorld& w = World();
  QueryConfig cfg;
  cfg.num_threads = 4;
  cfg.pipeline = false;

  const storage::BufferManagerStats before = w.bm->stats();
  auto r = RunQuery(3, w.paged.View(), cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryReport& report = r.value().report;
  const storage::BufferManagerStats after = w.bm->stats();

  EXPECT_GT(report.partitions_reloaded, 0u);
  EXPECT_GT(report.storage_decrypt_bytes, 0u);
  EXPECT_LE(report.partitions_reloaded,
            after.partitions_reloaded - before.partitions_reloaded +
                after.prefetch_loads - before.prefetch_loads);
  EXPECT_LE(report.partitions_evicted,
            after.partitions_evicted - before.partitions_evicted);
  EXPECT_LE(report.storage_decrypt_bytes,
            after.decrypt_bytes - before.decrypt_bytes);
  // The textual rendering carries the storage line for paged queries.
  EXPECT_NE(report.ToString().find("storage:"), std::string::npos);

  // A fully resident query reports zero storage activity.
  auto resident = RunQuery(3, w.db, cfg);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident.value().report.partitions_reloaded, 0u);
  EXPECT_EQ(resident.value().report.storage_decrypt_bytes, 0u);
}

TEST(PagedQueryTest, SpillImagesAreCompressed) {
  PagedWorld& w = World();
  const storage::BufferManagerStats s = w.bm->stats();
  EXPECT_GT(s.logical_bytes, 0u);
  // TPC-H dates/keys/flags compress well; require a conservative 1.5x.
  EXPECT_GT(s.CompressionRatio(), 1.5);
}

}  // namespace
}  // namespace sgxb::tpch
