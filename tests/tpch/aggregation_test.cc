#include <gtest/gtest.h>

#include "plan/catalog.h"
#include "tpch/operators.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace sgxb::tpch {
namespace {

const TpchDb& Db() {
  static const TpchDb db = [] {
    GenConfig cfg;
    cfg.scale_factor = 0.01;
    return Generate(cfg).value();
  }();
  return db;
}

TEST(GroupCountTest, RejectsBadGroupCounts) {
  QueryConfig cfg;
  auto all_lines = FilterU32Range(Db().lineitem.l_quantity, 1, 50, cfg,
                                  nullptr, "all");
  ASSERT_TRUE(all_lines.ok());
  EXPECT_FALSE(GroupCountU8ViaFk(Db().orders.o_orderpriority,
                                 Db().lineitem.l_orderkey, all_lines.value(),
                                 0, cfg, nullptr, "g")
                   .ok());
  // num_groups smaller than actual code range -> kInternal.
  auto r = GroupCountU8ViaFk(Db().orders.o_orderpriority,
                             Db().lineitem.l_orderkey, all_lines.value(), 2,
                             cfg, nullptr, "g");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(GroupCountTest, ViaForeignKey) {
  QueryConfig cfg;
  cfg.num_threads = 2;
  auto all_lines = FilterU32Range(Db().lineitem.l_quantity, 1, 50, cfg,
                                  nullptr, "all");
  ASSERT_TRUE(all_lines.ok());
  auto counts = GroupCountU8ViaFk(
      Db().orders.o_orderpriority, Db().lineitem.l_orderkey,
      all_lines.value(), kNumOrderPriorities, cfg, nullptr, "g");
  ASSERT_TRUE(counts.ok());
  std::vector<uint64_t> expected(kNumOrderPriorities, 0);
  for (size_t i = 0; i < Db().lineitem.num_rows; ++i) {
    ++expected[Db().orders.o_orderpriority[Db().lineitem.l_orderkey[i]]];
  }
  EXPECT_EQ(counts.value(), expected);
}

TEST(Q12GroupedTest, MatchesReference) {
  for (int threads : {1, 4}) {
    QueryConfig cfg;
    cfg.num_threads = threads;
    auto result = RunQuery(plan::kQueryQ12Grouped, Db(), cfg);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto [high, low] = ReferenceQ12Grouped(Db());
    ASSERT_EQ(result.value().group_counts.size(), 2u);
    EXPECT_EQ(result.value().group_counts[0], high);
    EXPECT_EQ(result.value().group_counts[1], low);
    EXPECT_EQ(result.value().count, high + low);
  }
}

TEST(Q12GroupedTest, GroupTotalEqualsPlainQ12) {
  QueryConfig cfg;
  auto grouped = RunQuery(plan::kQueryQ12Grouped, Db(), cfg).value();
  EXPECT_EQ(grouped.count, ReferenceQ12(Db()));
}

TEST(Q1Test, MatchesReference) {
  for (int threads : {1, 3}) {
    QueryConfig cfg;
    cfg.num_threads = threads;
    auto result = RunQuery(1, Db(), cfg);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<uint64_t> expected = ReferenceQ1Counts(Db());
    EXPECT_EQ(result.value().group_counts, expected);
    uint64_t total = 0;
    for (uint64_t c : expected) total += c;
    EXPECT_EQ(result.value().count, total);
  }
}

TEST(Q1Test, GroupSumsMatchReference) {
  QueryConfig cfg;
  cfg.num_threads = 2;
  auto rows = FilterU32Range(
      Db().lineitem.l_shipdate, 0,
      static_cast<uint32_t>(DaysFromCivil(1998, 9, 2)), cfg, nullptr,
      "f");
  ASSERT_TRUE(rows.ok());
  auto aggs = GroupSumU32By2U8(
      Db().lineitem.l_quantity, Db().lineitem.l_returnflag,
      kNumReturnFlags, Db().lineitem.l_linestatus, kNumLineStatuses,
      &rows.value(), cfg, nullptr, "g");
  ASSERT_TRUE(aggs.ok());
  std::vector<uint64_t> expected = ReferenceQ1Sums(Db());
  for (size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(aggs.value()[g].sum, expected[g]) << "group " << g;
  }
}

TEST(Q1Test, OpenLinesNeverReturned) {
  // TPC-H invariant (from the dbgen rules): returnflag is N exactly for
  // receipts after CURRENTDATE; linestatus O means shipped after it.
  // Shipped-F lines can carry any flag, but O lines must be flag N.
  const auto counts = ReferenceQ1Counts(Db());
  EXPECT_EQ(counts[size_t{kFlagA} * kNumLineStatuses + kStatusO], 0u);
  EXPECT_EQ(counts[size_t{kFlagR} * kNumLineStatuses + kStatusO], 0u);
  EXPECT_GT(counts[size_t{kFlagN} * kNumLineStatuses + kStatusO], 0u);
}

TEST(Q6Test, MatchesReference) {
  for (int threads : {1, 4}) {
    QueryConfig cfg;
    cfg.num_threads = threads;
    auto result = RunQuery(6, Db(), cfg);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().group_counts.size(), 1u);
    EXPECT_EQ(result.value().group_counts[0], ReferenceQ6(Db()));
    EXPECT_GT(result.value().count, 0u);
  }
}

TEST(Q6Test, RevenueIsNonTrivial) {
  uint64_t revenue = ReferenceQ6(Db());
  EXPECT_GT(revenue, 0u);
  // Sanity: revenue must be below sum of all prices x max discount.
  uint64_t upper = 0;
  for (size_t i = 0; i < Db().lineitem.num_rows; ++i) {
    upper += static_cast<uint64_t>(Db().lineitem.l_extendedprice[i]) * 10;
  }
  EXPECT_LT(revenue, upper);
}

TEST(RunQueryTest, DispatchesExtensionQueries) {
  QueryConfig cfg;
  auto q1 = RunQuery(1, Db(), cfg);
  ASSERT_TRUE(q1.ok());
  auto q6 = RunQuery(6, Db(), cfg);
  ASSERT_TRUE(q6.ok());
  EXPECT_EQ(q6.value().group_counts[0], ReferenceQ6(Db()));
}

TEST(OrderPriorityGenTest, CodesInRangeAndBalanced) {
  std::vector<uint64_t> counts(kNumOrderPriorities, 0);
  for (size_t i = 0; i < Db().orders.num_rows; ++i) {
    ASSERT_LT(Db().orders.o_orderpriority[i], kNumOrderPriorities);
    ++counts[Db().orders.o_orderpriority[i]];
  }
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c),
                Db().orders.num_rows / double{kNumOrderPriorities},
                Db().orders.num_rows * 0.05);
  }
}

}  // namespace
}  // namespace sgxb::tpch
