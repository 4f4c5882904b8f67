#include "tpch/operators.h"

#include <gtest/gtest.h>

#include <vector>

#include "plan/planner.h"
#include "scan/scan_kernels.h"
#include "tpch/tpch_gen.h"

namespace sgxb::tpch {
namespace {

class OperatorsTest : public ::testing::Test {
 protected:
  static const TpchDb& Db() {
    static const TpchDb db = [] {
      GenConfig cfg;
      cfg.scale_factor = 0.005;
      return Generate(cfg).value();
    }();
    return db;
  }

  QueryConfig Config(int threads = 1) {
    QueryConfig cfg;
    cfg.num_threads = threads;
    return cfg;
  }
};

TEST_F(OperatorsTest, FilterU8RangeMatchesOracle) {
  QueryConfig cfg = Config(2);
  OpRecorder rec;
  auto rows = FilterU8Range(Db().customer.c_mktsegment, kSegBuilding,
                            kSegBuilding, cfg, &rec, "f");
  ASSERT_TRUE(rows.ok());
  uint64_t expected = 0;
  for (size_t i = 0; i < Db().customer.num_rows; ++i) {
    expected += Db().customer.c_mktsegment[i] == kSegBuilding;
  }
  EXPECT_EQ(rows.value().count(), expected);
  for (uint64_t k = 0; k < rows.value().count(); ++k) {
    uint64_t id = rows.value().ids()[k];
    EXPECT_EQ(Db().customer.c_mktsegment[id], kSegBuilding);
  }
  EXPECT_EQ(rec.Take().phases.size(), 1u);
}

TEST_F(OperatorsTest, FilterU32RangeMatchesOracle) {
  QueryConfig cfg = Config(3);
  auto rows = FilterU32Range(Db().orders.o_orderdate, kDate19931001,
                             kDate19940101 - 1, cfg, nullptr, "f");
  ASSERT_TRUE(rows.ok());
  uint64_t expected = 0;
  for (size_t i = 0; i < Db().orders.num_rows; ++i) {
    uint32_t d = Db().orders.o_orderdate[i];
    expected += d >= kDate19931001 && d < kDate19940101;
  }
  EXPECT_EQ(rows.value().count(), expected);
  // Row ids must come out sorted (order-preserving compaction).
  for (uint64_t k = 1; k < rows.value().count(); ++k) {
    EXPECT_LT(rows.value().ids()[k - 1], rows.value().ids()[k]);
  }
}

// Refines `in` by `p` the way the materializing lowering does: RefineRows
// runs the planner's one predicate evaluator on each thread's slice.
Result<RowIdList> RefineBy(const plan::Predicate& p, const TpchDbView& view,
                           const RowIdList& in, const QueryConfig& cfg) {
  const scan::GatherKernels& g = scan::PickGatherKernels(SimdLevel::kAvx512);
  return RefineRows(
      in,
      [&](const uint64_t* ids, size_t m, uint64_t* out) {
        return plan::Refine(p, view, g, ids, m, out);
      },
      /*gather_bytes=*/0, cfg, nullptr, "r");
}

TEST_F(OperatorsTest, RefineU8InSetThins) {
  QueryConfig cfg = Config(2);
  auto all = FilterU32Range(Db().lineitem.l_quantity, 1, 50, cfg, nullptr,
                            "all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().count(), Db().lineitem.num_rows);

  uint64_t mask = (uint64_t{1} << kModeMail) | (uint64_t{1} << kModeShip);
  auto refined = RefineBy(plan::Predicate::U8InSet(plan::ColId::kLShipmode,
                                                   mask),
                          ViewOf(Db()), all.value(), cfg);
  ASSERT_TRUE(refined.ok());
  uint64_t expected = 0;
  for (size_t i = 0; i < Db().lineitem.num_rows; ++i) {
    uint8_t m = Db().lineitem.l_shipmode[i];
    expected += m == kModeMail || m == kModeShip;
  }
  EXPECT_EQ(refined.value().count(), expected);

  // Codes of 64 and above are never in the set: 65, 129 and 193 share
  // code 1's low six bits, and 64 code 0's.
  const uint8_t codes[] = {1, 65, 129, 2, 1, 193, 0, 64, 1, 1, 1, 1};
  const size_t n = sizeof(codes);
  TpchDbView view;
  view.lineitem.num_rows = n;
  view.lineitem.l_shipmode = storage::ColumnView<uint8_t>(codes, n);
  for (int threads : {1, 3, 4}) {
    QueryConfig c = Config(threads);
    auto in = RowIdList::Allocate(n, c);
    ASSERT_TRUE(in.ok());
    for (size_t i = 0; i < n; ++i) in.value().ids()[i] = i;
    in.value().set_count(n);
    auto kept = RefineBy(
        plan::Predicate::U8InSet(plan::ColId::kLShipmode, uint64_t{1} << 1),
        view, in.value(), c);
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    const std::vector<uint64_t> ids(kept.value().ids(),
                                    kept.value().ids() + kept.value().count());
    EXPECT_EQ(ids, (std::vector<uint64_t>{0, 4, 8, 9, 10, 11}))
        << threads << " threads";
  }
}

TEST_F(OperatorsTest, RefineLessMatchesOracle) {
  QueryConfig cfg = Config(1);
  auto all = FilterU32Range(Db().lineitem.l_quantity, 1, 50, cfg, nullptr,
                            "all");
  auto refined = RefineBy(plan::Predicate::Less(plan::ColId::kLShipdate,
                                                plan::ColId::kLCommitdate),
                          ViewOf(Db()), all.value(), cfg);
  ASSERT_TRUE(refined.ok());
  uint64_t expected = 0;
  for (size_t i = 0; i < Db().lineitem.num_rows; ++i) {
    expected +=
        Db().lineitem.l_shipdate[i] < Db().lineitem.l_commitdate[i];
  }
  EXPECT_EQ(refined.value().count(), expected);
}

TEST_F(OperatorsTest, GatherKeysBuildsRelation) {
  QueryConfig cfg = Config(2);
  auto rows = FilterU8Range(Db().customer.c_mktsegment, kSegBuilding,
                            kSegBuilding, cfg, nullptr, "f");
  auto rel = GatherKeys(Db().customer.c_custkey, &rows.value(), cfg,
                        nullptr, "g");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().num_tuples(), rows.value().count());
  for (size_t i = 0; i < rel.value().num_tuples(); ++i) {
    const Tuple& t = rel.value()[i];
    EXPECT_EQ(t.key, Db().customer.c_custkey[t.payload]);
  }
}

TEST_F(OperatorsTest, GatherAllRows) {
  QueryConfig cfg = Config(1);
  auto rel =
      GatherKeys(Db().orders.o_orderkey, nullptr, cfg, nullptr, "g");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().num_tuples(), Db().orders.num_rows);
}

TEST_F(OperatorsTest, MaterializingJoinExtractsProbeRows) {
  QueryConfig cfg = Config(2);
  cfg.radix_bits = 6;
  OpRecorder rec;
  // customers (filtered) join orders: every surviving probe row's
  // custkey must belong to a BUILDING customer.
  auto cust = FilterU8Range(Db().customer.c_mktsegment, kSegBuilding,
                            kSegBuilding, cfg, nullptr, "f");
  auto build = GatherKeys(Db().customer.c_custkey, &cust.value(), cfg,
                          nullptr, "g1");
  auto probe =
      GatherKeys(Db().orders.o_custkey, nullptr, cfg, nullptr, "g2");
  auto step = MaterializingJoin(build.value(), probe.value(), cfg, &rec,
                                "join");
  ASSERT_TRUE(step.ok());

  uint64_t expected = 0;
  for (size_t i = 0; i < Db().orders.num_rows; ++i) {
    expected += Db().customer.c_mktsegment[Db().orders.o_custkey[i]] ==
                kSegBuilding;
  }
  EXPECT_EQ(step.value().matches, expected);
  EXPECT_EQ(step.value().probe_rows.count(), expected);
  for (uint64_t k = 0; k < step.value().probe_rows.count(); ++k) {
    uint64_t order_row = step.value().probe_rows.ids()[k];
    ASSERT_LT(order_row, Db().orders.num_rows);
    EXPECT_EQ(
        Db().customer.c_mktsegment[Db().orders.o_custkey[order_row]],
        kSegBuilding);
  }
  // The join's phases were absorbed with a prefix.
  auto phases = rec.Take();
  ASSERT_FALSE(phases.phases.empty());
  EXPECT_EQ(phases.phases[0].name.rfind("join.", 0), 0u);
}

TEST_F(OperatorsTest, CountingJoinMatchesMaterializingJoin) {
  QueryConfig cfg = Config(1);
  cfg.radix_bits = 6;
  auto build =
      GatherKeys(Db().orders.o_orderkey, nullptr, cfg, nullptr, "g1");
  auto probe =
      GatherKeys(Db().lineitem.l_orderkey, nullptr, cfg, nullptr, "g2");
  auto count =
      CountingJoin(build.value(), probe.value(), cfg, nullptr, "c");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), Db().lineitem.num_rows);  // FK join
}

TEST_F(OperatorsTest, GatherOfEmptySelectionIsEmpty) {
  // Regression: an empty selection must yield a 0-row relation, not a
  // padded one with uninitialized tuples (which could spuriously join).
  QueryConfig cfg = Config(2);
  auto none = FilterU32Range(Db().orders.o_orderdate, 0xfffffff0u,
                             0xffffffffu, cfg, nullptr, "none");
  ASSERT_TRUE(none.ok());
  ASSERT_EQ(none.value().count(), 0u);
  auto rel = GatherKeys(Db().orders.o_orderkey, &none.value(), cfg,
                        nullptr, "g");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().num_tuples(), 0u);
  EXPECT_TRUE(rel.value().empty());

  // And through a join: zero matches, not garbage matches.
  auto probe =
      GatherKeys(Db().lineitem.l_orderkey, nullptr, cfg, nullptr, "p");
  auto count =
      CountingJoin(rel.value(), probe.value(), cfg, nullptr, "c");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0u);
}

TEST_F(OperatorsTest, EmptyInputsShortCircuit) {
  QueryConfig cfg = Config(1);
  Relation empty;
  auto probe =
      GatherKeys(Db().orders.o_custkey, nullptr, cfg, nullptr, "g");
  auto step =
      MaterializingJoin(empty, probe.value(), cfg, nullptr, "join");
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value().matches, 0u);
  EXPECT_EQ(step.value().probe_rows.count(), 0u);
  auto count = CountingJoin(empty, probe.value(), cfg, nullptr, "c");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0u);
}

}  // namespace
}  // namespace sgxb::tpch
