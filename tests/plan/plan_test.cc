// Unit tests for the plan IR (plan/plan.h) and the query catalog
// (plan/catalog.h): builder construction, the validation errors the
// planner relies on never seeing (unbound columns, type mismatches,
// cyclic or DAG-shaped "trees"), catalog integrity — every declared
// query must be a valid plan, and RunQuery-style lookup must fail
// cleanly for numbers outside the catalog — and the dense-key
// declaration against generated data.

#include "plan/plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "plan/catalog.h"
#include "storage/column_view.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"

namespace sgxb::plan {
namespace {

// --- Builder construction --------------------------------------------------

TEST(PlanBuilderTest, BuildsSingleScanAggregate) {
  PlanBuilder b;
  const int li = b.Scan(
      TableId::kLineitem,
      {Predicate::U32Range(ColId::kLShipdate, 0, 1000)});
  const int agg = b.Aggregate(li, AggSpec::CountStar());
  Result<Plan> plan = b.Build(agg, "t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().valid());
  EXPECT_EQ(plan.value().name(), "t");
  EXPECT_EQ(plan.value().root(), agg);
  EXPECT_EQ(plan.value().nodes().size(), 2u);
  EXPECT_EQ(plan.value().OutputTable(li), TableId::kLineitem);
  EXPECT_EQ(plan.value().OutputTable(agg), TableId::kLineitem);
}

TEST(PlanBuilderTest, BuildsJoinTreeWithOutputTables) {
  PlanBuilder b;
  const int cust = b.Scan(TableId::kCustomer);
  const int ord = b.Scan(TableId::kOrders);
  const int co = b.Join(cust, ord, ColId::kCCustkey, ColId::kOCustkey);
  const int agg = b.Aggregate(co, AggSpec::CountStar());
  Result<Plan> plan = b.Build(agg, "join");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // A join streams its probe side: the join's output table is the probe
  // child's table.
  EXPECT_EQ(plan.value().OutputTable(co), TableId::kOrders);
}

TEST(PlanBuilderTest, ToTextMentionsEveryNode) {
  const CatalogEntry* q3 = FindQuery(3);
  ASSERT_NE(q3, nullptr);
  const std::string text = q3->plan.ToText();
  EXPECT_NE(text.find("Scan(customer)"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(orders)"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(lineitem)"), std::string::npos) << text;
  EXPECT_NE(text.find("Join(c_custkey == o_custkey)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("Aggregate(count(*))"), std::string::npos) << text;
}

TEST(PredicateTest, ToStringRendersEveryKind) {
  EXPECT_EQ(Predicate::U32Range(ColId::kLShipdate, 3, 9).ToString(),
            "l_shipdate in [3, 9]");
  EXPECT_EQ(Predicate::U8Eq(ColId::kCMktsegment, 1).ToString(),
            "c_mktsegment == 1");
  EXPECT_EQ(Predicate::Less(ColId::kLShipdate, ColId::kLCommitdate)
                .ToString(),
            "l_shipdate < l_commitdate");
  EXPECT_NE(Predicate::U8InSet(ColId::kLShipmode, 0x18).ToString().find(
                "l_shipmode in mask 0x18"),
            std::string::npos);
}

// --- Validation errors -----------------------------------------------------

TEST(PlanValidationTest, RejectsEmptyPlanAndBadRoot) {
  EXPECT_FALSE(Plan::FromNodes({}, 0, "empty").ok());

  PlanBuilder b;
  const int li = b.Scan(TableId::kLineitem);
  EXPECT_FALSE(b.Build(li + 7, "oob").ok());
  // Root must be an aggregate, not a bare scan.
  Result<Plan> bare = b.Build(li, "bare");
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().message().find("root must be an aggregate"),
            std::string::npos);
}

TEST(PlanValidationTest, RejectsUnboundPredicateColumn) {
  PlanBuilder b;
  // c_custkey does not belong to lineitem.
  const int li = b.Scan(TableId::kLineitem,
                        {Predicate::U32Range(ColId::kCCustkey, 0, 1)});
  Result<Plan> plan = b.Build(b.Aggregate(li, AggSpec::CountStar()), "t");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("unbound column"),
            std::string::npos)
      << plan.status().ToString();
}

TEST(PlanValidationTest, RejectsPredicateTypeMismatch) {
  PlanBuilder b;
  // l_shipmode is a u8 code column; a u32 range over it is a type error.
  const int li = b.Scan(TableId::kLineitem,
                        {Predicate::U32Range(ColId::kLShipmode, 0, 1)});
  Result<Plan> plan = b.Build(b.Aggregate(li, AggSpec::CountStar()), "t");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("type mismatch"),
            std::string::npos);
}

TEST(PlanValidationTest, RejectsUnboundJoinKey) {
  PlanBuilder b;
  const int cust = b.Scan(TableId::kCustomer);
  const int ord = b.Scan(TableId::kOrders);
  // Build key p_partkey belongs to neither child.
  const int j = b.Join(cust, ord, ColId::kPPartkey, ColId::kOCustkey);
  Result<Plan> plan = b.Build(b.Aggregate(j, AggSpec::CountStar()), "t");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("build key"), std::string::npos);
}

TEST(PlanValidationTest, RejectsCyclicJoinTree) {
  // Hand-built node list: the aggregate's input is a join whose probe
  // child is the aggregate itself — a cycle no builder sequence can
  // produce, which is exactly why FromNodes must catch it.
  std::vector<PlanNode> nodes(3);
  nodes[0].kind = PlanNode::Kind::kScan;
  nodes[0].table = TableId::kCustomer;
  nodes[1].kind = PlanNode::Kind::kJoin;
  nodes[1].build = 0;
  nodes[1].probe = 2;  // points back up at the root
  nodes[1].build_key = ColId::kCCustkey;
  nodes[1].probe_key = ColId::kOCustkey;
  nodes[2].kind = PlanNode::Kind::kAggregate;
  nodes[2].input = 1;
  nodes[2].agg = AggSpec::CountStar();
  Result<Plan> plan = Plan::FromNodes(std::move(nodes), 2, "cycle");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("cyclic plan"), std::string::npos)
      << plan.status().ToString();
}

TEST(PlanValidationTest, RejectsSharedSubtree) {
  PlanBuilder b;
  const int li = b.Scan(TableId::kOrders);
  // Same node as both build and probe: plans are trees, not DAGs.
  const int j = b.Join(li, li, ColId::kOOrderkey, ColId::kOOrderkey);
  Result<Plan> plan = b.Build(b.Aggregate(j, AggSpec::CountStar()), "dag");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("multiple parents"),
            std::string::npos);
}

TEST(PlanValidationTest, RejectsUnionOverMixedTables) {
  PlanBuilder b;
  const int li = b.Scan(TableId::kLineitem);
  const int ord = b.Scan(TableId::kOrders);
  const int u = b.UnionAll({li, ord});
  Result<Plan> plan = b.Build(b.Aggregate(u, AggSpec::CountStar()), "t");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("share one output table"),
            std::string::npos);
}

TEST(PlanValidationTest, RejectsOversizedGroupFanout) {
  PlanBuilder b;
  const int li = b.Scan(TableId::kLineitem);
  const int agg = b.Aggregate(
      li, AggSpec::GroupSum2(ColId::kLQuantity, ColId::kLReturnflag, 65,
                             ColId::kLLinestatus, 2));
  EXPECT_FALSE(b.Build(agg, "wide").ok());

  PlanBuilder b2;
  const int li2 = b2.Scan(TableId::kLineitem);
  // 9 x 8 = 72 > 64 combined groups.
  const int agg2 = b2.Aggregate(
      li2, AggSpec::GroupSum2(ColId::kLQuantity, ColId::kLReturnflag, 9,
                              ColId::kLLinestatus, 8));
  Result<Plan> plan = b2.Build(agg2, "wide2");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("exceeds 64 groups"),
            std::string::npos);
}

TEST(PlanValidationTest, RejectsBadOutputMap) {
  PlanBuilder b;
  const int li = b.Scan(TableId::kLineitem);
  // output_map has 2 slots but num_groups is 5.
  const int agg = b.Aggregate(
      li, AggSpec::GroupCountViaFk(ColId::kOOrderpriority, ColId::kLOrderkey,
                                   tpch::kNumOrderPriorities, {0, 1}));
  Result<Plan> plan = b.Build(agg, "map");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("output_map"), std::string::npos);
}

TEST(PlanValidationTest, RejectsAggregateOverWrongTable) {
  PlanBuilder b;
  const int ord = b.Scan(TableId::kOrders);
  // Summing a lineitem column over an orders scan is unbound.
  const int agg = b.Aggregate(
      ord, AggSpec::SumProduct(ColId::kLExtendedprice, ColId::kLDiscount));
  Result<Plan> plan = b.Build(agg, "t");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("unbound column"),
            std::string::npos);
}

// --- Catalog integrity -----------------------------------------------------

TEST(CatalogTest, EveryEntryIsValidAndOrdered) {
  const std::vector<CatalogEntry>& entries = Catalog();
  ASSERT_EQ(entries.size(), 9u);
  int last = 0;
  for (const CatalogEntry& e : entries) {
    EXPECT_TRUE(e.plan.valid()) << e.name;
    EXPECT_GT(e.query_number, last) << "catalog must be number-ordered";
    last = e.query_number;
    EXPECT_FALSE(std::string(e.name).empty());
    EXPECT_FALSE(std::string(e.description).empty());
    EXPECT_FALSE(e.plan.ToText().empty());
  }
}

TEST(CatalogTest, FindQueryCoversExactlyTheCatalog) {
  for (int q : {1, 3, 6, 10, 12, 19, kQueryQ5Multiway, kQueryQ5Grouped,
                kQueryQ12Grouped}) {
    EXPECT_NE(FindQuery(q), nullptr) << q;
  }
  // Q5's real TPC-H number is deliberately absent: the plan-only variant
  // lives at kQueryQ5Multiway.
  EXPECT_EQ(FindQuery(5), nullptr);
  EXPECT_EQ(FindQuery(0), nullptr);
  EXPECT_EQ(FindQuery(-3), nullptr);
  EXPECT_EQ(FindQuery(1000), nullptr);
  EXPECT_STREQ(FindQuery(kQueryQ12Grouped)->name, "Q12G");
  EXPECT_STREQ(FindQuery(kQueryQ5Multiway)->name, "Q5M");
  EXPECT_STREQ(FindQuery(kQueryQ5Grouped)->name, "Q5G");
}

TEST(CatalogTest, SharedConstantsStayInSync) {
  // The predicate constants the oracles in tpch/queries.cc use must be
  // the ones the catalog plans embed (single source of truth).
  const CatalogEntry* q1 = FindQuery(1);
  ASSERT_NE(q1, nullptr);
  const PlanNode& scan = q1->plan.node(0);
  ASSERT_EQ(scan.kind, PlanNode::Kind::kScan);
  ASSERT_EQ(scan.predicates.size(), 1u);
  EXPECT_EQ(scan.predicates[0].hi, tpch::kQ1Cutoff);
}

// --- Dense keys ---------------------------------------------------------------

// The fused lowering answers a join on a declared dense key with a bitmap
// over [0, rows), so every declared column of generated data must hold
// each key of that domain exactly once.
TEST(DenseKeyTest, GeneratedDataSatisfiesTheDeclaration) {
  std::vector<ColId> declared;
  for (int c = 0; c <= static_cast<int>(ColId::kPContainer); ++c) {
    if (IsDenseKey(static_cast<ColId>(c))) {
      declared.push_back(static_cast<ColId>(c));
    }
  }
  EXPECT_EQ(declared, (std::vector<ColId>{ColId::kCCustkey, ColId::kOOrderkey,
                                          ColId::kPPartkey}));
  for (double sf : {0.01, 0.05}) {
    tpch::GenConfig gen;
    gen.scale_factor = sf;
    const tpch::TpchDb db = tpch::Generate(gen).value();
    const tpch::TpchDbView view = tpch::ViewOf(db);
    for (ColId col : declared) {
      const size_t rows = TableRows(view, TableOf(col));
      ASSERT_GT(rows, 0u);
      std::vector<bool> seen(rows, false);
      storage::ColumnReader<uint32_t> keys(U32Column(view, col));
      for (size_t i = 0; i < rows; ++i) {
        const uint32_t key = keys[i];
        ASSERT_LT(key, rows) << ColName(col) << " at SF " << sf;
        ASSERT_FALSE(seen[key])
            << ColName(col) << " repeats " << key << " at SF " << sf;
        seen[key] = true;
      }
      ASSERT_TRUE(keys.status().ok()) << keys.status().ToString();
    }
  }
}

}  // namespace
}  // namespace sgxb::plan
