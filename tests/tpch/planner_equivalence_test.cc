// Equivalence and decision tests for the plan compiler (plan/planner.h):
// every catalog query — including the plan-only ones that never had
// hand-written drivers — must produce its scalar oracle's result through
// the materializing and fused lowerings, over resident and paged columns.
// On top of the matrix: scalar-loop oracles for the plan-only Q5-style
// queries, ad-hoc plans through RunPlan (two of them not fusable: one
// probing a join, one with duplicate build keys), data that breaks the
// dense-key declaration, and unit tests for the planner's decisions (the
// default and forced lowerings, RHO and the other joins through the
// PlanDecisions::joins seam, explain output).
//
// Wired into the ASan/UBSan and TSan CI jobs (`ctest -L
// planner_equivalence_test`) alongside pipeline_test; the ASan/UBSan job
// runs it once more built for the runner's CPU, so probe-fed sinks run
// the SIMD gather kernels sanitized.

#include "plan/planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/pipeline.h"
#include "plan/catalog.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace sgxb::tpch {
namespace {

// Same world as paged_queries_test: SF 0.01 resident, plus a paged copy
// through a pool small enough that scans continuously evict and reload.
struct PlannerWorld {
  TpchDb db;
  std::unique_ptr<storage::BufferManager> bm;
  PagedTpchDb paged;

  PlannerWorld() {
    GenConfig gen;
    gen.scale_factor = 0.01;
    db = Generate(gen).value();
    storage::BufferManager::Config cfg;
    cfg.buffer_bytes = 768 << 10;
    cfg.partition_rows = 4096;
    bm = std::make_unique<storage::BufferManager>(cfg);
    paged = PagedTpchDb::Build(db, bm.get()).value();
  }
};

PlannerWorld& World() {
  static PlannerWorld* world = new PlannerWorld();
  return *world;
}

// --- Scalar-loop oracles for the plan-only queries -------------------------
// Q5M/Q5G: customer (mktsegment = AUTOMOBILE) JOIN orders (orderdate in
// 1994) JOIN lineitem; count(*) flat / counted per order priority.

uint64_t ReferenceQ5M(const TpchDb& db) {
  std::unordered_set<uint32_t> custs;
  for (size_t i = 0; i < db.customer.num_rows; ++i) {
    if (db.customer.c_mktsegment[i] == kSegAutomobile) {
      custs.insert(db.customer.c_custkey[i]);
    }
  }
  std::unordered_set<uint32_t> orders;
  for (size_t i = 0; i < db.orders.num_rows; ++i) {
    if (db.orders.o_orderdate[i] >= kDate19940101 &&
        db.orders.o_orderdate[i] < kDate19950101 &&
        custs.count(db.orders.o_custkey[i]) != 0) {
      orders.insert(db.orders.o_orderkey[i]);
    }
  }
  uint64_t count = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    if (orders.count(db.lineitem.l_orderkey[i]) != 0) ++count;
  }
  return count;
}

std::vector<uint64_t> ReferenceQ5G(const TpchDb& db) {
  std::unordered_set<uint32_t> custs;
  for (size_t i = 0; i < db.customer.num_rows; ++i) {
    if (db.customer.c_mktsegment[i] == kSegAutomobile) {
      custs.insert(db.customer.c_custkey[i]);
    }
  }
  std::unordered_set<uint32_t> orders;
  for (size_t i = 0; i < db.orders.num_rows; ++i) {
    if (db.orders.o_orderdate[i] >= kDate19940101 &&
        db.orders.o_orderdate[i] < kDate19950101 &&
        custs.count(db.orders.o_custkey[i]) != 0) {
      orders.insert(db.orders.o_orderkey[i]);
    }
  }
  std::vector<uint64_t> counts(kNumOrderPriorities, 0);
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    const uint32_t ok = db.lineitem.l_orderkey[i];
    if (orders.count(ok) != 0) ++counts[db.orders.o_orderpriority[ok]];
  }
  return counts;
}

// --- The equivalence matrix -------------------------------------------------

constexpr int kCatalogQueries[] = {1,   3,   6,   10,  12, 19,
                                   105, 106, 112};  // all catalog numbers

// A catalog query's result by its scalar oracle: the row count and the
// group counts (Q6: its revenue). Q6's oracle gives no row count.
struct Expected {
  std::optional<uint64_t> count;
  std::vector<uint64_t> group_counts;
};

Expected OracleOf(int query, const TpchDb& db) {
  auto grouped = [](std::vector<uint64_t> counts) {
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    return Expected{total, std::move(counts)};
  };
  switch (query) {
    case 1:
      return grouped(ReferenceQ1Counts(db));
    case 3:
      return {ReferenceQ3(db), {}};
    case 6:
      return {std::nullopt, {ReferenceQ6(db)}};
    case 10:
      return {ReferenceQ10(db), {}};
    case 12:
      return {ReferenceQ12(db), {}};
    case 19:
      return {ReferenceQ19(db), {}};
    case plan::kQueryQ5Multiway:
      return {ReferenceQ5M(db), {}};
    case plan::kQueryQ5Grouped:
      return grouped(ReferenceQ5G(db));
    case plan::kQueryQ12Grouped: {
      const auto [high, low] = ReferenceQ12Grouped(db);
      return grouped({high, low});
    }
  }
  ADD_FAILURE() << "no oracle for query " << query;
  return {};
}

using MatrixParam = std::tuple<int, bool>;

class PlannerEquivalenceTest
    : public ::testing::TestWithParam<MatrixParam> {};

// Both lowerings evaluate predicates with the same kernels, so each is
// checked against the query's scalar oracle, not only against the other.
TEST_P(PlannerEquivalenceTest, LoweringsAgree) {
  auto [query, paged] = GetParam();
  PlannerWorld& w = World();
  const TpchDbView view = paged ? w.paged.View() : ViewOf(w.db);

  QueryConfig cfg;
  cfg.num_threads = 2;
  cfg.radix_bits = 8;

  cfg.pipeline = false;
  auto materializing = RunQuery(query, view, cfg);
  ASSERT_TRUE(materializing.ok()) << materializing.status().ToString();

  cfg.pipeline = true;
  auto fused = RunQuery(query, view, cfg);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();

  // And the default lowering (no pipeline knob).
  cfg.pipeline.reset();
  auto chosen = RunQuery(query, view, cfg);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();

  const Expected want = OracleOf(query, w.db);
  for (const auto& [r, lowering] :
       {std::pair{&materializing.value(), "materializing"},
        std::pair{&fused.value(), "fused"},
        std::pair{&chosen.value(), "default"}}) {
    EXPECT_EQ(r->count, want.count.value_or(materializing.value().count))
        << lowering;
    EXPECT_EQ(r->group_counts, want.group_counts) << lowering;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCatalogQueries, PlannerEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kCatalogQueries),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      const plan::CatalogEntry* e = plan::FindQuery(std::get<0>(info.param));
      std::string name = e != nullptr ? e->name : "unknown";
      name += std::get<1>(info.param) ? "_Paged" : "_Resident";
      // "_Gp" named the fused probe schedule, group prefetching; fused
      // probes now test a key bitmap, and the suffix stays so that the
      // case names do not change.
      name += "_Gp";
      return name;
    });

// --- Plan-only queries against scalar oracles -------------------------------

TEST(PlanOnlyQueryTest, Q5MultiwayMatchesOracle) {
  PlannerWorld& w = World();
  const uint64_t expected = ReferenceQ5M(w.db);
  ASSERT_GT(expected, 0u) << "degenerate dataset";
  for (bool fused : {false, true}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.pipeline = fused;
    auto r = RunQuery(plan::kQueryQ5Multiway, w.db, cfg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().count, expected) << "fused=" << fused;
  }
}

TEST(PlanOnlyQueryTest, Q5GroupedMatchesOracle) {
  PlannerWorld& w = World();
  const std::vector<uint64_t> expected = ReferenceQ5G(w.db);
  uint64_t total = 0;
  for (uint64_t c : expected) total += c;
  ASSERT_GT(total, 0u) << "degenerate dataset";
  for (bool fused : {false, true}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.pipeline = fused;
    auto r = RunQuery(plan::kQueryQ5Grouped, w.db, cfg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().group_counts, expected) << "fused=" << fused;
    EXPECT_EQ(r.value().count, total) << "fused=" << fused;
  }
}

TEST(PlanOnlyQueryTest, GroupedVariantsAgreeWithLegacyOracle) {
  // Q12G through the planner must still match the hand-written oracle
  // that predates the plan layer.
  PlannerWorld& w = World();
  const auto [high, low] = ReferenceQ12Grouped(w.db);
  for (bool fused : {false, true}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.pipeline = fused;
    auto r = RunQuery(plan::kQueryQ12Grouped, w.db, cfg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().group_counts.size(), 2u);
    EXPECT_EQ(r.value().group_counts[0], high);
    EXPECT_EQ(r.value().group_counts[1], low);
  }
}

// --- Ad-hoc plans through RunPlan -------------------------------------------

TEST(RunPlanTest, AdHocPlanRunsInBothModes) {
  // A query that exists in no catalog: orders in 1995 joined to
  // lineitem, counted. Oracle inline.
  PlannerWorld& w = World();
  plan::PlanBuilder b;
  const int ord = b.Scan(
      plan::TableId::kOrders,
      {plan::Predicate::U32Range(plan::ColId::kOOrderdate, kDate19950101,
                                 0xffffffffu)});
  const int li = b.Scan(plan::TableId::kLineitem);
  const int j = b.Join(ord, li, plan::ColId::kOOrderkey,
                       plan::ColId::kLOrderkey);
  auto built = b.Build(b.Aggregate(j, plan::AggSpec::CountStar()), "adhoc");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const plan::Plan plan = std::move(built).value();

  std::unordered_set<uint32_t> orders;
  for (size_t i = 0; i < w.db.orders.num_rows; ++i) {
    if (w.db.orders.o_orderdate[i] >= kDate19950101) {
      orders.insert(w.db.orders.o_orderkey[i]);
    }
  }
  uint64_t expected = 0;
  for (size_t i = 0; i < w.db.lineitem.num_rows; ++i) {
    if (orders.count(w.db.lineitem.l_orderkey[i]) != 0) ++expected;
  }

  for (bool fused : {false, true}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.pipeline = fused;
    auto r = RunPlan(plan, w.db, cfg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().count, expected) << "fused=" << fused;
    // RunPlan attributes a report window named after the plan.
    EXPECT_EQ(r.value().report.query, "adhoc");
  }
}

TEST(RunPlanTest, DuplicateBuildKeysEmitOneRowPerMatch) {
  // Builds on lineitem and probes orders on o_orderkey, so each order is
  // emitted once per lineitem row carrying its key: about four rows per
  // key on l_orderkey, and on l_quantity (50 distinct values) orders 1-50
  // each match about 1/50 of lineitem. Neither build key is a dense key,
  // so the plan is not fusable and lowers materializing (RHO) whatever
  // the pipeline knob says.
  PlannerWorld& w = World();
  for (plan::ColId build_key :
       {plan::ColId::kLOrderkey, plan::ColId::kLQuantity}) {
    const std::string key = plan::ColName(build_key);
    plan::PlanBuilder b;
    const int li = b.Scan(plan::TableId::kLineitem);
    const int ord = b.Scan(plan::TableId::kOrders);
    const int j = b.Join(li, ord, build_key, plan::ColId::kOOrderkey);
    auto built = b.Build(
        b.Aggregate(j, plan::AggSpec::SumProduct(plan::ColId::kOOrderdate,
                                                 plan::ColId::kOCustkey)),
        "dupkeys");
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const plan::Plan plan = std::move(built).value();
    EXPECT_FALSE(plan::FusedLowerable(plan)) << key;
    auto fused = plan::ExecuteFused(plan, ViewOf(w.db), QueryConfig{});
    ASSERT_FALSE(fused.ok()) << key;
    EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument) << key;

    const auto& keys = build_key == plan::ColId::kLOrderkey
                           ? w.db.lineitem.l_orderkey
                           : w.db.lineitem.l_quantity;
    std::unordered_map<uint32_t, uint64_t> lines;
    for (size_t i = 0; i < w.db.lineitem.num_rows; ++i) ++lines[keys[i]];
    uint64_t rows = 0;
    uint64_t sum = 0;
    for (size_t i = 0; i < w.db.orders.num_rows; ++i) {
      const auto it = lines.find(w.db.orders.o_orderkey[i]);
      if (it == lines.end()) continue;
      rows += it->second;
      sum += it->second * w.db.orders.o_orderdate[i] *
             w.db.orders.o_custkey[i];
    }
    ASSERT_GT(rows, w.db.orders.num_rows) << key << ": no repeated matches";

    for (bool paged : {false, true}) {
      const TpchDbView view = paged ? w.paged.View() : ViewOf(w.db);
      for (std::optional<bool> pipeline :
           {std::optional<bool>(), std::optional<bool>(true),
            std::optional<bool>(false)}) {
        QueryConfig cfg;
        cfg.num_threads = 2;
        cfg.pipeline = pipeline;
        const std::string at =
            key + " paged=" + std::to_string(paged) + " pipeline=" +
            (pipeline.has_value() ? std::to_string(*pipeline) : "unset");
        const plan::PlanDecisions d = plan::DecideFor(plan, cfg);
        EXPECT_FALSE(d.fused) << at;
        EXPECT_NE(
            plan::Explain(plan, d).find("mode=materializing (not fusable)"),
            std::string::npos)
            << at;
        auto r = RunPlan(plan, view, cfg);
        ASSERT_TRUE(r.ok()) << at << ": " << r.status().ToString();
        EXPECT_EQ(r.value().count, rows) << at;
        EXPECT_EQ(r.value().group_counts, std::vector<uint64_t>{sum}) << at;
      }
    }
  }
}

// The fused lowering trusts the dense-key declaration (plan::IsDenseKey)
// only as far as it can check it: a build key that repeats, or that lies
// outside [0, rows), fails the query instead of miscounting. At SF 0.03
// orders spans two morsels, so the repeat below sits in two morsels: one
// lane's bitmap sees it twice, or the merge sees it in two lanes.
TEST(RunPlanTest, BrokenDenseKeyFailsTheFusedQuery) {
  auto broken = [](bool repeat) {
    GenConfig gen;
    gen.scale_factor = 0.03;
    TpchDb db = Generate(gen).value();
    const size_t last = db.orders.num_rows - 1;
    EXPECT_GT(last, exec::kMorselGrain);
    db.orders.o_orderkey[last] =
        repeat ? 0u : static_cast<uint32_t>(db.orders.num_rows);
    return db;
  };
  for (bool repeat : {true, false}) {
    const TpchDb db = broken(repeat);
    storage::BufferManager::Config bm_cfg;
    bm_cfg.buffer_bytes = 768 << 10;
    bm_cfg.partition_rows = 4096;
    storage::BufferManager bm(bm_cfg);
    const PagedTpchDb paged = PagedTpchDb::Build(db, &bm).value();
    for (bool on_paged : {false, true}) {
      const TpchDbView view = on_paged ? paged.View() : ViewOf(db);
      for (int threads : {1, 4}) {
        QueryConfig cfg;
        cfg.num_threads = threads;
        cfg.pipeline = true;
        auto r = RunQuery(12, view, cfg);
        const std::string at = std::string(repeat ? "repeat" : "outside") +
                               " paged=" + std::to_string(on_paged) +
                               " threads=" + std::to_string(threads);
        ASSERT_FALSE(r.ok()) << at << ": count " << r.value().count;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << at;
        EXPECT_NE(r.status().message().find("o_orderkey"), std::string::npos)
            << at << ": " << r.status().ToString();
      }
    }
  }
}

// part JOIN (orders JOIN lineitem): the outer join probes another join,
// so the fused lowering cannot drive it and the planner lowers it
// materializing whatever the pipeline knob says.
plan::Plan NonFusablePlan() {
  plan::PlanBuilder b;
  const int ord = b.Scan(
      plan::TableId::kOrders,
      {plan::Predicate::U32Range(plan::ColId::kOOrderdate, kDate19950101,
                                 0xffffffffu)});
  const int li = b.Scan(plan::TableId::kLineitem);
  const int ord_li = b.Join(ord, li, plan::ColId::kOOrderkey,
                            plan::ColId::kLOrderkey);
  const int part = b.Scan(
      plan::TableId::kPart,
      {plan::Predicate::U32Range(plan::ColId::kPSize, 1, 10)});
  const int j = b.Join(part, ord_li, plan::ColId::kPPartkey,
                       plan::ColId::kLPartkey);
  return b.Build(b.Aggregate(j, plan::AggSpec::CountStar()), "nonfusable")
      .value();
}

TEST(RunPlanTest, NonFusablePlanLowersMaterializing) {
  PlannerWorld& w = World();
  const plan::Plan plan = NonFusablePlan();
  ASSERT_FALSE(plan::FusedLowerable(plan));

  std::unordered_set<uint32_t> orders;
  for (size_t i = 0; i < w.db.orders.num_rows; ++i) {
    if (w.db.orders.o_orderdate[i] >= kDate19950101) {
      orders.insert(w.db.orders.o_orderkey[i]);
    }
  }
  std::unordered_set<uint32_t> parts;
  for (size_t i = 0; i < w.db.part.num_rows; ++i) {
    if (w.db.part.p_size[i] >= 1 && w.db.part.p_size[i] <= 10) {
      parts.insert(w.db.part.p_partkey[i]);
    }
  }
  uint64_t expected = 0;
  for (size_t i = 0; i < w.db.lineitem.num_rows; ++i) {
    if (orders.count(w.db.lineitem.l_orderkey[i]) != 0 &&
        parts.count(w.db.lineitem.l_partkey[i]) != 0) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u) << "degenerate dataset";

  for (std::optional<bool> pipeline :
       {std::optional<bool>(), std::optional<bool>(true)}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.pipeline = pipeline;
    const plan::PlanDecisions d = plan::DecideFor(plan, cfg);
    EXPECT_FALSE(d.fused) << "pipeline=" << pipeline.has_value();
    EXPECT_NE(plan::Explain(plan, d).find("mode=materializing (not fusable)"),
              std::string::npos);
    auto fused = plan::ExecuteFused(plan, ViewOf(w.db), cfg);
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument)
        << fused.status().ToString();
    auto r = RunPlan(plan, w.db, cfg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().count, expected)
        << "pipeline=" << pipeline.has_value();
  }
}

TEST(RunPlanTest, InvalidPlanIsRejected) {
  PlannerWorld& w = World();
  QueryConfig cfg;
  plan::Plan empty;
  EXPECT_FALSE(RunPlan(empty, w.db, cfg).ok());
}

TEST(RunQueryTest, UnknownNumbersListTheCatalog) {
  PlannerWorld& w = World();
  QueryConfig cfg;
  auto r = RunQuery(2, w.db, cfg);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown query 2"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("105"), std::string::npos)
      << "error should list the catalog numbers";
}

// --- Planner decision logic --------------------------------------------------

TEST(PlannerDecisionTest, EveryCatalogPlanIsFusedLowerable) {
  for (const plan::CatalogEntry& e : plan::Catalog()) {
    EXPECT_TRUE(plan::FusedLowerable(e.plan)) << e.name;
  }
}

TEST(PlannerDecisionTest, ExplicitPipelineKnobForcesLowering) {
  const plan::CatalogEntry* q3 = plan::FindQuery(3);
  ASSERT_NE(q3, nullptr);
  QueryConfig cfg;

  cfg.pipeline = false;
  plan::PlanDecisions d = plan::DecideFor(q3->plan, cfg);
  EXPECT_FALSE(d.fused);
  EXPECT_TRUE(d.forced);

  cfg.pipeline = true;
  d = plan::DecideFor(q3->plan, cfg);
  EXPECT_TRUE(d.fused);
  EXPECT_TRUE(d.forced);
}

TEST(PlannerDecisionTest, CatalogLowersFusedByDefaultAndRhoWhenForced) {
  for (const plan::CatalogEntry& e : plan::Catalog()) {
    QueryConfig cfg;  // no pipeline knob
    plan::PlanDecisions d = plan::DecideFor(e.plan, cfg);
    EXPECT_TRUE(d.fused) << e.name;
    EXPECT_FALSE(d.forced) << e.name;

    cfg.pipeline = false;
    d = plan::DecideFor(e.plan, cfg);
    EXPECT_FALSE(d.fused) << e.name;
    ASSERT_EQ(d.joins.size(), e.plan.nodes().size()) << e.name;
    for (size_t id = 0; id < d.joins.size(); ++id) {
      const plan::PlanNode& n = e.plan.node(static_cast<int>(id));
      if (n.kind != plan::PlanNode::Kind::kJoin) continue;
      EXPECT_EQ(d.joins[id], join::JoinAlgorithm::kRho)
          << e.name << " node " << id;
    }
  }
}

// A materializing lowering runs RHO on every join: the paper's Section 6
// setup (bench_fig17_tpch). Editing PlanDecisions::joins before
// ExecuteMaterializing runs any of the six joins instead. Each must match
// the reference oracles with either kernel flavour. (The fused lowering
// ignores PlanDecisions::joins, so the equivalence matrix above already
// covers the fused side.)
TEST(PlannerDecisionTest, AllRhoMaterializingMatchesReference) {
  PlannerWorld& w = World();
  const std::pair<int, uint64_t> queries[] = {{3, ReferenceQ3(w.db)},
                                              {10, ReferenceQ10(w.db)},
                                              {12, ReferenceQ12(w.db)},
                                              {19, ReferenceQ19(w.db)}};
  for (const auto& [query, expected] : queries) {
    const plan::CatalogEntry* e = plan::FindQuery(query);
    ASSERT_NE(e, nullptr);
    // Each join's operator runs through join::RunJoin. The marker is a
    // phase only that algorithm records, so a dispatcher that ran another
    // join in its place fails; PHT and CHT both record build and probe.
    const std::pair<join::JoinAlgorithm, const char*> algos[] = {
        {join::JoinAlgorithm::kRho, "hist1"},
        {join::JoinAlgorithm::kPht, nullptr},
        {join::JoinAlgorithm::kCht, nullptr},
        {join::JoinAlgorithm::kMway, "mergejoin"},
        {join::JoinAlgorithm::kInl, "index_build"},
        {join::JoinAlgorithm::kCrk, "crack_parallel"}};
    for (const auto& [algo, marker] : algos) {
      for (KernelFlavor flavor :
           {KernelFlavor::kReference, KernelFlavor::kUnrolledReordered}) {
        QueryConfig cfg;
        cfg.num_threads = 2;
        cfg.radix_bits = 8;
        cfg.flavor = flavor;
        plan::PlanDecisions d = plan::DecideFor(e->plan, cfg);
        for (join::JoinAlgorithm& j : d.joins) j = algo;
        auto r = plan::ExecuteMaterializing(e->plan, ViewOf(w.db), cfg, d);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r.value().count, expected)
            << "Q" << query << " " << join::JoinAlgorithmToString(algo);
        if (marker == nullptr) continue;
        bool ran = false;
        for (const auto& phase : r.value().phases.phases) {
          ran = ran || phase.name.ends_with(std::string(".") + marker);
        }
        EXPECT_TRUE(ran) << "Q" << query << " recorded no " << marker
                         << " phase for "
                         << join::JoinAlgorithmToString(algo);
      }
    }
  }
}

// --- Explain ----------------------------------------------------------------

TEST(ExplainTest, HeaderLineOverPlanText) {
  const plan::CatalogEntry* q3 = plan::FindQuery(3);
  QueryConfig cfg;
  plan::PlanDecisions d = plan::DecideFor(q3->plan, cfg);
  std::string text = plan::Explain(q3->plan, d);
  EXPECT_EQ(text.rfind("mode=fused (default)\n", 0), 0u) << text;
  EXPECT_EQ(text.substr(text.find('\n') + 1), q3->plan.ToText()) << text;
  EXPECT_NE(text.find("plan Q3"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(customer)"), std::string::npos) << text;
  EXPECT_EQ(text.find("RHO"), std::string::npos) << text;
  EXPECT_EQ(text.find("est_cost="), std::string::npos) << text;
  EXPECT_EQ(text.find("rows"), std::string::npos) << text;

  // A materializing explain names the join each node runs.
  cfg.pipeline = false;
  d = plan::DecideFor(q3->plan, cfg);
  text = plan::Explain(q3->plan, d);
  EXPECT_EQ(text.rfind("mode=materializing (forced) joins=RHO,RHO\n", 0), 0u)
      << text;
}

}  // namespace
}  // namespace sgxb::tpch
