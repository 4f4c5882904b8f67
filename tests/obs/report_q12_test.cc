// End-to-end QueryReport check: running TPC-H Q12 against a dynamic
// enclave must produce a report whose transition and EDMM deltas agree
// with the enclave's own accounting (Enclave::memory_stats,
// GetTransitionStats) over the same window.

#include <gtest/gtest.h>

#include "common/types.h"
#include "obs/query_report.h"
#include "plan/plan.h"
#include "sgx/enclave.h"
#include "sgx/transition.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace sgxb::obs {
namespace {

const tpch::TpchDb& Db() {
  static const tpch::TpchDb db = [] {
    tpch::GenConfig cfg;
    cfg.scale_factor = 0.01;
    return tpch::Generate(cfg).value();
  }();
  return db;
}

TEST(QueryReportIntegrationTest, Q12ReportMatchesEnclaveAccounting) {
  // Small initial heap + dynamic growth: the query's enclave allocations
  // must go through EDMM page commits, so the report has churn to count.
  sgx::EnclaveConfig ecfg;
  ecfg.initial_heap_bytes = 256_KiB;
  ecfg.max_heap_bytes = 1_GiB;
  ecfg.dynamic = true;
  sgx::Enclave* enclave = sgx::Enclave::Create(ecfg).value();

  tpch::QueryConfig cfg;
  cfg.num_threads = 4;
  cfg.setting = ExecutionSetting::kSgxDataInEnclave;
  cfg.enclave = enclave;
  cfg.radix_bits = 8;

  const sgx::EnclaveMemoryStats mem_before = enclave->memory_stats();
  const sgx::TransitionStats trans_before = sgx::GetTransitionStats();

  auto result = tpch::RunQuery(12, Db(), cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const sgx::EnclaveMemoryStats mem_after = enclave->memory_stats();
  const sgx::TransitionStats trans_after = sgx::GetTransitionStats();
  const QueryReport& report = result.value().report;

  EXPECT_EQ(report.query, "Q12");
  EXPECT_GT(report.wall_ns, 0.0);
  EXPECT_FALSE(report.phases.empty());
  EXPECT_EQ(result.value().count, tpch::ReferenceQ12(Db()));

  // The report's window covers exactly the query, and this test is the
  // only transition/EDMM activity in the process, so the report deltas
  // must equal the subsystems' own before/after deltas.
  EXPECT_EQ(report.ecalls, trans_after.ecalls - trans_before.ecalls);
  EXPECT_EQ(report.ocalls, trans_after.ocalls - trans_before.ocalls);
  EXPECT_EQ(report.edmm_pages_added,
            mem_after.edmm_pages_added - mem_before.edmm_pages_added);
  EXPECT_EQ(report.edmm_pages_trimmed,
            mem_after.edmm_pages_trimmed - mem_before.edmm_pages_trimmed);

  // The configuration forces real activity: a 256 KiB dynamic enclave
  // must grow to hold Q12's intermediates, and four workers mean gang
  // dispatches.
  EXPECT_GT(report.edmm_pages_added, 0u);
  EXPECT_GT(report.ecalls, 0u);
  EXPECT_GT(report.gangs, 0u);
  EXPECT_GT(report.tasks, 0u);
  EXPECT_GT(report.arena_chunks, 0u);
  EXPECT_GT(report.arena_bytes, 0u);

  // Report serializations carry the query name and the headline counters.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"query\": \"Q12\""), std::string::npos);
  EXPECT_NE(json.find("edmm_pages_added"), std::string::npos);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("Q12"), std::string::npos);

  sgx::DestroyEnclave(enclave);
}

TEST(QueryReportIntegrationTest, ScopeDiffsAreWindowed) {
  // Activity before the scope opens must not leak into the report.
  Registry::Global().GetCounter(kCtrEcalls)->Add(100);
  QueryReportScope scope("window_test");
  Registry::Global().GetCounter(kCtrEcalls)->Add(7);
  QueryReport report = scope.Finish();
  EXPECT_EQ(report.ecalls, 7u);
  EXPECT_EQ(report.query, "window_test");
}

TEST(QueryReportIntegrationTest, PoolHitRate) {
  QueryReport r;
  EXPECT_EQ(r.PoolHitRate(), 0.0);
  r.pool_hits = 3;
  r.pool_misses = 1;
  EXPECT_DOUBLE_EQ(r.PoolHitRate(), 0.75);
}

// Plan names are chosen by clients (serve::QueryRequest::plan) and reach
// the report JSON as the query name and, on the fused path, as the
// prefix of every phase name: both must come out escaped.
TEST(QueryReportIntegrationTest, JsonEscapesPlanName) {
  plan::PlanBuilder b;
  const int scan = b.Scan(plan::TableId::kLineitem);
  auto built =
      b.Build(b.Aggregate(scan, plan::AggSpec::CountStar()), "a\"b\\c\n");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (bool fused : {false, true}) {
    tpch::QueryConfig cfg;
    cfg.pipeline = fused;
    auto result = tpch::RunPlan(built.value(), Db(), cfg);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().count, Db().lineitem.num_rows);
    const std::string json = result.value().report.ToJson();
    EXPECT_EQ(json.rfind("{\"query\": \"a\\\"b\\\\c\\n\", ", 0), 0u) << json;
    EXPECT_EQ(json.find('\n'), std::string::npos) << json;
    if (fused) {
      EXPECT_NE(json.find("{\"a\\\"b\\\\c\\n."), std::string::npos) << json;
    }
  }
}

}  // namespace
}  // namespace sgxb::obs
