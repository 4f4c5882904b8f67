// Simplified TPC-H queries 3, 10, 12, and 19 (paper Section 6), plus the
// extension queries of the plan catalog (plan/catalog.h, which documents
// each query and the shape of its result).
//
// Following the paper's setup: only scans and joins remain, the final
// aggregation is count(*), and dates and categorical strings are
// integers. RunQuery is the one entry point: it runs the query's catalog
// plan through the planner (plan/planner.h), which lowers it fused
// unless QueryConfig::pipeline is false. The paper's own setup — fully
// materializing, every join RHO — is what `pipeline = false` runs
// (bench_fig17_tpch).

#ifndef SGXB_TPCH_QUERIES_H_
#define SGXB_TPCH_QUERIES_H_

#include "obs/query_report.h"
#include "perf/access_profile.h"
#include "tpch/db_view.h"
#include "tpch/operators.h"
#include "tpch/tpch_schema.h"

namespace sgxb::plan {
class Plan;
}

namespace sgxb::tpch {

struct QueryResult {
  uint64_t count = 0;
  double host_ns = 0;
  perf::PhaseBreakdown phases;
  /// Extension: per-group counts when the query ends in a GROUP BY
  /// (empty for the paper's count(*) finals).
  std::vector<uint64_t> group_counts;
  /// Registry-counter deltas over this execution (transitions, EDMM page
  /// churn, arena/pool and executor activity). Filled by RunQuery and
  /// RunPlan.
  obs::QueryReport report;
};

/// \brief Any catalog query by number (plan/catalog.h): the paper's
/// 1/3/6/10/12/19 plus the plan-only queries (105/106/112). Dispatch is
/// table-driven off the catalog; unknown numbers return
/// Status::InvalidArgument listing what exists. The view overload runs
/// over resident or paged columns (tpch/paged_db.h, docs/storage.md)
/// with byte-identical results.
Result<QueryResult> RunQuery(int query_number, const TpchDb& db,
                             const QueryConfig& config);
Result<QueryResult> RunQuery(int query_number, const TpchDbView& db,
                             const QueryConfig& config);

/// \brief Runs an arbitrary validated plan through the planner (lowering
/// choice, then execution), with the same report/metric
/// attribution as RunQuery. This is how the serving layer submits plans
/// directly (serve::QueryRequest::plan) and how plan-only queries run.
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDb& db,
                            const QueryConfig& config);
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDbView& db,
                            const QueryConfig& config);

/// \brief Oracle for the grouped Q12 (plan::kQueryQ12Grouped):
/// (high_count, low_count).
std::pair<uint64_t, uint64_t> ReferenceQ12Grouped(const TpchDb& db);

/// \brief Oracles for the extension queries.
std::vector<uint64_t> ReferenceQ1Counts(const TpchDb& db);
std::vector<uint64_t> ReferenceQ1Sums(const TpchDb& db);
uint64_t ReferenceQ6(const TpchDb& db);

/// \brief Reference (single-threaded, obviously-correct) evaluation of the
/// same queries; the test oracle.
uint64_t ReferenceQ3(const TpchDb& db);
uint64_t ReferenceQ10(const TpchDb& db);
uint64_t ReferenceQ12(const TpchDb& db);
uint64_t ReferenceQ19(const TpchDb& db);

}  // namespace sgxb::tpch

#endif  // SGXB_TPCH_QUERIES_H_
