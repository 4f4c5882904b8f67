// Simplified TPC-H queries 3, 10, 12, and 19 (paper Section 6), plus the
// extension queries of the plan catalog (plan/catalog.h).
//
// Following the paper's setup: only scans and joins remain, the final
// aggregation is count(*), and dates and categorical strings are
// integers. Every entry point runs its catalog plan through the planner
// (plan/planner.h), which picks the lowering (materializing operators or
// fused pipelines) and each join's flavour (RHO / PHT / CHT) from
// explicit config, then the SGXBENCH_* force knobs, then the cost model.
// The paper's own setup — fully materializing, every join RHO — is what
// bench_fig17_tpch forces through plan::DecideFor and
// plan::ExecuteMaterializing.

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
  /// churn, arena/pool and executor activity). Filled by RunQuery; the
  /// RunQ* entry points leave it default (their callers own the window).
  obs::QueryReport report;
  /// The planner's annotated plan dump (node tree, chosen join flavour /
  /// probe mode / estimated costs). Filled only when SGXBENCH_EXPLAIN is
  /// set; empty otherwise.
  std::string explain;
};

// Every entry point has a TpchDbView overload: the view's columns may be
// resident or paged through the out-of-EPC buffer manager
// (tpch/paged_db.h, docs/storage.md); both overloads run the same
// (templated) body and produce byte-identical results.

/// \brief Q3: shipping priority. customer (mktsegment = BUILDING) JOIN
/// orders (orderdate < 1995-03-15) JOIN lineitem (shipdate > 1995-03-15).
Result<QueryResult> RunQ3(const TpchDb& db, const QueryConfig& config);
Result<QueryResult> RunQ3(const TpchDbView& db, const QueryConfig& config);

/// \brief Q10: returned items. customer JOIN orders (orderdate in
/// [1993-10-01, 1994-01-01)) JOIN lineitem (returnflag = 'R').
Result<QueryResult> RunQ10(const TpchDb& db, const QueryConfig& config);
Result<QueryResult> RunQ10(const TpchDbView& db, const QueryConfig& config);

/// \brief Q12: shipping modes. orders JOIN lineitem (shipmode in {MAIL,
/// SHIP}, commitdate < receiptdate, shipdate < commitdate, receiptdate in
/// [1994-01-01, 1995-01-01)).
Result<QueryResult> RunQ12(const TpchDb& db, const QueryConfig& config);
Result<QueryResult> RunQ12(const TpchDbView& db, const QueryConfig& config);

/// \brief Q19: discounted revenue. part JOIN lineitem with the disjunction
/// of three brand/container/quantity/size branches; executed as three
/// disjoint joins (branches select distinct brands) whose counts sum.
Result<QueryResult> RunQ19(const TpchDb& db, const QueryConfig& config);
Result<QueryResult> RunQ19(const TpchDbView& db, const QueryConfig& config);

/// \brief Any catalog query by number (plan/catalog.h): the paper's
/// 1/3/6/10/12/19 plus the plan-only queries (105/106/112). Dispatch is
/// table-driven off the catalog; unknown numbers return
/// Status::InvalidArgument listing what exists.
Result<QueryResult> RunQuery(int query_number, const TpchDb& db,
                             const QueryConfig& config);
Result<QueryResult> RunQuery(int query_number, const TpchDbView& db,
                             const QueryConfig& config);

/// \brief Runs an arbitrary validated plan through the planner (mode +
/// join-flavour choice, then lowering), with the same report/metric
/// attribution as RunQuery. This is how the serving layer submits plans
/// directly (serve::QueryRequest::plan) and how plan-only queries run.
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDb& db,
                            const QueryConfig& config);
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDbView& db,
                            const QueryConfig& config);

/// \brief Extension: Q12 with its real GROUP BY final — line counts per
/// priority class (group 0 = high: URGENT/HIGH orders; group 1 = low).
/// The paper replaces this aggregation with count(*); this restores it.
Result<QueryResult> RunQ12Grouped(const TpchDb& db,
                                  const QueryConfig& config);
Result<QueryResult> RunQ12Grouped(const TpchDbView& db,
                                  const QueryConfig& config);

/// \brief Oracle for RunQ12Grouped: (high_count, low_count).
std::pair<uint64_t, uint64_t> ReferenceQ12Grouped(const TpchDb& db);

/// \brief Extension Q1: pricing summary. Pure scan + GROUP BY
/// (returnflag, linestatus) with count(*) and sum(quantity) per group
/// over lineitem rows with shipdate <= 1998-09-02. group_counts holds
/// the per-group counts (flag * kNumLineStatuses + status); `count` is
/// their total.
Result<QueryResult> RunQ1(const TpchDb& db, const QueryConfig& config);
Result<QueryResult> RunQ1(const TpchDbView& db, const QueryConfig& config);

/// \brief Extension Q6: forecasting revenue. Pure scan:
/// sum(extendedprice * discount) over shipdate in 1994, discount in
/// [5, 7], quantity < 24. `count` holds the qualifying row count and
/// group_counts[0] the revenue sum.
Result<QueryResult> RunQ6(const TpchDb& db, const QueryConfig& config);
Result<QueryResult> RunQ6(const TpchDbView& db, const QueryConfig& config);

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
