// The planner: lowers a logical Plan to execution (docs/planner.md).
//
// Lowering picks one of the two execution modes the repo grew by hand —
// the paper's materializing operator-at-a-time path (tpch/operators.h)
// or a chain of fused RunMorselPipeline stages (exec/pipeline.h) — and,
// per join node, a join flavour (RHO / PHT / CHT) plus probe scheduling.
// QueryConfig is the only input: an explicit field wins, otherwise the
// kernel flavour's default or the calibrated cost model (perf/cost_model.h)
// evaluated over cardinality estimates from the bound database view
// decides. Nothing here reads the environment.
//
// Compiled into sgxb_tpch (it drives the tpch operators); the plan IR
// itself (sgxb_plan) stays free of execution dependencies.

#ifndef SGXB_PLAN_PLANNER_H_
#define SGXB_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "exec/probe_pipeline.h"
#include "join/join_common.h"
#include "plan/plan.h"
#include "tpch/queries.h"

namespace sgxb::plan {

/// \brief Per-join-node lowering decision.
struct JoinChoice {
  join::JoinAlgorithm algo = join::JoinAlgorithm::kRho;
  /// Estimated cost of the chosen flavour (materializing form), ns.
  double cost_ns = 0;
};

/// \brief Everything the planner decided for one (plan, db, config)
/// binding. est_rows/joins are indexed by plan node id.
struct PlanDecisions {
  /// Chosen lowering: fused morsel pipelines vs materializing operators.
  bool fused = false;
  /// True when the mode came from the cost model (QueryConfig::pipeline
  /// unset).
  bool mode_cost_based = false;
  /// Modeled cost of each whole-plan lowering, ns (0 = not evaluated).
  double fused_cost_ns = 0;
  double materializing_cost_ns = 0;
  /// Probe scheduling for every hash probe in the plan (fused stages and
  /// the join flavours' probe loops resolve identically).
  exec::ProbeMode probe_mode = exec::ProbeMode::kGroupPrefetch;
  int probe_batch = 0;
  /// Estimated output rows per node (selectivity priors x cardinality).
  std::vector<double> est_rows;
  /// Join flavour decision per node (meaningful at kJoin nodes).
  std::vector<JoinChoice> joins;
};

/// \brief Computes every lowering decision for `plan` bound to `db`
/// under `config`. Deterministic; does not execute anything. Callers
/// that need a fixed lowering (bench_fig17_tpch forces every join to
/// RHO) edit the returned decisions and pass them to ExecuteFused or
/// ExecuteMaterializing.
PlanDecisions DecideFor(const Plan& plan, const tpch::TpchDbView& db,
                        const tpch::QueryConfig& config);

/// \brief Plan dump annotated with the decisions: per-node estimated
/// rows, join flavour / probe mode / estimated cost, and the chosen
/// mode with both modeled lowering costs (`sgxbench_cli query` prints it
/// after each result).
std::string Explain(const Plan& plan, const PlanDecisions& decisions);

/// \brief Executes `plan` with the given decisions through the
/// materializing operator path. Exposed (like ExecuteFused) so tests and
/// benches can force one lowering; RunPlan/ExecutePlan is the normal
/// entry.
Result<tpch::QueryResult> ExecuteMaterializing(
    const Plan& plan, const tpch::TpchDbView& db,
    const tpch::QueryConfig& config, const PlanDecisions& decisions);

/// \brief Executes `plan` as a chain of fused morsel pipelines.
/// Requires every join's probe child to be a scan (DecideFor never
/// chooses fused otherwise; catalog plans all qualify).
Result<tpch::QueryResult> ExecuteFused(const Plan& plan,
                                       const tpch::TpchDbView& db,
                                       const tpch::QueryConfig& config,
                                       const PlanDecisions& decisions);

/// \brief True when ExecuteFused can lower this plan (all probe
/// children are scans).
bool FusedLowerable(const Plan& plan);

/// \brief Decide + execute: the planner's main entry point.
/// tpch::RunPlan / RunQuery wrap this.
Result<tpch::QueryResult> ExecutePlan(const Plan& plan,
                                      const tpch::TpchDbView& db,
                                      const tpch::QueryConfig& config);

}  // namespace sgxb::plan

#endif  // SGXB_PLAN_PLANNER_H_
