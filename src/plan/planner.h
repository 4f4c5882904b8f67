// The planner: lowers a logical Plan to execution (docs/planner.md).
//
// There are two lowerings: a chain of fused RunMorselPipeline stages
// (exec/pipeline.h) and the paper's materializing operator-at-a-time
// path (tpch/operators.h), in which every join runs RHO, the paper's
// join. A plan lowers fused whenever ExecuteFused can drive it, unless
// QueryConfig::pipeline is false; everything else lowers materializing.
// Nothing here reads the environment or estimates a cost.
//
// Compiled into sgxb_tpch (it drives the tpch operators); the plan IR
// itself (sgxb_plan) stays free of execution dependencies.

#ifndef SGXB_PLAN_PLANNER_H_
#define SGXB_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "join/join_common.h"
#include "plan/plan.h"
#include "tpch/queries.h"

namespace sgxb::scan {
struct GatherKernels;
}

namespace sgxb::plan {

/// \brief Everything the planner decided for one (plan, config) binding.
struct PlanDecisions {
  /// Chosen lowering: fused morsel pipelines vs materializing operators.
  bool fused = false;
  /// True when QueryConfig::pipeline was set.
  bool forced = false;
  /// Join algorithm per plan node id (meaningful at kJoin nodes), used by
  /// the materializing lowering: RHO everywhere. Callers may edit it
  /// before ExecuteMaterializing to run another of the six joins.
  std::vector<join::JoinAlgorithm> joins;
};

/// \brief Computes the lowering decisions for `plan` under `config`.
/// Deterministic and cheap; does not execute anything.
PlanDecisions DecideFor(const Plan& plan, const tpch::QueryConfig& config);

/// \brief One header line with the decisions (the lowering and why, then
/// the materializing joins' algorithms) over Plan::ToText()
/// (`sgxbench_cli query` prints it after each result).
std::string Explain(const Plan& plan, const PlanDecisions& decisions);

/// \brief Executes `plan` with the given decisions through the
/// materializing operator path. Exposed (like ExecuteFused) so tests and
/// benches can force one lowering; RunPlan/ExecutePlan is the normal
/// entry.
Result<tpch::QueryResult> ExecuteMaterializing(
    const Plan& plan, const tpch::TpchDbView& db,
    const tpch::QueryConfig& config, const PlanDecisions& decisions);

/// \brief Executes `plan` as a chain of fused morsel pipelines, every
/// join probing a bitmap of its build keys. Requires FusedLowerable
/// (DecideFor never chooses fused otherwise; catalog plans all qualify).
/// A build key that breaks its dense-key declaration (a repeat, or a key
/// outside [0, rows)) fails the query with InvalidArgument.
Result<tpch::QueryResult> ExecuteFused(const Plan& plan,
                                       const tpch::TpchDbView& db,
                                       const tpch::QueryConfig& config);

/// \brief True when ExecuteFused can lower this plan: every join
/// probes a scan and builds on a dense key (IsDenseKey).
bool FusedLowerable(const Plan& plan);

/// \brief Thins the ascending row ids ids[0, m) of p's table by `p` into
/// `out` (room for m ids) with the gather kernels `g`, split at the run
/// boundaries of the columns `p` reads, and returns how many survived,
/// in order. The one predicate evaluator of both lowerings: a fused
/// stage refines each morsel with it, the materializing lowering each
/// thread slice of a row-id list (tpch::RefineRows).
Result<size_t> Refine(const Predicate& p, const tpch::TpchDbView& db,
                      const scan::GatherKernels& g, const uint64_t* ids,
                      size_t m, uint64_t* out);

/// \brief Bytes of the columns `p` reads over a table of `rows` rows
/// (the working set both lowerings' profiles charge for it).
size_t PredicateBytes(const Predicate& p, size_t rows);

/// \brief Decide + execute: the planner's main entry point.
/// tpch::RunPlan / RunQuery wrap this.
Result<tpch::QueryResult> ExecutePlan(const Plan& plan,
                                      const tpch::TpchDbView& db,
                                      const tpch::QueryConfig& config);

}  // namespace sgxb::plan

#endif  // SGXB_PLAN_PLANNER_H_
