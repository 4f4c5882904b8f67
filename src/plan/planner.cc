#include "plan/planner.h"

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "scan/scan_kernels.h"
#include "tpch/operators.h"

namespace sgxb::plan {

namespace {

using tpch::QueryConfig;
using tpch::QueryResult;
using tpch::RowIdList;

}  // namespace

bool FusedLowerable(const Plan& plan) {
  if (!plan.valid()) return false;
  for (const PlanNode& n : plan.nodes()) {
    if (n.kind == PlanNode::Kind::kJoin &&
        (plan.node(n.probe).kind != PlanNode::Kind::kScan ||
         !IsDenseKey(n.build_key))) {
      return false;
    }
  }
  return true;
}

PlanDecisions DecideFor(const Plan& plan, const QueryConfig& config) {
  PlanDecisions d;
  // A plan the fused lowering can drive runs fused unless the config
  // asks for the paper's operator-at-a-time path; every join of a
  // materializing lowering runs RHO.
  d.forced = config.pipeline.has_value();
  d.fused = config.pipeline.value_or(true) && FusedLowerable(plan);
  d.joins.assign(plan.nodes().size(), join::JoinAlgorithm::kRho);
  return d;
}

std::string Explain(const Plan& plan, const PlanDecisions& d) {
  std::ostringstream os;
  const char* why = !FusedLowerable(plan) ? "not fusable"
                    : d.forced           ? "forced"
                                         : "default";
  os << "mode=" << (d.fused ? "fused" : "materializing") << " (" << why
     << ")";
  if (!d.fused) {
    const char* sep = " joins=";
    for (size_t id = 0; id < plan.nodes().size(); ++id) {
      if (plan.node(static_cast<int>(id)).kind != PlanNode::Kind::kJoin) {
        continue;
      }
      os << sep << join::JoinAlgorithmToString(d.joins[id]);
      sep = ",";
    }
  }
  os << "\n" << plan.ToText();
  return os.str();
}

// --- Materializing lowering ----------------------------------------------
// Reproduces the operator-at-a-time drivers generically: filters drive
// the first predicate, refinements (Refine per thread slice) the rest,
// joins gather both key columns and run PlanDecisions::joins (RHO). A
// count(*) root lowers its final join as a CountingJoin (no output
// materialization), exactly like the hand-written query bodies did.

namespace {

class MatExecutor {
 public:
  MatExecutor(const Plan& plan, const tpch::TpchDbView& db,
              const QueryConfig& config, const PlanDecisions& dec)
      : plan_(plan),
        db_(db),
        config_(config),
        dec_(dec),
        gather_(scan::PickGatherKernels(SimdLevel::kAvx512)) {}

  Result<QueryResult> Run();

 private:
  using RowsOpt = std::optional<RowIdList>;  // nullopt = every row

  Result<RowsOpt> ExecNode(int id, const std::string& suffix);
  Result<RowsOpt> ExecScan(int id, const std::string& suffix);
  Result<RowIdList> ExecJoin(int id, const std::string& suffix);
  Result<uint64_t> ExecCount(int id, const std::string& suffix);
  Result<Relation> Gather(ColId key, const RowsOpt& rows,
                          const std::string& suffix);
  Result<RowIdList> RowsOrIota(int id, RowsOpt rows);

  std::string JoinName(const PlanNode& n, const std::string& suffix) const {
    return std::string("join_") + TableName(plan_.OutputTable(n.build)) +
           "_" + TableName(plan_.OutputTable(n.probe)) + suffix;
  }

  const Plan& plan_;
  const tpch::TpchDbView& db_;
  const QueryConfig& config_;
  const PlanDecisions& dec_;
  const scan::GatherKernels& gather_;
  tpch::OpRecorder rec_;
};

Result<MatExecutor::RowsOpt> MatExecutor::ExecScan(
    int id, const std::string& suffix) {
  const PlanNode& n = plan_.node(id);
  if (n.predicates.empty()) return RowsOpt{};
  size_t next = 0;
  Result<RowIdList> rows = [&]() -> Result<RowIdList> {
    const Predicate& p = n.predicates[0];
    switch (p.kind) {
      case Predicate::Kind::kU32Range:
        next = 1;
        return tpch::FilterU32Range(
            U32Column(db_, p.col), p.lo, p.hi, config_, &rec_,
            std::string("filter_") + ColName(p.col) + suffix);
      case Predicate::Kind::kU8Range:
        next = 1;
        return tpch::FilterU8Range(
            U8Column(db_, p.col), static_cast<uint8_t>(p.lo),
            static_cast<uint8_t>(p.hi), config_, &rec_,
            std::string("filter_") + ColName(p.col) + suffix);
      case Predicate::Kind::kColLess:
        // No direct filter form; scan the left column full-range and let
        // the refinement loop below apply the predicate itself.
        return tpch::FilterU32Range(
            U32Column(db_, p.col), 0, 0xffffffffu, config_, &rec_,
            std::string("filter_") + TableName(n.table) + suffix);
      case Predicate::Kind::kU8InSet:
        return tpch::FilterU8Range(
            U8Column(db_, p.col), 0, 255, config_, &rec_,
            std::string("filter_") + TableName(n.table) + suffix);
    }
    return Status::Internal("unreachable predicate kind");
  }();
  if (!rows.ok()) return rows.status();

  for (size_t i = next; i < n.predicates.size(); ++i) {
    const Predicate& p = n.predicates[i];
    auto refined = tpch::RefineRows(
        rows.value(),
        [&](const uint64_t* ids, size_t m, uint64_t* out) {
          return Refine(p, db_, gather_, ids, m, out);
        },
        PredicateBytes(p, TableRows(db_, n.table)), config_, &rec_,
        std::string("refine_") + ColName(p.col) + suffix);
    if (!refined.ok()) return refined.status();
    rows = std::move(refined);
  }
  return RowsOpt{std::move(rows).value()};
}

Result<Relation> MatExecutor::Gather(ColId key, const RowsOpt& rows,
                                     const std::string& suffix) {
  return tpch::GatherKeys(U32Column(db_, key),
                          rows.has_value() ? &*rows : nullptr, config_,
                          &rec_,
                          std::string("gather_") + ColName(key) + suffix);
}

Result<RowIdList> MatExecutor::ExecJoin(int id, const std::string& suffix) {
  const PlanNode& n = plan_.node(id);
  auto build_rows = ExecNode(n.build, suffix);
  if (!build_rows.ok()) return build_rows.status();
  auto probe_rows = ExecNode(n.probe, suffix);
  if (!probe_rows.ok()) return probe_rows.status();
  auto build = Gather(n.build_key, build_rows.value(), suffix);
  if (!build.ok()) return build.status();
  auto probe = Gather(n.probe_key, probe_rows.value(), suffix);
  if (!probe.ok()) return probe.status();
  auto step = tpch::MaterializingJoin(
      build.value(), probe.value(), config_, &rec_, JoinName(n, suffix),
      dec_.joins[static_cast<size_t>(id)]);
  if (!step.ok()) return step.status();
  return std::move(step.value().probe_rows);
}

Result<MatExecutor::RowsOpt> MatExecutor::ExecNode(
    int id, const std::string& suffix) {
  const PlanNode& n = plan_.node(id);
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      return ExecScan(id, suffix);
    case PlanNode::Kind::kJoin: {
      auto rows = ExecJoin(id, suffix);
      if (!rows.ok()) return rows.status();
      return RowsOpt{std::move(rows).value()};
    }
    case PlanNode::Kind::kUnionAll: {
      std::vector<RowIdList> parts;
      uint64_t total = 0;
      int branch = 0;
      for (int c : n.children) {
        auto part =
            ExecNode(c, suffix + "_b" + std::to_string(++branch));
        if (!part.ok()) return part.status();
        if (!part.value().has_value()) return RowsOpt{};  // all rows
        total += part.value()->count();
        parts.push_back(std::move(*part.value()));
      }
      auto merged = RowIdList::Allocate(total, config_);
      if (!merged.ok()) return merged.status();
      uint64_t k = 0;
      uint64_t* out = merged.value().ids();
      for (const RowIdList& part : parts) {
        const uint64_t* ids = part.ids();
        for (uint64_t i = 0; i < part.count(); ++i) out[k++] = ids[i];
      }
      merged.value().set_count(k);
      tpch::ChargeBytesMaterialized(k * sizeof(uint64_t));
      return RowsOpt{std::move(merged).value()};
    }
    case PlanNode::Kind::kAggregate:
      break;
  }
  return Status::Internal("ExecNode reached an aggregate node");
}

Result<uint64_t> MatExecutor::ExecCount(int id, const std::string& suffix) {
  const PlanNode& n = plan_.node(id);
  switch (n.kind) {
    case PlanNode::Kind::kScan: {
      auto rows = ExecScan(id, suffix);
      if (!rows.ok()) return rows.status();
      if (!rows.value().has_value()) {
        return static_cast<uint64_t>(TableRows(db_, n.table));
      }
      return rows.value()->count();
    }
    case PlanNode::Kind::kJoin: {
      auto build_rows = ExecNode(n.build, suffix);
      if (!build_rows.ok()) return build_rows.status();
      auto probe_rows = ExecNode(n.probe, suffix);
      if (!probe_rows.ok()) return probe_rows.status();
      auto build = Gather(n.build_key, build_rows.value(), suffix);
      if (!build.ok()) return build.status();
      auto probe = Gather(n.probe_key, probe_rows.value(), suffix);
      if (!probe.ok()) return probe.status();
      return tpch::CountingJoin(build.value(), probe.value(), config_,
                                &rec_, JoinName(n, suffix),
                                dec_.joins[static_cast<size_t>(id)]);
    }
    case PlanNode::Kind::kUnionAll: {
      uint64_t total = 0;
      int branch = 0;
      for (int c : n.children) {
        auto count = ExecCount(c, suffix + "_b" + std::to_string(++branch));
        if (!count.ok()) return count.status();
        total += count.value();
      }
      return total;
    }
    case PlanNode::Kind::kAggregate:
      break;
  }
  return Status::Internal("ExecCount reached an aggregate node");
}

Result<RowIdList> MatExecutor::RowsOrIota(int id, RowsOpt rows) {
  if (rows.has_value()) return std::move(*rows);
  const size_t n = TableRows(db_, plan_.OutputTable(id));
  auto list = RowIdList::Allocate(n, config_);
  if (!list.ok()) return list.status();
  uint64_t* ids = list.value().ids();
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  list.value().set_count(n);
  return std::move(list).value();
}

Result<QueryResult> MatExecutor::Run() {
  WallTimer timer;
  const PlanNode& root = plan_.node(plan_.root());
  const AggSpec& agg = root.agg;
  QueryResult result;
  switch (agg.kind) {
    case AggSpec::Kind::kCountStar: {
      auto count = ExecCount(root.input, "");
      if (!count.ok()) return count.status();
      result.count = count.value();
      break;
    }
    case AggSpec::Kind::kGroupCountViaFk: {
      auto rows_opt = ExecNode(root.input, "");
      if (!rows_opt.ok()) return rows_opt.status();
      auto rows = RowsOrIota(root.input, std::move(rows_opt).value());
      if (!rows.ok()) return rows.status();
      auto counts = tpch::GroupCountU8ViaFk(
          U8Column(db_, agg.values), U32Column(db_, agg.fk), rows.value(),
          agg.num_groups, config_, &rec_,
          std::string("group_by_") + ColName(agg.values));
      if (!counts.ok()) return counts.status();
      result.group_counts = agg.FoldGroups(std::move(counts).value());
      for (uint64_t c : result.group_counts) result.count += c;
      break;
    }
    case AggSpec::Kind::kGroupSum2: {
      auto rows_opt = ExecNode(root.input, "");
      if (!rows_opt.ok()) return rows_opt.status();
      const RowIdList* rows_ptr = rows_opt.value().has_value()
                                      ? &*rows_opt.value()
                                      : nullptr;
      auto aggs = tpch::GroupSumU32By2U8(
          U32Column(db_, agg.value), U8Column(db_, agg.g1), agg.num_g1,
          U8Column(db_, agg.g2), agg.num_g2, rows_ptr, config_, &rec_,
          std::string("group_") + ColName(agg.g1) + "_" + ColName(agg.g2));
      if (!aggs.ok()) return aggs.status();
      for (const tpch::GroupAgg& g : aggs.value()) {
        result.group_counts.push_back(g.count);
        result.count += g.count;
      }
      break;
    }
    case AggSpec::Kind::kSumProduct: {
      auto rows_opt = ExecNode(root.input, "");
      if (!rows_opt.ok()) return rows_opt.status();
      auto rows = RowsOrIota(root.input, std::move(rows_opt).value());
      if (!rows.ok()) return rows.status();
      auto sum = tpch::SumProductU32(
          U32Column(db_, agg.value), U32Column(db_, agg.value2),
          rows.value(), config_, &rec_,
          std::string("sum_") + ColName(agg.value) + "_" +
              ColName(agg.value2));
      if (!sum.ok()) return sum.status();
      result.count = rows.value().count();
      result.group_counts = {sum.value()};
      break;
    }
  }
  result.host_ns = static_cast<double>(timer.ElapsedNanos());
  result.phases = rec_.Take();
  return result;
}

}  // namespace

Result<QueryResult> ExecuteMaterializing(const Plan& plan,
                                         const tpch::TpchDbView& db,
                                         const QueryConfig& config,
                                         const PlanDecisions& decisions) {
  if (!plan.valid()) {
    return Status::InvalidArgument("cannot execute an invalid plan");
  }
  MatExecutor exec(plan, db, config, decisions);
  return exec.Run();
}

Result<QueryResult> ExecutePlan(const Plan& plan,
                                const tpch::TpchDbView& db,
                                const QueryConfig& config) {
  if (!plan.valid()) {
    return Status::InvalidArgument("cannot execute an invalid plan");
  }
  const PlanDecisions decisions = DecideFor(plan, config);
  return decisions.fused ? ExecuteFused(plan, db, config)
                         : ExecuteMaterializing(plan, db, config, decisions);
}

}  // namespace sgxb::plan
