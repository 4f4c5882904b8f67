#include "plan/planner.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "join/cht_join.h"
#include "join/hash_table.h"
#include "join/pht_join.h"
#include "perf/cost_model.h"
#include "tpch/operators.h"

namespace sgxb::plan {

namespace {

using tpch::QueryConfig;
using tpch::QueryResult;
using tpch::RowIdList;

size_t ColWidth(ColId col) {
  return TypeOf(col) == ColType::kU32 ? sizeof(uint32_t) : sizeof(uint8_t);
}

int PopCount(uint64_t v) {
  int n = 0;
  while (v != 0) {
    v &= v - 1;
    ++n;
  }
  return n;
}

// --- Cardinality priors ---------------------------------------------------
// Fixed selectivity priors per predicate shape. The repo has no column
// statistics (the generator's distributions are uniform), so the priors
// only need to rank alternatives sanely, not predict row counts exactly.

double Selectivity(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kU32Range:
      return p.lo == p.hi ? 0.05 : 0.3;
    case Predicate::Kind::kU8Range:
      return p.lo == p.hi ? 1.0 / 16.0 : 0.2;
    case Predicate::Kind::kU8InSet:
      return std::min(1.0, PopCount(p.mask) / 16.0);
    case Predicate::Kind::kColLess:
      return 0.5;
  }
  return 1.0;
}

void EstimateRows(const Plan& plan, const tpch::TpchDbView& db, int id,
                  std::vector<double>* est) {
  const PlanNode& n = plan.node(id);
  double rows = 0;
  switch (n.kind) {
    case PlanNode::Kind::kScan: {
      rows = static_cast<double>(TableRows(db, n.table));
      for (const Predicate& p : n.predicates) rows *= Selectivity(p);
      break;
    }
    case PlanNode::Kind::kJoin: {
      EstimateRows(plan, db, n.build, est);
      EstimateRows(plan, db, n.probe, est);
      // Semi-join shape: a probe row survives iff its key hits the build
      // side, so the join selects the build side's surviving fraction of
      // the probe rows.
      const double build_table = static_cast<double>(
          std::max<size_t>(TableRows(db, plan.OutputTable(n.build)), 1));
      const double build_frac =
          std::min(1.0, (*est)[static_cast<size_t>(n.build)] / build_table);
      rows = (*est)[static_cast<size_t>(n.probe)] * build_frac;
      break;
    }
    case PlanNode::Kind::kUnionAll: {
      for (int c : n.children) {
        EstimateRows(plan, db, c, est);
        rows += (*est)[static_cast<size_t>(c)];
      }
      break;
    }
    case PlanNode::Kind::kAggregate: {
      EstimateRows(plan, db, n.input, est);
      rows = (*est)[static_cast<size_t>(n.input)];
      break;
    }
  }
  (*est)[static_cast<size_t>(id)] = rows;
}

// --- Join flavour costing -------------------------------------------------
// One AccessProfile per flavour, shaped like the profiles the joins
// themselves record: RHO pays two streaming partition passes and probes
// cache-resident partitions; PHT builds and probes one shared table whose
// working set is the whole table; CHT is PHT with a second build pass and
// a smaller (concise) table.

perf::ExecutionEnv EnvOf(const QueryConfig& config) {
  perf::ExecutionEnv env;
  env.setting = config.setting;
  env.threads = config.num_threads;
  return env;
}

perf::AccessProfile JoinProfile(join::JoinAlgorithm algo, double build_rows,
                                double probe_rows, bool batched) {
  const auto b = static_cast<uint64_t>(std::max(build_rows, 1.0));
  const auto pr = static_cast<uint64_t>(std::max(probe_rows, 1.0));
  perf::AccessProfile p;
  p.ilp = perf::IlpClass::kUnrolledReordered;
  switch (algo) {
    case join::JoinAlgorithm::kRho: {
      const uint64_t tuples = b + pr;
      p.seq_read_bytes = 2 * tuples * sizeof(Tuple);
      p.seq_write_bytes = 2 * tuples * sizeof(Tuple);
      p.rand_reads = pr;
      p.rand_read_working_set = std::min<size_t>(
          join::BucketChainTable::BytesFor(b), size_t{256} * 1024);
      p.hidden_random_reads = pr;  // partition fits cache after the passes
      p.loop_iterations = 2 * tuples;
      break;
    }
    case join::JoinAlgorithm::kPht: {
      const size_t ws = join::PhtHashTableBytes(b);
      p.seq_read_bytes = (b + pr) * sizeof(Tuple);
      p.rand_writes = b;
      p.rand_write_working_set = ws;
      p.rand_reads = pr;
      p.rand_read_working_set = ws;
      if (batched) {
        p.hidden_random_reads = pr;
        p.software_mlp = true;
      }
      p.loop_iterations = b + pr;
      break;
    }
    case join::JoinAlgorithm::kCht: {
      const size_t ws = join::ChtTableBytes(b);
      p.seq_read_bytes = (2 * b + pr) * sizeof(Tuple);
      p.rand_writes = b;
      p.rand_write_working_set = ws;
      p.rand_reads = pr;
      p.rand_read_working_set = ws;
      if (batched) {
        p.hidden_random_reads = pr;
        p.software_mlp = true;
      }
      p.loop_iterations = 2 * b + pr;
      break;
    }
    default:
      break;
  }
  return p;
}

// --- Whole-plan mode costing ----------------------------------------------
// Per node, the cost the two lowerings do NOT share: the materializing
// path pays a write + re-read round trip for every row-id list, gathered
// relation, and join intermediate (perf::MaterializationTrafficNs — the
// traffic class enclave memory encryption penalizes hardest), while the
// fused path replaces the joins' partition passes with unpartitioned
// probes of shared tables. Scanned base-column traffic is identical and
// included on both sides so the totals stay interpretable as runtimes.

void EstimateModeCosts(const Plan& plan, const tpch::TpchDbView& db,
                       const QueryConfig& config, PlanDecisions* d) {
  const perf::CostModel& model = perf::CostModel::Reference();
  const perf::ExecutionEnv env = EnvOf(config);
  const bool batched = d->probe_mode != exec::ProbeMode::kTupleAtATime;
  double mat = 0;
  double fused = 0;
  for (size_t id = 0; id < plan.nodes().size(); ++id) {
    const PlanNode& n = plan.node(static_cast<int>(id));
    const double out_rows = d->est_rows[id];
    switch (n.kind) {
      case PlanNode::Kind::kScan: {
        const size_t rows = TableRows(db, n.table);
        size_t col_bytes = 0;
        for (const Predicate& p : n.predicates) {
          col_bytes += rows * ColWidth(p.col);
          if (p.kind == Predicate::Kind::kColLess) {
            col_bytes += rows * ColWidth(p.rhs);
          }
        }
        perf::AccessProfile sp;
        sp.seq_read_bytes = col_bytes;
        sp.loop_iterations = rows;
        sp.ilp = perf::IlpClass::kUnrolledReordered;
        const double scan_ns = model.EstimateNanos(sp, env);
        mat += scan_ns;
        fused += scan_ns;
        // One materialized row-id list per filter/refine step.
        const double list_bytes =
            out_rows * sizeof(uint64_t) *
            std::max<size_t>(n.predicates.size(), 1);
        mat += perf::MaterializationTrafficNs(
            model, static_cast<uint64_t>(list_bytes), env);
        break;
      }
      case PlanNode::Kind::kJoin: {
        const double build_rows = d->est_rows[static_cast<size_t>(n.build)];
        const double probe_rows = d->est_rows[static_cast<size_t>(n.probe)];
        // Materializing: gathered key relations in, matched row ids out,
        // plus the chosen flavour's own cost.
        mat += d->joins[id].cost_ns;
        mat += perf::MaterializationTrafficNs(
            model,
            static_cast<uint64_t>((build_rows + probe_rows + out_rows) *
                                  sizeof(Tuple)),
            env);
        // Fused: build the shared table once, probe it in the pipeline.
        const size_t ws = join::BucketChainTable::BytesFor(std::max<size_t>(
            TableRows(db, plan.OutputTable(n.build)), 1));
        perf::AccessProfile fp;
        fp.rand_writes = static_cast<uint64_t>(std::max(build_rows, 1.0));
        fp.rand_write_working_set = ws;
        fp.rand_reads = static_cast<uint64_t>(std::max(probe_rows, 1.0));
        fp.rand_read_working_set = ws;
        if (batched) {
          fp.hidden_random_reads = fp.rand_reads;
          fp.software_mlp = true;
        }
        fp.loop_iterations = fp.rand_writes + fp.rand_reads;
        fp.ilp = perf::IlpClass::kUnrolledReordered;
        fused += model.EstimateNanos(fp, env);
        break;
      }
      case PlanNode::Kind::kUnionAll:
      case PlanNode::Kind::kAggregate:
        // The final aggregate touches the same rows in both modes.
        break;
    }
  }
  d->materializing_cost_ns = mat;
  d->fused_cost_ns = fused;
}

}  // namespace

bool FusedLowerable(const Plan& plan) {
  if (!plan.valid()) return false;
  for (const PlanNode& n : plan.nodes()) {
    if (n.kind == PlanNode::Kind::kJoin &&
        plan.node(n.probe).kind != PlanNode::Kind::kScan) {
      return false;
    }
  }
  return true;
}

PlanDecisions DecideFor(const Plan& plan, const tpch::TpchDbView& db,
                        const QueryConfig& config) {
  PlanDecisions d;
  const size_t num_nodes = plan.nodes().size();
  d.est_rows.assign(num_nodes, 0);
  d.joins.assign(num_nodes, JoinChoice{});
  if (!plan.valid()) return d;

  // Probe scheduling resolves exactly as the joins resolve their own.
  {
    join::JoinConfig jc;
    jc.flavor = config.flavor;
    jc.probe_mode = config.probe_mode;
    jc.probe_batch = config.probe_batch;
    d.probe_mode = join::EffectiveProbeMode(jc);
    d.probe_batch = join::EffectiveProbeWidth(jc, d.probe_mode);
  }

  EstimateRows(plan, db, plan.root(), &d.est_rows);

  const bool batched = d.probe_mode != exec::ProbeMode::kTupleAtATime;
  const perf::CostModel& model = perf::CostModel::Reference();
  const perf::ExecutionEnv env = EnvOf(config);
  for (size_t id = 0; id < num_nodes; ++id) {
    const PlanNode& n = plan.node(static_cast<int>(id));
    if (n.kind != PlanNode::Kind::kJoin) continue;
    const double build_rows = d.est_rows[static_cast<size_t>(n.build)];
    const double probe_rows = d.est_rows[static_cast<size_t>(n.probe)];
    JoinChoice& choice = d.joins[id];
    const join::JoinAlgorithm candidates[] = {join::JoinAlgorithm::kRho,
                                              join::JoinAlgorithm::kPht,
                                              join::JoinAlgorithm::kCht};
    for (join::JoinAlgorithm algo : candidates) {
      const double cost = model.EstimateNanos(
          JoinProfile(algo, build_rows, probe_rows, batched), env);
      if (choice.cost_ns == 0 || cost < choice.cost_ns) {
        choice.algo = algo;
        choice.cost_ns = cost;
      }
    }
  }

  EstimateModeCosts(plan, db, config, &d);

  // Execution mode: explicit config wins, then the cost model. Plans the
  // fused lowering cannot drive (a join probing a non-scan) always
  // materialize.
  if (config.pipeline.has_value()) {
    d.fused = *config.pipeline;
  } else if (FusedLowerable(plan)) {
    d.fused = d.fused_cost_ns < d.materializing_cost_ns;
    d.mode_cost_based = true;
  }
  if (d.fused && !FusedLowerable(plan)) d.fused = false;
  return d;
}

// --- Explain --------------------------------------------------------------

namespace {

const char* AggKindName(AggSpec::Kind kind) {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
      return "count(*)";
    case AggSpec::Kind::kGroupCountViaFk:
      return "group-count-via-fk";
    case AggSpec::Kind::kGroupSum2:
      return "group-count-sum";
    case AggSpec::Kind::kSumProduct:
      return "sum-product";
  }
  return "?";
}

void DumpNode(const Plan& plan, const PlanDecisions& d, int id, int depth,
              std::ostringstream& os) {
  const PlanNode& n = plan.node(id);
  const std::string pad(static_cast<size_t>(depth) * 2, ' ');
  os << pad << "#" << id << " ";
  switch (n.kind) {
    case PlanNode::Kind::kScan: {
      os << "Scan(" << TableName(n.table) << ") ~"
         << static_cast<uint64_t>(d.est_rows[static_cast<size_t>(id)])
         << " rows\n";
      for (const Predicate& p : n.predicates) {
        os << pad << "    where " << p.ToString() << "\n";
      }
      break;
    }
    case PlanNode::Kind::kJoin: {
      const JoinChoice& c = d.joins[static_cast<size_t>(id)];
      os << "Join(" << ColName(n.build_key) << " = " << ColName(n.probe_key)
         << ") [" << join::JoinAlgorithmToString(c.algo) << ", est_cost="
         << static_cast<uint64_t>(c.cost_ns) << "ns] ~"
         << static_cast<uint64_t>(d.est_rows[static_cast<size_t>(id)])
         << " rows\n";
      DumpNode(plan, d, n.build, depth + 1, os);
      DumpNode(plan, d, n.probe, depth + 1, os);
      break;
    }
    case PlanNode::Kind::kUnionAll: {
      os << "UnionAll ~"
         << static_cast<uint64_t>(d.est_rows[static_cast<size_t>(id)])
         << " rows\n";
      for (int c : n.children) DumpNode(plan, d, c, depth + 1, os);
      break;
    }
    case PlanNode::Kind::kAggregate: {
      os << "Aggregate " << AggKindName(n.agg.kind) << "\n";
      DumpNode(plan, d, n.input, depth + 1, os);
      break;
    }
  }
}

}  // namespace

std::string Explain(const Plan& plan, const PlanDecisions& d) {
  std::ostringstream os;
  os << "plan " << plan.name() << ": mode="
     << (d.fused ? "fused" : "materializing")
     << (d.mode_cost_based ? " (cost model)" : " (forced)")
     << " fused~" << static_cast<uint64_t>(d.fused_cost_ns) << "ns"
     << " materializing~"
     << static_cast<uint64_t>(d.materializing_cost_ns) << "ns"
     << " probe=" << exec::ProbeModeToString(d.probe_mode) << " x"
     << d.probe_batch << "\n";
  if (plan.valid()) DumpNode(plan, d, plan.root(), 0, os);
  return os.str();
}

// --- Materializing lowering ----------------------------------------------
// Reproduces the operator-at-a-time drivers generically: filters drive
// the first predicate, refinements the rest, joins gather both key
// columns and run the chosen flavour. A count(*) root lowers its final
// join as a CountingJoin (no output materialization), exactly like the
// hand-written query bodies did.

namespace {

class MatExecutor {
 public:
  MatExecutor(const Plan& plan, const tpch::TpchDbView& db,
              const QueryConfig& config, const PlanDecisions& dec)
      : plan_(plan), db_(db), config_(config), dec_(dec) {}

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
    const std::string name =
        std::string("refine_") + ColName(p.col) + suffix;
    Result<RowIdList> refined = [&]() -> Result<RowIdList> {
      switch (p.kind) {
        case Predicate::Kind::kU32Range:
          return tpch::RefineU32Range(rows.value(), U32Column(db_, p.col),
                                      p.lo, p.hi, config_, &rec_, name);
        case Predicate::Kind::kU8Range: {
          if (p.hi > 63) {
            return Status::InvalidArgument(
                "u8 range refinement requires codes < 64");
          }
          uint64_t mask = 0;
          for (uint32_t c = p.lo; c <= p.hi; ++c) mask |= uint64_t{1} << c;
          return tpch::RefineU8InSet(rows.value(), U8Column(db_, p.col),
                                     mask, config_, &rec_, name);
        }
        case Predicate::Kind::kU8InSet:
          return tpch::RefineU8InSet(rows.value(), U8Column(db_, p.col),
                                     p.mask, config_, &rec_, name);
        case Predicate::Kind::kColLess:
          return tpch::RefineLess(rows.value(), U32Column(db_, p.col),
                                  U32Column(db_, p.rhs), config_, &rec_,
                                  name);
      }
      return Status::Internal("unreachable predicate kind");
    }();
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
      dec_.joins[static_cast<size_t>(id)].algo);
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
                                dec_.joins[static_cast<size_t>(id)].algo);
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
      const std::vector<uint64_t>& raw = counts.value();
      if (agg.output_map.empty()) {
        result.group_counts = raw;
      } else {
        const int slots = 1 + *std::max_element(agg.output_map.begin(),
                                                agg.output_map.end());
        result.group_counts.assign(static_cast<size_t>(slots), 0);
        for (size_t g = 0; g < raw.size(); ++g) {
          result.group_counts[static_cast<size_t>(agg.output_map[g])] +=
              raw[g];
        }
      }
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
  const PlanDecisions decisions = DecideFor(plan, db, config);
  return decisions.fused ? ExecuteFused(plan, db, config, decisions)
                         : ExecuteMaterializing(plan, db, config, decisions);
}

}  // namespace sgxb::plan
