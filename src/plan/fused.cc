// Generic fused lowering: compiles a Plan into a short DAG of
// RunMorselPipeline stages (docs/pipelines.md), replacing the
// hand-written per-query fused drivers. Each join becomes a build
// pipeline (drive the build subtree, set each surviving row's key in a
// pipeline-breaker key bitmap) plus a probe stage fused into its
// parent's pipeline, which keeps the probe rows whose key bit is set;
// the root aggregate runs as a per-lane sink in the last pipeline. Every
// id list a sink receives is ascending. Refine, the one predicate
// evaluator, is shared with the materializing lowering (planner.cc).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "exec/pipeline.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "scan/scan_kernels.h"
#include "storage/column_view.h"
#include "tpch/operators.h"

namespace sgxb::plan {

namespace {

using storage::ColumnView;
using storage::ForEachIdRun;
using tpch::GroupAgg;
using tpch::OpRecorder;
using tpch::QueryConfig;
using tpch::QueryResult;

// Mirrors the plan validator's group-count cap; per-lane aggregate
// state is a fixed array this large.
constexpr int kMaxGroups = 64;

// A join's pipeline breaker: one bit per key of the build key's dense
// domain [0, rows) (IsDenseKey), so a probe is one bit test. The build
// pipeline sets bits in one private bitmap per lane; Merge ORs them into
// lane 0's, which the probe then reads.
struct KeyBitmap {
  AlignedBuffer buf;  // `lanes` bitmaps of `words` words each
  uint32_t domain = 0;
  size_t words = 0;
  int lanes = 0;

  Status Init(size_t rows, const QueryConfig& config) {
    if (rows > std::numeric_limits<uint32_t>::max()) {
      return Status::NotSupported("key domain exceeds 32 bits");
    }
    domain = static_cast<uint32_t>(rows);
    words = (rows + 63) / 64;
    lanes = std::max(1, config.num_threads);
    auto mem = tpch::EffectiveResource(config)->AllocateZeroed(
        static_cast<size_t>(lanes) * words * sizeof(uint64_t));
    if (!mem.ok()) return mem.status();
    buf = std::move(mem).value();
    return Status::OK();
  }

  uint64_t* lane(int i) {
    return buf.As<uint64_t>() + static_cast<size_t>(i) * words;
  }
  /// The merged bitmap.
  const uint64_t* bits() const { return buf.As<uint64_t>(); }
  size_t bytes() const { return words * sizeof(uint64_t); }

  // Sets the keys run[id - base] of ids[0, m) in lane `lane_id`'s
  // bitmap. Stops at the first key that breaks the dense-key declaration,
  // one outside the domain or already set in this lane, and returns it
  // in *bad.
  bool SetKeys(int lane_id, const uint32_t* run, uint64_t base,
               const uint64_t* ids, size_t m, uint32_t* bad) {
    uint64_t* bits = lane(lane_id);
    for (size_t i = 0; i < m; ++i) {
      const uint32_t key = run[ids[i] - base];
      const uint64_t bit = uint64_t{1} << (key & 63);
      if (key >= domain || (bits[key >> 6] & bit) != 0) {
        *bad = key;
        return false;
      }
      bits[key >> 6] |= bit;
    }
    return true;
  }

  Status BadKey(ColId col, uint32_t key) const {
    const std::string what = std::string(ColName(col)) + " " +
                             std::to_string(key);
    if (key >= domain) {
      return Status::InvalidArgument(what +
                                     " lies outside its dense key domain "
                                     "[0, " + std::to_string(domain) + ")");
    }
    return Status::InvalidArgument(what +
                                   " repeats; a dense key is unique");
  }

  // ORs every lane into lane 0, in parallel over word ranges; a bit set
  // in two lanes is a key the build saw twice.
  Status Merge(ColId col) {
    if (lanes == 1) return Status::OK();
    std::atomic<bool> repeated{false};
    SGXB_RETURN_NOT_OK(ParallelRun(lanes, [&](int tid) {
      const Range r = SplitRange(words, lanes, tid);
      uint64_t* acc = lane(0);
      uint64_t seen_twice = 0;
      for (size_t w = r.begin; w < r.end; ++w) {
        uint64_t word = acc[w];
        for (int l = 1; l < lanes; ++l) {
          const uint64_t x = lane(l)[w];
          seen_twice |= word & x;
          word |= x;
        }
        acc[w] = word;
      }
      if (seen_twice != 0) repeated.store(true, std::memory_order_relaxed);
    }));
    if (!repeated.load()) return Status::OK();
    return Status::InvalidArgument(std::string(ColName(col)) +
                                   " repeats a key; a dense key is unique");
  }
};

Result<double> RunPipe(const std::string& span_name, size_t total,
                       const QueryConfig& config,
                       const exec::MorselBody& body) {
  exec::PipelineConfig pc;
  // The trace rings keep the name pointer until export, long after
  // `span_name` is gone, so a traced pipeline's name is interned. An
  // untraced run keeps the static default: InternName takes a lock.
  if (obs::TracingEnabled()) pc.name = obs::InternName(span_name);
  pc.num_threads = config.num_threads;
  pc.enclave_lanes = config.setting != ExecutionSetting::kPlainCpu;
  pc.resource = tpch::EffectiveResource(config);
  pc.arena_pool = config.arena_pool;
  WallTimer timer;
  Status s = exec::RunMorselPipeline(total, pc, body);
  if (!s.ok()) return s;
  return static_cast<double>(timer.ElapsedNanos());
}

// These labels are not derived from the loops that run: a probe is
// charged as a hidden (software-prefetched) random read into the
// breaker, and a build row as a Tuple-sized write.
perf::AccessProfile PipeProfile(size_t seq_read_bytes, size_t rows,
                                uint64_t probes, size_t probe_ws,
                                uint64_t sink_rows, size_t sink_ws) {
  perf::AccessProfile p;
  p.seq_read_bytes = seq_read_bytes;
  p.loop_iterations = rows;
  p.ilp = perf::IlpClass::kUnrolledReordered;
  if (probes > 0) {
    p.rand_reads = probes;
    p.rand_read_working_set = probe_ws;
    p.hidden_random_reads = probes;
    p.software_mlp = true;
  }
  if (sink_rows > 0) {
    p.rand_writes = sink_rows;
    p.rand_write_working_set = sink_ws;
    p.seq_write_bytes = sink_rows * sizeof(Tuple);
  }
  return p;
}

// Padded per-lane aggregation state so lanes never false-share.
template <typename T>
struct alignas(kCacheLineSize) LaneSlot {
  T value{};
};

// A fused stage's consumer: receives the surviving row ids of the
// subtree's output table, one ascending list per morsel. A join builds
// on a unique key, so a probe row appears at most once.
using MorselSink =
    std::function<Status(exec::PipelineLane&, const uint64_t*, size_t)>;

class FusedExec {
 public:
  FusedExec(const Plan& plan, const tpch::TpchDbView& db,
            const QueryConfig& config)
      : plan_(plan),
        db_(db),
        config_(config),
        scan_u8_(scan::PickRowIdKernel(SimdLevel::kAvx512)),
        scan_u32_(scan::PickRowIdKernelU32(SimdLevel::kAvx512)),
        gather_(scan::PickGatherKernels(SimdLevel::kAvx512)),
        bitmaps_(plan.nodes().size()) {
    prefix_ = plan.name();
    for (char& c : prefix_) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }

  Result<QueryResult> Run();

 private:
  // Builds (and fills) the key bitmap of every join in the subtree,
  // bottom-up: inner joins' bitmaps fill first so an outer build
  // pipeline can probe them.
  Status PrepareBitmaps(int id, const std::string& suffix);

  // Runs the subtree as one pipeline (scans and probes fused), feeding
  // surviving row ids to `sink`. `role` names the pipeline ("build",
  // "probe", or the root aggregate's verb).
  Status DriveSubtree(int id, const std::string& role,
                      const std::string& suffix, const MorselSink& sink,
                      std::atomic<uint64_t>* sink_rows, size_t sink_ws);
  Status DriveScan(int id, const std::string& name, const MorselSink& sink,
                   std::atomic<uint64_t>* sink_rows, size_t sink_ws);
  Status DriveJoin(int id, const std::string& name, const MorselSink& sink,
                   std::atomic<uint64_t>* sink_rows, size_t sink_ws);

  // Applies a scan node's predicate chain to one morsel; the surviving
  // ids end up in lane.sel_out(), ascending.
  Result<size_t> ApplyPreds(const PlanNode& n, Range r,
                            exec::PipelineLane& lane);

  size_t PredBytes(const PlanNode& n) const {
    size_t bytes = 0;
    for (const Predicate& p : n.predicates) {
      bytes += PredicateBytes(p, TableRows(db_, n.table));
    }
    return bytes;
  }

  const Plan& plan_;
  const tpch::TpchDbView& db_;
  const QueryConfig& config_;
  const scan::RowIdKernel scan_u8_;
  const scan::RowIdKernelU32 scan_u32_;
  const scan::GatherKernels& gather_;
  std::vector<KeyBitmap> bitmaps_;
  std::string prefix_;
  OpRecorder rec_;
};

Result<size_t> FusedExec::ApplyPreds(const PlanNode& n, Range r,
                                     exec::PipelineLane& lane) {
  uint64_t* sel = lane.sel_out();
  size_t k = 0;
  size_t next = 0;
  const Predicate* first = n.predicates.empty() ? nullptr : &n.predicates[0];
  if (first != nullptr && first->kind == Predicate::Kind::kU32Range) {
    SGXB_ASSIGN_OR_RETURN(k, tpch::ScanMorsel(U32Column(db_, first->col), r,
                                              first->lo, first->hi, sel,
                                              scan_u32_));
    next = 1;
  } else if (first != nullptr && first->kind == Predicate::Kind::kU8Range) {
    SGXB_ASSIGN_OR_RETURN(
        k, tpch::ScanMorsel(U8Column(db_, first->col), r,
                            static_cast<uint8_t>(first->lo),
                            static_cast<uint8_t>(first->hi), sel, scan_u8_));
    next = 1;
  } else {
    // No predicate, or kU8InSet / kColLess first, which have no direct
    // scan form: start from the full morsel and refine below.
    for (size_t i = r.begin; i < r.end; ++i) sel[k++] = i;
  }
  for (size_t pi = next; pi < n.predicates.size(); ++pi) {
    lane.FlipSel();
    SGXB_ASSIGN_OR_RETURN(k, Refine(n.predicates[pi], db_, gather_,
                                    lane.sel_in(), k, lane.sel_out()));
  }
  return k;
}

Status FusedExec::DriveScan(int id, const std::string& name,
                            const MorselSink& sink,
                            std::atomic<uint64_t>* sink_rows,
                            size_t sink_ws) {
  const PlanNode& n = plan_.node(id);
  const size_t total = TableRows(db_, n.table);
  std::atomic<uint64_t> sel_rows{0};
  auto ns = RunPipe(name, total, config_,
                    [&](Range r, exec::PipelineLane& lane) -> Status {
                      auto k = ApplyPreds(n, r, lane);
                      if (!k.ok()) return k.status();
                      sel_rows.fetch_add(k.value(),
                                         std::memory_order_relaxed);
                      return sink(lane, lane.sel_out(), k.value());
                    });
  if (!ns.ok()) return ns.status();
  const size_t seq = PredBytes(n) == 0 ? total * sizeof(uint32_t)
                                       : PredBytes(n);
  rec_.Record(name, ns.value(),
              PipeProfile(seq, total, 0, 0,
                          sink_rows ? sink_rows->load() : 0, sink_ws),
              config_.num_threads);
  return Status::OK();
}

Status FusedExec::DriveJoin(int id, const std::string& name,
                            const MorselSink& sink,
                            std::atomic<uint64_t>* sink_rows,
                            size_t sink_ws) {
  const PlanNode& n = plan_.node(id);
  const PlanNode& probe_scan = plan_.node(n.probe);
  const KeyBitmap& bm = bitmaps_[static_cast<size_t>(id)];
  const size_t total = TableRows(db_, probe_scan.table);
  const ColumnView<uint32_t> pkey = U32Column(db_, n.probe_key);
  std::atomic<uint64_t> sel_rows{0};
  auto ns = RunPipe(
      name, total, config_,
      [&](Range r, exec::PipelineLane& lane) -> Status {
        auto filtered = ApplyPreds(probe_scan, r, lane);
        if (!filtered.ok()) return filtered.status();
        const size_t k = filtered.value();
        // The probe is one more refinement: keep the ids whose key bit
        // is set, in order.
        lane.FlipSel();
        uint64_t* out = lane.sel_out();
        size_t m = 0;
        SGXB_RETURN_NOT_OK(ForEachIdRun(
            lane.sel_in(), k,
            [&](size_t base, size_t run_rows, const uint64_t* in, size_t c,
                const uint32_t* run) {
              m += gather_.u32_in_bitmap(run, base, run_rows, in, c,
                                         bm.bits(), bm.domain, out + m);
            },
            pkey));
        sel_rows.fetch_add(k, std::memory_order_relaxed);
        return sink(lane, out, m);
      });
  if (!ns.ok()) return ns.status();
  rec_.Record(name, ns.value(),
              PipeProfile(PredBytes(probe_scan) +
                              sel_rows.load() * sizeof(uint32_t),
                          total, sel_rows.load(), bm.bytes(),
                          sink_rows ? sink_rows->load() : 0, sink_ws),
              config_.num_threads);
  return Status::OK();
}

Status FusedExec::DriveSubtree(int id, const std::string& role,
                               const std::string& suffix,
                               const MorselSink& sink,
                               std::atomic<uint64_t>* sink_rows,
                               size_t sink_ws) {
  const PlanNode& n = plan_.node(id);
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      return DriveScan(id,
                       prefix_ + "." + role + "_" + TableName(n.table) +
                           suffix,
                       sink, sink_rows, sink_ws);
    case PlanNode::Kind::kJoin:
      return DriveJoin(
          id,
          prefix_ + "." + role + "_" +
              TableName(plan_.node(n.probe).table) + suffix,
          sink, sink_rows, sink_ws);
    case PlanNode::Kind::kUnionAll: {
      int branch = 0;
      for (int c : n.children) {
        SGXB_RETURN_NOT_OK(
            DriveSubtree(c, role, suffix + "_b" + std::to_string(++branch),
                         sink, sink_rows, sink_ws));
      }
      return Status::OK();
    }
    case PlanNode::Kind::kAggregate:
      break;
  }
  return Status::Internal("DriveSubtree reached an aggregate node");
}

Status FusedExec::PrepareBitmaps(int id, const std::string& suffix) {
  const PlanNode& n = plan_.node(id);
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      return Status::OK();
    case PlanNode::Kind::kAggregate:
      return PrepareBitmaps(n.input, suffix);
    case PlanNode::Kind::kUnionAll: {
      int branch = 0;
      for (int c : n.children) {
        SGXB_RETURN_NOT_OK(
            PrepareBitmaps(c, suffix + "_b" + std::to_string(++branch)));
      }
      return Status::OK();
    }
    case PlanNode::Kind::kJoin: {
      // Inner joins first: this join's build pipeline may probe them.
      SGXB_RETURN_NOT_OK(PrepareBitmaps(n.build, suffix));
      KeyBitmap& bm = bitmaps_[static_cast<size_t>(id)];
      SGXB_RETURN_NOT_OK(
          bm.Init(TableRows(db_, TableOf(n.build_key)), config_));
      const ColumnView<uint32_t> bkey = U32Column(db_, n.build_key);
      std::atomic<uint64_t> inserted{0};
      MorselSink set_keys = [&](exec::PipelineLane& lane,
                                const uint64_t* ids, size_t cnt) -> Status {
        bool ok = true;
        uint32_t bad = 0;
        SGXB_RETURN_NOT_OK(ForEachIdRun(
            ids, cnt,
            [&](size_t base, size_t, const uint64_t* in, size_t c,
                const uint32_t* run) {
              ok = ok && bm.SetKeys(lane.lane_id(), run, base, in, c, &bad);
            },
            bkey));
        if (!ok) return bm.BadKey(n.build_key, bad);
        inserted.fetch_add(cnt, std::memory_order_relaxed);
        return Status::OK();
      };
      SGXB_RETURN_NOT_OK(DriveSubtree(n.build, "build", suffix, set_keys,
                                      &inserted, bm.bytes()));
      SGXB_RETURN_NOT_OK(bm.Merge(n.build_key));
      tpch::ChargeBytesMaterialized(bm.buf.size());
      return Status::OK();
    }
  }
  return Status::Internal("unreachable plan node kind");
}

Result<QueryResult> FusedExec::Run() {
  WallTimer timer;
  SGXB_RETURN_NOT_OK(PrepareBitmaps(plan_.root(), ""));

  const PlanNode& root = plan_.node(plan_.root());
  const AggSpec& agg = root.agg;
  const PlanNode& in = plan_.node(root.input);
  const size_t lanes = static_cast<size_t>(config_.num_threads);
  QueryResult result;

  // The root pipeline's verb: probe when a join/union drives it, the
  // aggregate's own verb over a bare scan (q1.group_lineitem style).
  auto role_for = [&](const char* scan_verb) {
    return in.kind == PlanNode::Kind::kScan ? std::string(scan_verb)
                                            : std::string("probe");
  };

  switch (agg.kind) {
    case AggSpec::Kind::kCountStar: {
      std::vector<LaneSlot<uint64_t>> counts(lanes);
      MorselSink sink = [&](exec::PipelineLane& lane, const uint64_t*,
                            size_t cnt) -> Status {
        counts[static_cast<size_t>(lane.lane_id())].value += cnt;
        return Status::OK();
      };
      SGXB_RETURN_NOT_OK(
          DriveSubtree(root.input, role_for("count"), "", sink, nullptr, 0));
      for (const auto& slot : counts) result.count += slot.value;
      break;
    }
    case AggSpec::Kind::kGroupCountViaFk: {
      struct Counts {
        uint64_t c[kMaxGroups] = {};
      };
      std::vector<LaneSlot<Counts>> lane_counts(lanes);
      const ColumnView<uint32_t> fk_col = U32Column(db_, agg.fk);
      const ColumnView<uint8_t> val_col = U8Column(db_, agg.values);
      MorselSink sink = [&](exec::PipelineLane& lane, const uint64_t* ids,
                            size_t cnt) -> Status {
        return tpch::CountGroupsViaFk(
            val_col, fk_col, ids, cnt, agg.num_groups,
            lane_counts[static_cast<size_t>(lane.lane_id())].value.c);
      };
      SGXB_RETURN_NOT_OK(
          DriveSubtree(root.input, role_for("group"), "", sink, nullptr,
                       val_col.size_bytes()));
      std::vector<uint64_t> raw(static_cast<size_t>(agg.num_groups), 0);
      for (const auto& slot : lane_counts) {
        for (int g = 0; g < agg.num_groups; ++g) {
          raw[static_cast<size_t>(g)] += slot.value.c[g];
        }
      }
      result.group_counts = agg.FoldGroups(std::move(raw));
      for (uint64_t c : result.group_counts) result.count += c;
      break;
    }
    case AggSpec::Kind::kGroupSum2: {
      // Listing 2: each lane aggregates into kGroupCopies private
      // histograms, summed once at the end.
      struct Hists {
        GroupAgg h[scan::kGroupCopies * kMaxGroups] = {};
      };
      std::vector<LaneSlot<Hists>> lane_hists(lanes);
      std::atomic<bool> out_of_range{false};
      const int num_groups = agg.num_g1 * agg.num_g2;
      const uint32_t num_g1 = static_cast<uint32_t>(agg.num_g1);
      const uint32_t num_g2 = static_cast<uint32_t>(agg.num_g2);
      const ColumnView<uint32_t> val_col = U32Column(db_, agg.value);
      const ColumnView<uint8_t> g1_col = U8Column(db_, agg.g1);
      const ColumnView<uint8_t> g2_col = U8Column(db_, agg.g2);
      MorselSink sink = [&](exec::PipelineLane& lane, const uint64_t* ids,
                            size_t cnt) -> Status {
        GroupAgg* h = lane_hists[static_cast<size_t>(lane.lane_id())].value.h;
        bool fits = true;
        SGXB_RETURN_NOT_OK(ForEachIdRun(
            ids, cnt,
            [&](size_t base, size_t n, const uint64_t* in, size_t c,
                const uint32_t* val, const uint8_t* g1, const uint8_t* g2) {
              if (fits && gather_.group_sum2(val, g1, g2, base, n, in, c,
                                             num_g1, num_g2, h,
                                             kMaxGroups) != c) {
                fits = false;
              }
            },
            val_col, g1_col, g2_col));
        if (!fits) out_of_range.store(true, std::memory_order_relaxed);
        return Status::OK();
      };
      SGXB_RETURN_NOT_OK(
          DriveSubtree(root.input, role_for("group"), "", sink, nullptr,
                       static_cast<size_t>(num_groups) * sizeof(GroupAgg)));
      if (out_of_range.load()) {
        return Status::Internal("group code out of range in " + prefix_ +
                                " grouped aggregate");
      }
      for (int g = 0; g < num_groups; ++g) {
        uint64_t count = 0;
        for (const auto& slot : lane_hists) {
          for (int c = 0; c < scan::kGroupCopies; ++c) {
            count += slot.value.h[c * kMaxGroups + g].count;
          }
        }
        result.group_counts.push_back(count);
        result.count += count;
      }
      break;
    }
    case AggSpec::Kind::kSumProduct: {
      struct Sums {
        uint64_t sum = 0;
        uint64_t rows = 0;
      };
      std::vector<LaneSlot<Sums>> lane_sums(lanes);
      const ColumnView<uint32_t> a_col = U32Column(db_, agg.value);
      const ColumnView<uint32_t> b_col = U32Column(db_, agg.value2);
      MorselSink sink = [&](exec::PipelineLane& lane, const uint64_t* ids,
                            size_t cnt) -> Status {
        Sums& s = lane_sums[static_cast<size_t>(lane.lane_id())].value;
        s.rows += cnt;
        return ForEachIdRun(
            ids, cnt,
            [&](size_t base, size_t n, const uint64_t* in, size_t c,
                const uint32_t* a, const uint32_t* b) {
              s.sum += gather_.sum_product(a, b, base, n, in, c);
            },
            a_col, b_col);
      };
      SGXB_RETURN_NOT_OK(
          DriveSubtree(root.input, role_for("sum"), "", sink, nullptr, 0));
      uint64_t sum = 0;
      for (const auto& slot : lane_sums) {
        sum += slot.value.sum;
        result.count += slot.value.rows;
      }
      result.group_counts = {sum};
      break;
    }
  }

  result.host_ns = static_cast<double>(timer.ElapsedNanos());
  result.phases = rec_.Take();
  return result;
}

}  // namespace

Result<size_t> Refine(const Predicate& p, const tpch::TpchDbView& db,
                      const scan::GatherKernels& g, const uint64_t* ids,
                      size_t m, uint64_t* out) {
  size_t k = 0;
  Status s;
  switch (p.kind) {
    case Predicate::Kind::kU32Range:
      s = ForEachIdRun(
          ids, m,
          [&](size_t base, size_t n, const uint64_t* in, size_t cnt,
              const uint32_t* run) {
            k += g.u32_range(run, base, n, in, cnt, p.lo, p.hi, out + k);
          },
          U32Column(db, p.col));
      break;
    case Predicate::Kind::kU8Range:
      s = ForEachIdRun(
          ids, m,
          [&](size_t base, size_t n, const uint64_t* in, size_t cnt,
              const uint8_t* run) {
            k += g.u8_range(run, base, n, in, cnt,
                            static_cast<uint8_t>(p.lo),
                            static_cast<uint8_t>(p.hi), out + k);
          },
          U8Column(db, p.col));
      break;
    case Predicate::Kind::kU8InSet:
      s = ForEachIdRun(
          ids, m,
          [&](size_t base, size_t n, const uint64_t* in, size_t cnt,
              const uint8_t* run) {
            k += g.u8_in_set(run, base, n, in, cnt, p.mask, out + k);
          },
          U8Column(db, p.col));
      break;
    case Predicate::Kind::kColLess:
      s = ForEachIdRun(
          ids, m,
          [&](size_t base, size_t n, const uint64_t* in, size_t cnt,
              const uint32_t* a, const uint32_t* b) {
            k += g.u32_less(a, b, base, n, in, cnt, out + k);
          },
          U32Column(db, p.col), U32Column(db, p.rhs));
      break;
  }
  SGXB_RETURN_NOT_OK(s);
  return k;
}

size_t PredicateBytes(const Predicate& p, size_t rows) {
  size_t bytes = rows * (TypeOf(p.col) == ColType::kU32 ? 4 : 1);
  if (p.kind == Predicate::Kind::kColLess) bytes += rows * 4;
  return bytes;
}

Result<QueryResult> ExecuteFused(const Plan& plan,
                                 const tpch::TpchDbView& db,
                                 const QueryConfig& config) {
  if (!FusedLowerable(plan)) {
    return Status::InvalidArgument(
        "fused lowering requires every join to probe a scan and to build "
        "on a dense key");
  }
  FusedExec exec(plan, db, config);
  return exec.Run();
}

}  // namespace sgxb::plan
