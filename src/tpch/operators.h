// Materializing query operators (paper Section 6).
//
// The paper's query framework has no pipelining: "each operator fully
// materializes its output", MonetDB-style. Selections produce row-id
// lists (using the SIMD scan kernels from src/scan), refinements thin an
// existing row-id list with further predicates (the fused stages' gather
// kernels, through plan::Refine), gathers turn row-id lists into join
// input relations (key + row id), and joins run the optimized RHO join
// with materialized outputs feeding the next operator.

#ifndef SGXB_TPCH_OPERATORS_H_
#define SGXB_TPCH_OPERATORS_H_

#include <functional>
#include <optional>
#include <string>

#include "common/aligned_buffer.h"
#include "common/parallel.h"
#include "common/relation.h"
#include "common/status.h"
#include "join/join_common.h"
#include "mem/arena_pool.h"
#include "mem/enclave_resource.h"
#include "obs/trace.h"
#include "perf/access_profile.h"
#include "scan/scan_kernels.h"
#include "sgx/enclave.h"
#include "storage/column_view.h"

namespace sgxb::tpch {

struct QueryConfig {
  int num_threads = 1;
  /// kUnrolledReordered is the paper's optimized configuration.
  KernelFlavor flavor = KernelFlavor::kUnrolledReordered;
  ExecutionSetting setting = ExecutionSetting::kPlainCpu;
  sgx::Enclave* enclave = nullptr;
  int radix_bits = 12;
  /// Memory resource every operator output (row-id lists, gathered
  /// relations, join intermediates) comes from; null = derived from
  /// `setting`/`enclave` (mem::ResourceFor).
  mem::MemoryResource* resource = nullptr;
  /// Chunk pool recycling operator memory across queries (docs/memory.md
  /// — the Figure 11 warm-reuse mechanism); forwarded to the join layer.
  mem::ArenaPool* arena_pool = nullptr;
  /// Fused, morsel-driven execution (docs/pipelines.md): run each query
  /// as a short DAG of pipelines with per-morsel selection vectors
  /// instead of the paper's operator-at-a-time materialization. Unset or
  /// true = fused whenever the plan can be (every catalog plan can);
  /// false = the paper's materializing path, every join RHO
  /// (docs/planner.md).
  std::optional<bool> pipeline;
  /// Metrics attribution domain for this query's report (see
  /// Registry::AcquireDomain in obs/metrics.h); -1 = unattributed, the
  /// report diffs the process-global registry. Set by the serving layer so
  /// concurrent queries get disjoint QueryReports.
  int obs_domain = -1;
};

/// \brief Adds `bytes` to the tpch.bytes_materialized counter (surfaced
/// per query as QueryReport::bytes_materialized). Operators call this for
/// every intermediate they write that a downstream operator re-reads —
/// row-id lists, gathered relations, join outputs, pipeline-breaker
/// sinks — so fused and materializing runs of the same query can be
/// compared on avoided traffic, not just wall time.
void ChargeBytesMaterialized(uint64_t bytes);

/// \brief The resource the query's operators allocate from (see
/// QueryConfig::resource).
mem::MemoryResource* EffectiveResource(const QueryConfig& config);

/// \brief A materialized list of row ids (selection vector).
class RowIdList {
 public:
  RowIdList() = default;
  static Result<RowIdList> Allocate(size_t capacity,
                                    const QueryConfig& config);

  uint64_t* ids() { return buf_.As<uint64_t>(); }
  const uint64_t* ids() const { return buf_.As<uint64_t>(); }
  uint64_t count() const { return count_; }
  void set_count(uint64_t c) { count_ = c; }
  size_t capacity() const { return buf_.size() / sizeof(uint64_t); }

 private:
  AlignedBuffer buf_;
  uint64_t count_ = 0;
};

/// \brief Accumulates per-operator phases for a query execution.
class OpRecorder {
 public:
  void Record(const std::string& name, double host_ns,
              const perf::AccessProfile& profile, int threads) {
    perf::PhaseStats s;
    s.name = name;
    s.host_ns = host_ns;
    s.profile = profile;
    s.threads = threads;
    if (obs::TracingEnabled()) {
      obs::TraceCompleteEndingNow(obs::InternName(name), "op", host_ns);
    }
    breakdown_.Add(std::move(s));
  }

  /// \brief Appends another breakdown, prefixing phase names.
  void Absorb(const std::string& prefix,
              const perf::PhaseBreakdown& other);

  perf::PhaseBreakdown Take() { return std::move(breakdown_); }

 private:
  perf::PhaseBreakdown breakdown_;
};

// --- Selections ---------------------------------------------------------
// Operators take storage::ColumnView (implicitly convertible from
// Column<T>); paged views pin one partition at a time through the
// out-of-EPC buffer manager (docs/storage.md).

/// \brief sigma(lo <= col <= hi) over the rows [r.begin, r.end): runs the
/// SIMD row-id `kernel` on each run storage::ForEachRun hands out and
/// writes the absolute ids of the matches, ascending, to `out` (room for
/// r.size() ids). The one row-range scan: a fused stage runs it per
/// morsel, the materializing filters per thread slice.
template <typename T>
Result<size_t> ScanMorsel(const storage::ColumnView<T>& col, Range r, T lo,
                          T hi, uint64_t* out,
                          uint64_t (*kernel)(const T*, size_t, T, T,
                                             uint64_t, uint64_t*)) {
  size_t k = 0;
  SGXB_RETURN_NOT_OK(storage::ForEachRun(
      col, r.begin, r.end, [&](const T* run, size_t base, size_t n) {
        k += kernel(run, n, lo, hi, base, out + k);
      }));
  return k;
}

/// \brief sigma(lo <= col <= hi) over a uint8 column via the SIMD scan.
Result<RowIdList> FilterU8Range(storage::ColumnView<uint8_t> col,
                                uint8_t lo, uint8_t hi,
                                const QueryConfig& config, OpRecorder* rec,
                                const std::string& name);

/// \brief sigma(lo <= col <= hi) over a uint32 column via the SIMD u32
/// row-id kernel.
Result<RowIdList> FilterU32Range(storage::ColumnView<uint32_t> col,
                                 uint32_t lo, uint32_t hi,
                                 const QueryConfig& config, OpRecorder* rec,
                                 const std::string& name);

// --- Refinement (thins an existing row-id list) ---------------------------

/// \brief Thins the ascending ids[0, m) into `out` (room for m ids) and
/// returns how many survived, in order (plan::Refine bound to one
/// predicate).
using SliceRefiner = std::function<Result<size_t>(const uint64_t* ids,
                                                  size_t m, uint64_t* out)>;

/// \brief Keeps the ids of the ascending list `in` that `refine` keeps,
/// in order: each thread refines one slice of `in`, and the slices are
/// compacted as the filters' are. `gather_bytes` is the size of the
/// columns `refine` reads (the profile's random-read working set).
Result<RowIdList> RefineRows(const RowIdList& in, const SliceRefiner& refine,
                             size_t gather_bytes, const QueryConfig& config,
                             OpRecorder* rec, const std::string& name);

// --- Gather / join ------------------------------------------------------------

/// \brief Builds a join input relation from `keys[id]` for each id in
/// `rows` (payload = row id). Pass nullptr to gather every row.
Result<Relation> GatherKeys(storage::ColumnView<uint32_t> keys,
                            const RowIdList* rows,
                            const QueryConfig& config, OpRecorder* rec,
                            const std::string& name);

/// \brief Result of an intermediate (materializing) join step.
struct JoinStepResult {
  uint64_t matches = 0;
  /// Probe-side row ids of all matches (for the next operator).
  RowIdList probe_rows;
};

/// \brief Materializing hash-join step; extracts probe-side row ids.
/// `algo` picks the join (RHO, the paper's, by default; any of the six
/// runs through join::RunJoin and honours the materializer sink).
Result<JoinStepResult> MaterializingJoin(
    const Relation& build, const Relation& probe, const QueryConfig& config,
    OpRecorder* rec, const std::string& name,
    join::JoinAlgorithm algo = join::JoinAlgorithm::kRho);

/// \brief Final count(*) join: no materialization, returns match count.
Result<uint64_t> CountingJoin(
    const Relation& build, const Relation& probe, const QueryConfig& config,
    OpRecorder* rec, const std::string& name,
    join::JoinAlgorithm algo = join::JoinAlgorithm::kRho);

// --- Aggregation (extension) ---------------------------------------------
// The paper replaces final aggregations with count(*); these operators
// restore the real queries' GROUP BY finals (e.g. Q12 groups line counts
// into high/low order priority).

/// \brief GROUP BY count via a foreign key: for each id in `rows`, the
/// group is `values[fk[id]]` (e.g. order priority of a lineitem's order).
/// Returns `num_groups` counts; `num_groups` outside [1, 4096] is
/// kInvalidArgument, and a code >= num_groups is kInternal.
Result<std::vector<uint64_t>> GroupCountU8ViaFk(
    storage::ColumnView<uint8_t> values, storage::ColumnView<uint32_t> fk,
    const RowIdList& rows, int num_groups, const QueryConfig& config,
    OpRecorder* rec, const std::string& name);

/// \brief The loop of GroupCountU8ViaFk and of the fused
/// kGroupCountViaFk sink: ++counts[values[fk[id]]] for each of ids[0, n),
/// in any order. A failed pin, then a code >= num_groups (kInternal),
/// fails it.
Status CountGroupsViaFk(storage::ColumnView<uint8_t> values,
                        storage::ColumnView<uint32_t> fk,
                        const uint64_t* ids, size_t n, int num_groups,
                        uint64_t* counts);

/// \brief Per-group count and sum (Q1-style aggregate); the same type
/// the fused path's gather kernels aggregate into.
using GroupAgg = scan::GroupCountSum;

/// \brief GROUP BY (g1, g2) computing count(*) and sum(value) per group;
/// the group index is g1[id] * num_g2 + g2[id]. `rows` may be null for
/// all rows. Returns num_g1 * num_g2 aggregates.
Result<std::vector<GroupAgg>> GroupSumU32By2U8(
    storage::ColumnView<uint32_t> value, storage::ColumnView<uint8_t> g1,
    int num_g1, storage::ColumnView<uint8_t> g2, int num_g2,
    const RowIdList* rows, const QueryConfig& config, OpRecorder* rec,
    const std::string& name);

/// \brief sum(a[id] * b[id]) over the row-id list (Q6's revenue
/// aggregate: sum(l_extendedprice * l_discount)).
Result<uint64_t> SumProductU32(storage::ColumnView<uint32_t> a,
                               storage::ColumnView<uint32_t> b,
                               const RowIdList& rows,
                               const QueryConfig& config, OpRecorder* rec,
                               const std::string& name);

}  // namespace sgxb::tpch

#endif  // SGXB_TPCH_OPERATORS_H_
