// Shared configuration, result, and phase-recording types for all join
// algorithms (paper Section 4).
//
// Every join takes a build (smaller) and a probe (larger) Relation plus a
// JoinConfig, runs with `num_threads` workers in the TEEBench style (all
// workers execute the whole pipeline, synchronizing at phase barriers), and
// returns the match count plus a per-phase breakdown with access profiles
// for the cost model.

#ifndef SGXB_JOIN_JOIN_COMMON_H_
#define SGXB_JOIN_JOIN_COMMON_H_

#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "common/relation.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/types.h"
#include "exec/probe_pipeline.h"
#include "mem/arena.h"
#include "mem/arena_pool.h"
#include "mem/enclave_resource.h"
#include "obs/trace.h"
#include "perf/access_profile.h"
#include "sgx/enclave.h"
#include "sync/task_queue.h"

namespace sgxb::join {

class Materializer;

/// \brief How a join obtains its intermediate structures (hash tables,
/// partition buffers, sort runs) from the memory layer.
enum class AllocPolicy {
  /// One MemoryResource allocation per structure — the pre-arena
  /// behaviour, kept as the ablation baseline (bench_ablation_arena).
  kDirect = 0,
  /// Carve structures from a per-join Arena (2 MiB chunks, optionally
  /// recycled through JoinConfig::arena_pool across queries).
  kArena = 1,
};

/// \brief The join algorithms in the paper's benchmark suite (Figure 3).
enum class JoinAlgorithm {
  kPht = 0,   ///< Parallel hash table join (Blanas et al.).
  kRho = 1,   ///< Radix hash optimized join (Balkesen/Manegold et al.).
  kMway = 2,  ///< Multi-way sort-merge join (Kim et al.).
  kInl = 3,   ///< Index nested loop join over a B+-tree.
  kCrk = 4,   ///< CrkJoin, the SGXv1-optimized cracking join.
  kCht = 5,   ///< Concise Hash Table join (extension, Barber et al.).
};

const char* JoinAlgorithmToString(JoinAlgorithm algo);

struct JoinConfig {
  int num_threads = 1;
  /// Listing-1-style loops vs the paper's unroll-and-reorder optimization.
  KernelFlavor flavor = KernelFlavor::kReference;
  /// Task queue used by task-based joins (RHO, CrkJoin); Figure 10 knob.
  TaskQueueKind queue = TaskQueueKind::kLockFree;
  ExecutionSetting setting = ExecutionSetting::kPlainCpu;
  /// Enclave backing trusted allocations; required for SGX settings that
  /// materialize output or allocate intermediates dynamically.
  sgx::Enclave* enclave = nullptr;
  /// Materialize output tuples (Section 4.4 / Figure 11 and Section 6).
  bool materialize = false;
  /// Optional caller-owned output sink; when null and `materialize` is
  /// set, the join uses an internal materializer and discards the output
  /// after counting (the common benchmarking configuration).
  Materializer* output = nullptr;

  /// RHO: total radix bits over both passes and the number of passes.
  int radix_bits = 14;
  int radix_passes = 2;
  /// CrkJoin: partitioning depth in bits.
  int crack_bits = 12;

  /// Probe-loop scheduling (exec/probe_pipeline.h, docs/prefetching.md).
  /// Unset = derived from `flavor`: the reference flavour probes
  /// tuple-at-a-time (the paper's Listing-1 behaviour), the optimized
  /// flavour uses group prefetching.
  std::optional<exec::ProbeMode> probe_mode;
  /// Group size (group prefetch) / ring width (AMAC). 0 = the calibrated
  /// default (CalibrationParams::probe_batch_size /
  /// probe_prefetch_distance).
  int probe_batch = 0;

  /// Memory resource every intermediate and materialized chunk comes
  /// from; null = derived from `setting`/`enclave` (mem::ResourceFor).
  mem::MemoryResource* resource = nullptr;
  /// Chunk pool for warm reuse across queries (docs/memory.md); null =
  /// chunks come straight from the resource and die with the join.
  mem::ArenaPool* arena_pool = nullptr;
  /// Intermediate-allocation strategy; kArena is the default path.
  AllocPolicy alloc_policy = AllocPolicy::kArena;
};

/// \brief The resource the join allocates from: `config.resource` if set,
/// else derived from the setting/enclave.
mem::MemoryResource* EffectiveResource(const JoinConfig& config);

/// \brief Owns one join invocation's intermediate memory. Under
/// AllocPolicy::kArena the carve-outs share 2 MiB chunks (recycled via
/// JoinConfig::arena_pool when present); under kDirect each call is its
/// own resource allocation. Everything is released — and, for enclave
/// resources, credited back to the heap accounting — when the scratch is
/// destroyed. Not thread-safe; allocate before fanning out workers.
class JoinScratch {
 public:
  explicit JoinScratch(const JoinConfig& config);

  /// \brief 64-byte-aligned scratch block, alive until destruction.
  Result<void*> Allocate(size_t bytes);

  /// \brief The backing arena, or null under kDirect. Joins with phased
  /// memory use it for checkpoint/rollback (e.g. MWAY's sort runs die
  /// after the merge).
  mem::Arena* arena() { return arena_.has_value() ? &*arena_ : nullptr; }
  mem::MemoryResource* resource() const { return resource_; }

 private:
  mem::MemoryResource* resource_;
  std::optional<mem::Arena> arena_;
  std::vector<AlignedBuffer> direct_;
};

/// \brief Probe scheduling a join actually uses for `config` (resolves
/// the flavour default described at JoinConfig::probe_mode).
exec::ProbeMode EffectiveProbeMode(const JoinConfig& config);

/// \brief Resolved group size / ring width for `mode`, from
/// `config.probe_batch` or the calibrated defaults, clamped to
/// exec::kMaxProbeWidth.
int EffectiveProbeWidth(const JoinConfig& config, exec::ProbeMode mode);

struct JoinResult {
  /// Number of matching (build, probe) pairs.
  uint64_t matches = 0;
  /// Total measured wall time on the host, ns.
  double host_ns = 0;
  perf::PhaseBreakdown phases;
  int threads = 1;
};

/// \brief Runs `algo` (PhtJoin, RhoJoin, ...) on build x probe: the one
/// dispatcher over all six joins. Each honours `config.output`.
Result<JoinResult> RunJoin(JoinAlgorithm algo, const Relation& build,
                           const Relation& probe, const JoinConfig& config);

/// \brief Records phase boundaries from worker thread 0. Workers call
/// BeginPhase/EndPhase around barrier-synchronized sections; only tid 0
/// writes, so no synchronization is needed beyond the join's own barriers.
class PhaseRecorder {
 public:
  void Begin() { timer_.Restart(); }

  /// \brief Closes the current phase: elapsed time since the last
  /// Begin()/End() is attributed to `name` with the given profile.
  void End(const std::string& name, const perf::AccessProfile& profile,
           int threads) {
    perf::PhaseStats s;
    s.name = name;
    s.host_ns = static_cast<double>(timer_.ElapsedNanos());
    s.profile = profile;
    s.threads = threads;
    if (obs::TracingEnabled()) {
      obs::TraceCompleteEndingNow(obs::InternName(name), "join", s.host_ns);
    }
    breakdown_.Add(std::move(s));
    timer_.Restart();
  }

  /// \brief Nanoseconds since the last Begin()/End(), without closing the
  /// phase. Used when a wall-clock phase is split into sub-phases.
  double ElapsedNs() const {
    return static_cast<double>(timer_.ElapsedNanos());
  }

  /// \brief Appends a pre-built phase entry and restarts the timer.
  void AddRaw(perf::PhaseStats stats) {
    if (obs::TracingEnabled()) {
      obs::TraceCompleteEndingNow(obs::InternName(stats.name), "join",
                                  stats.host_ns);
    }
    breakdown_.Add(std::move(stats));
    timer_.Restart();
  }

  perf::PhaseBreakdown Take() { return std::move(breakdown_); }

 private:
  WallTimer timer_;
  perf::PhaseBreakdown breakdown_;
};

/// \brief Multiplicative hash for 32-bit join keys (Fibonacci hashing),
/// mapping into [0, 2^bits).
inline uint32_t HashKey(uint32_t key, uint32_t bits) {
  return static_cast<uint32_t>((key * 2654435761u) >> (32 - bits));
}

/// \brief Radix function used by partitioning: the `bits` bits of the key
/// starting at `shift` (the paper partitions by least significant bits).
inline uint32_t RadixOf(uint32_t key, uint32_t mask, uint32_t shift) {
  return (key & mask) >> shift;
}

/// \brief Validates the common preconditions shared by all joins.
Status ValidateJoinInputs(const Relation& build, const Relation& probe,
                          const JoinConfig& config);

}  // namespace sgxb::join

#endif  // SGXB_JOIN_JOIN_COMMON_H_
