// Fork-join and morsel-driven helpers for multi-threaded operators.
//
// The paper pins worker threads to physical cores before entering the
// enclave (Section 3). We reproduce the structure on top of a persistent,
// placement-aware thread pool (src/exec/executor.h): ParallelRun dispatches
// one task per worker, runs `fn(tid)` on each, and waits; ParallelFor
// splits an index range into morsels scheduled over per-lane work-stealing
// deques. Workers are created once for the process and pinned at birth, so
// repeated small dispatches (every Repeat iteration of every benchmark) do
// not pay thread creation, and a worker that throws or fails surfaces as a
// Status instead of terminating the process. On hosts with fewer cores
// than workers, pinning degrades gracefully.

#ifndef SGXB_COMMON_PARALLEL_H_
#define SGXB_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace sgxb {

/// \brief How worker threads map to (simulated) NUMA nodes; consumed by the
/// executor, which publishes the node to task bodies via CurrentNumaNode(),
/// and by real pinning when the host has enough cores.
struct ThreadPlacement {
  /// Simulated NUMA node for each worker (empty = all on node 0).
  std::function<int(int tid)> node_of_thread;
  /// Pin to physical cores when possible (ignored if host is too small).
  /// Pool workers are always pinned at birth; this flag only affects the
  /// spawn fallback paths (nested gangs, exec::DispatchMode::kSpawn).
  bool pin_threads = false;
};

/// \brief Runs fn(tid) for tid in [0, num_threads) concurrently on pool
/// workers and waits for all of them. num_threads == 1 runs inline. An
/// exception escaping fn is captured and returned as an Internal status
/// (first failing tid wins) instead of calling std::terminate.
Status ParallelRun(int num_threads, const std::function<void(int)>& fn,
                   const ThreadPlacement& placement = {});

/// \brief Splits [0, total) into `parts` contiguous ranges and returns the
/// [begin, end) range of part `index`.
struct Range {
  size_t begin;
  size_t end;
  size_t size() const { return end - begin; }
};
inline Range SplitRange(size_t total, int parts, int index) {
  size_t base = total / parts;
  size_t rem = total % parts;
  size_t begin = static_cast<size_t>(index) * base +
                 (static_cast<size_t>(index) < rem ? index : rem);
  size_t len = base + (static_cast<size_t>(index) < rem ? 1 : 0);
  return Range{begin, begin + len};
}

/// \brief Tuning knobs for ParallelFor.
struct ParallelForOptions {
  /// Lanes (parallelism). 0 = one lane per logical core. The effective
  /// lane count never exceeds the morsel count.
  int num_threads = 0;
  ThreadPlacement placement;
  /// Optional per-lane decorator: runs once on each lane, wrapping that
  /// lane's whole morsel loop, and must invoke `run` exactly once. This is
  /// where operators open their per-thread ECall scope so enclave entry is
  /// charged once per lane (as on hardware), not once per morsel:
  ///
  ///   opts.worker_scope = [&](int, const std::function<void()>& run) {
  ///     sgx::ScopedEcall ecall;
  ///     run();
  ///   };
  std::function<void(int tid, const std::function<void()>& run)> worker_scope;
};

/// \brief Morsel-driven parallel loop: splits [0, total) into grain-sized
/// morsels and runs body(range, lane) for each, scheduling morsels over
/// per-lane work-stealing deques so skewed morsel costs re-balance. Ranges
/// partition [0, total) exactly; each morsel runs exactly once. Like
/// ParallelRun, failures surface as the returned Status.
Status ParallelFor(size_t total, size_t grain,
                   const std::function<void(Range, int)>& body,
                   const ParallelForOptions& options = {});

/// \brief Simulated NUMA node of the current task (from
/// ThreadPlacement::node_of_thread), or 0 outside a parallel task.
int CurrentNumaNode();

}  // namespace sgxb

#endif  // SGXB_COMMON_PARALLEL_H_
