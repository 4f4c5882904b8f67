// Always-on tracing: per-thread ring buffers of span events exported as
// chrome://tracing JSON.
//
// Inside an enclave you cannot attach perf, VTune, or eBPF — the paper's
// measurements all come from the system timing itself with RDTSCP
// (Section 3). This layer makes that self-observation structural: every
// executor task, join phase, enclave transition, and EDMM commit records a
// span, and SGXBENCH_TRACE=<path> turns the rings into a trace viewable in
// chrome://tracing or Perfetto (docs/observability.md).
//
// Cost model:
//  * disabled (default): an ObsSpan constructor is one relaxed atomic load
//    and a predictable branch — nothing else. The bench_ablation_obs gate
//    holds this under 2% on the out-of-cache PHT probe;
//  * enabled: two RDTSCP reads plus one store into a thread-local ring
//    buffer slot. No locks, no allocation after the buffer exists.
//
// Ring semantics: each thread owns a fixed-capacity ring (65536 events
// unless EnableTracing(n) sets another size). When full, the oldest event
// is overwritten and a dropped-events counter advances — tracing a long
// run degrades to "most recent window" instead of unbounded memory.
//
// Event names must be pointers with static storage duration (string
// literals, or strings interned via InternName) — the ring stores the
// pointer, not a copy.

#ifndef SGXB_OBS_TRACE_H_
#define SGXB_OBS_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/timer.h"

namespace sgxb::obs {

namespace internal {
extern std::atomic<bool> g_tracing_enabled;

struct TraceEvent {
  const char* name;
  const char* category;
  uint64_t begin_tsc;
  uint64_t end_tsc;  ///< == begin_tsc for instant events
};

/// \brief Appends one event to the calling thread's ring (creating it on
/// first use). Only called with tracing enabled.
void RecordEvent(const char* name, const char* category, uint64_t begin_tsc,
                 uint64_t end_tsc);
}  // namespace internal

/// \brief True while span recording is active. This is the one relaxed
/// load every disabled probe pays.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// \brief Starts recording. `events_per_thread` > 0 sets the ring
/// capacity (65536 events until a call sets another); 0 keeps the current
/// one. Capacity applies to rings created after the call.
void EnableTracing(size_t events_per_thread = 0);

/// \brief Stops recording; buffers keep their contents for WriteTrace.
void DisableTracing();

/// \brief Drops all recorded events and zeroes the drop counters. Rings
/// stay allocated for their owning threads.
void ResetTrace();

/// \brief Recording totals across all thread rings.
struct TraceStats {
  uint64_t recorded = 0;  ///< events currently held in rings
  uint64_t dropped = 0;   ///< events overwritten after a ring filled
  int threads = 0;        ///< rings ever created
};
TraceStats GetTraceStats();

/// \brief Merges every thread's ring into a chrome://tracing JSON file
/// (trace-event format, "X" complete events, microsecond timestamps).
/// Recording should be quiescent — call from a join point, not while
/// worker threads are mid-span.
Status WriteTrace(const std::string& path);

/// \brief Serializes the merged rings to the JSON string WriteTrace
/// writes (tests, in-memory consumers).
std::string TraceToJson();

/// \brief Copies `name` into process-lifetime storage and returns a
/// stable pointer, deduplicating repeats. For dynamically built span
/// names (per-operator names in the TPC-H drivers); literals don't need
/// it. Takes a lock — intern once per distinct name, not per event.
const char* InternName(const std::string& name);

/// \brief Records a complete span from explicit RDTSCP stamps. For
/// retrofit sites (PhaseRecorder) that already know their boundaries.
inline void TraceComplete(const char* name, const char* category,
                          uint64_t begin_tsc, uint64_t end_tsc) {
  if (!TracingEnabled()) return;
  internal::RecordEvent(name, category, begin_tsc, end_tsc);
}

/// \brief Records a span of known duration that ends now. For retrofit
/// sites that time phases with a wall-clock timer instead of raw TSC
/// stamps (PhaseRecorder, OpRecorder): the begin stamp is reconstructed
/// as `now - duration`, so the span lands where the phase actually ran.
inline void TraceCompleteEndingNow(const char* name, const char* category,
                                   double duration_ns) {
  if (!TracingEnabled()) return;
  const uint64_t end = ReadTsc();
  const uint64_t cycles = static_cast<uint64_t>(
      duration_ns * 1e-9 * static_cast<double>(TscFrequencyHz()));
  internal::RecordEvent(name, category, end - std::min(cycles, end), end);
}

/// \brief Records a zero-duration marker (EDMM trim, morsel steal).
inline void TraceInstant(const char* name, const char* category) {
  if (!TracingEnabled()) return;
  const uint64_t now = ReadTsc();
  internal::RecordEvent(name, category, now, now);
}

/// \brief RAII span: stamps begin at construction, records at
/// destruction. When tracing is disabled the constructor is a relaxed
/// load + branch and the destructor a compare against zero.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, const char* category = "app")
      : name_(name), category_(category) {
    if (TracingEnabled()) begin_tsc_ = ReadTsc();
  }
  ~ObsSpan() {
    if (begin_tsc_ != 0) {
      internal::RecordEvent(name_, category_, begin_tsc_, ReadTsc());
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  uint64_t begin_tsc_ = 0;  ///< 0 = tracing was off at construction
};

}  // namespace sgxb::obs

#endif  // SGXB_OBS_TRACE_H_
