// Latency-hiding probe pipelines: group prefetching and AMAC.
//
// Every probe in this repo — PHT bucket chains, CHT bitmap+dense lookups,
// B-tree descents, the radix join's in-cache chains — is a short chain of
// data-dependent loads per input tuple. Executed tuple-at-a-time, each
// chain stalls the core for the full miss latency per hop, which is
// exactly the access pattern SGXv2 penalizes hardest (paper Figs. 4-5).
// The probes themselves are independent, though, so their misses can be
// overlapped in software:
//
//  * Group prefetching (Chen et al.): process probes in groups of B.
//    Issue the first-hop prefetch for all B probes, then advance all B by
//    one hop (issuing the next hop's prefetch), until the group drains.
//    All cursors sit at the same chain depth, so a group's stage k
//    prefetches have B-1 cursors' worth of work to hide behind.
//
//  * AMAC (Kocberber et al., asynchronous memory access chaining): keep a
//    ring of W in-flight probe state machines. Each visit advances one
//    cursor one hop and immediately refills it from the input stream when
//    it completes. Unlike group prefetching there is no stage barrier, so
//    chains of differing depth (overflow chains, B-tree levels) cannot
//    stall the whole group behind the deepest chain.
//
// Both drivers run over the same Cursor concept:
//
//   struct Cursor {
//     static constexpr int kPrefetchLines = 1;  // lines per target
//     void Reset(const Tuple& t);  // latch probe, set first target
//     const void* Target() const;  // next address Advance() dereferences;
//                                  // nullptr when the probe is complete
//     void Advance();              // consume the target's data, do the
//                                  // matching work, set the next target
//   };
//
// A cursor may complete during Reset() (empty structure) by exposing a
// null target. Drivers never dereference Target(); they only prefetch it.
//
// Resolution: a join's mode comes from JoinConfig (unset = derived from
// the kernel flavour), sizes from perf::CalibrationParams unless the
// caller pins them. For AMAC the ring width *is* the prefetch distance: a
// state's prefetch is issued roughly W visits before its use.

#ifndef SGXB_EXEC_PROBE_PIPELINE_H_
#define SGXB_EXEC_PROBE_PIPELINE_H_

#include <algorithm>

#include "common/prefetch.h"
#include "common/types.h"

namespace sgxb::exec {

/// \brief How a probe loop schedules its data-dependent loads.
enum class ProbeMode {
  /// One probe at a time, each chain walked to completion (baseline).
  kTupleAtATime = 0,
  /// Stage-synchronized groups with software prefetching.
  kGroupPrefetch = 1,
  /// Asynchronous memory access chaining (per-probe state machines).
  kAmac = 2,
};

inline const char* ProbeModeToString(ProbeMode mode) {
  switch (mode) {
    case ProbeMode::kTupleAtATime:
      return "tuple";
    case ProbeMode::kGroupPrefetch:
      return "gp";
    case ProbeMode::kAmac:
      return "amac";
  }
  return "unknown";
}

/// \brief Hard cap on group size / ring width; drivers and callers clamp
/// to it so cursor arrays can be stack-allocated and the in-flight state
/// always fits in L1.
inline constexpr int kMaxProbeWidth = 64;

inline int ClampProbeWidth(int width) {
  return std::min(std::max(width, 1), kMaxProbeWidth);
}

/// \brief Group prefetching: probes [0, n) are processed in groups of
/// `group_size`; `cursors` must hold at least `group_size` entries.
template <typename Cursor>
void GroupPrefetchProbe(const Tuple* tuples, size_t n, int group_size,
                        Cursor* cursors) {
  const size_t g = static_cast<size_t>(ClampProbeWidth(group_size));
  for (size_t base = 0; base < n; base += g) {
    const size_t m = std::min(g, n - base);
    // Stage 0: latch the group and issue all first-hop prefetches.
    for (size_t i = 0; i < m; ++i) {
      cursors[i].Reset(tuples[base + i]);
      if (const void* t = cursors[i].Target()) {
        PrefetchReadSpan(t, Cursor::kPrefetchLines);
      }
    }
    // Stage k: advance every live cursor one hop; its stage-k+1 prefetch
    // hides behind the other cursors' stage-k work.
    for (bool live = true; live;) {
      live = false;
      for (size_t i = 0; i < m; ++i) {
        if (cursors[i].Target() == nullptr) continue;
        cursors[i].Advance();
        if (const void* t = cursors[i].Target()) {
          PrefetchReadSpan(t, Cursor::kPrefetchLines);
          live = true;
        }
      }
    }
  }
}

/// \brief AMAC: a ring of `width` in-flight cursors, refilled from the
/// input stream as probes complete. `ring` must hold at least `width`
/// entries.
template <typename Cursor>
void AmacProbe(const Tuple* tuples, size_t n, int width, Cursor* ring) {
  const int w = ClampProbeWidth(width);
  size_t feed = 0;
  auto refill = [&](Cursor& c) {
    // Probes that complete during Reset (no load needed) are drained
    // inline so a ring slot never idles while input remains.
    while (feed < n) {
      c.Reset(tuples[feed++]);
      if (const void* t = c.Target()) {
        PrefetchReadSpan(t, Cursor::kPrefetchLines);
        return true;
      }
    }
    return false;
  };
  int live = 0;
  for (int i = 0; i < w; ++i) {
    if (refill(ring[i])) ++live;
  }
  for (int i = 0; live > 0; i = (i + 1 == w) ? 0 : i + 1) {
    Cursor& c = ring[i];
    if (c.Target() == nullptr) continue;  // drained slot, tail of input
    c.Advance();
    if (const void* t = c.Target()) {
      PrefetchReadSpan(t, Cursor::kPrefetchLines);
    } else if (!refill(c)) {
      --live;
    }
  }
}

/// \brief Runs the batched driver selected by `mode` (must not be
/// kTupleAtATime — the caller keeps its scalar loop as the baseline and
/// dispatches here only for batched modes). `width` is the group size for
/// group prefetching and the ring width for AMAC.
template <typename Cursor>
void BatchedProbe(ProbeMode mode, const Tuple* tuples, size_t n, int width,
                  Cursor* cursors) {
  if (mode == ProbeMode::kAmac) {
    AmacProbe(tuples, n, width, cursors);
  } else {
    GroupPrefetchProbe(tuples, n, width, cursors);
  }
}

}  // namespace sgxb::exec

#endif  // SGXB_EXEC_PROBE_PIPELINE_H_
