// Fused, morsel-driven pipeline driver (docs/pipelines.md).
//
// The paper's query framework is operator-at-a-time: every operator
// fully materializes its output (Section 6), so each query pays a full
// write + re-read round-trip per intermediate — the traffic class
// enclave memory encryption penalizes hardest. This driver runs a whole
// operator chain (filter -> refine -> gather -> probe -> aggregate) as
// ONE pass per morsel on the work-stealing executor: the intermediate
// "row-id list" shrinks to a per-morsel selection vector in worker-local,
// arena-backed scratch that stays cache-resident, and only pipeline
// breakers (join key bitmaps, final aggregates) write anything global.
//
// The driver owns the per-lane scratch and the parallel loop; the fused
// operator chain itself is the caller's morsel body (plan/fused.cc
// composes them per plan). Lanes optionally run under a ScopedEcall so
// enclave entry is charged once per lane, exactly like the materializing
// operators.

#ifndef SGXB_EXEC_PIPELINE_H_
#define SGXB_EXEC_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/parallel.h"
#include "common/status.h"
#include "mem/arena.h"

namespace sgxb::mem {
class ArenaPool;
}

namespace sgxb::exec {

/// \brief Rows per morsel. The lane scratch (two selection vectors,
/// 16 bytes/row) is sized to this, so the working set of one morsel stays
/// cache-resident: 32 Ki rows = 512 KiB.
inline constexpr size_t kMorselGrain = 32 * 1024;

struct PipelineConfig {
  /// Span / phase label ("q3.scan_orders", ...). Must outlive the run.
  const char* name = "pipeline";
  int num_threads = 1;
  /// Wrap each lane's whole morsel loop in an sgx::ScopedEcall (one
  /// enclave entry per lane, as on hardware).
  bool enclave_lanes = false;
  /// Resource the lane arenas draw chunks from (required); with a pool
  /// the chunks are recycled across pipelines and queries.
  mem::MemoryResource* resource = nullptr;
  mem::ArenaPool* arena_pool = nullptr;
};

/// \brief Worker-local scratch for one pipeline lane: a double-buffered
/// selection vector (absolute row ids), carved from an arena over the
/// query's resource.
class PipelineLane {
 public:
  PipelineLane(int id, mem::MemoryResource* resource,
               mem::ArenaPool* pool)
      : id_(id), arena_(resource, 0, pool) {}

  PipelineLane(const PipelineLane&) = delete;
  PipelineLane& operator=(const PipelineLane&) = delete;

  /// \brief Carves the scratch buffers for `grain`-row morsels.
  Status Reserve(size_t grain);

  int lane_id() const { return id_; }

  /// \brief Input selection vector of the current stage.
  uint64_t* sel_in() { return sel_in_; }
  /// \brief Output selection vector of the current stage.
  uint64_t* sel_out() { return sel_out_; }
  /// \brief Makes the current output the next stage's input (a
  /// refinement consumed sel_in and produced sel_out).
  void FlipSel() { std::swap(sel_in_, sel_out_); }

 private:
  int id_;
  mem::Arena arena_;
  size_t capacity_ = 0;
  uint64_t* sel_in_ = nullptr;
  uint64_t* sel_out_ = nullptr;
};

/// \brief The fused operator chain, invoked once per morsel. `morsel` is
/// an absolute row range of the pipeline's driving table; the body runs
/// every stage over it (typically: scan into `lane.sel_out()`, FlipSel,
/// refine sel_in -> sel_out, ..., probe/aggregate into lane-local state).
/// A non-OK return aborts the pipeline (remaining morsels are skipped)
/// and is returned from RunMorselPipeline.
using MorselBody = std::function<Status(Range morsel, PipelineLane& lane)>;

/// \brief Runs one pipeline: splits [0, total_rows) into kMorselGrain-row
/// morsels scheduled over the work-stealing executor, with per-lane
/// arena-backed scratch and (optionally) one ScopedEcall per lane. Emits
/// a trace span for the pipeline and, when tracing, one per morsel.
Status RunMorselPipeline(size_t total_rows, const PipelineConfig& config,
                         const MorselBody& body);

}  // namespace sgxb::exec

#endif  // SGXB_EXEC_PIPELINE_H_
