#include "exec/pipeline.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/trace.h"
#include "sgx/transition.h"

namespace sgxb::exec {

Status PipelineLane::Reserve(size_t grain) {
  if (grain <= capacity_) return Status::OK();
  auto sel_a = arena_.AllocateArray<uint64_t>(grain);
  if (!sel_a.ok()) return sel_a.status();
  auto sel_b = arena_.AllocateArray<uint64_t>(grain);
  if (!sel_b.ok()) return sel_b.status();
  sel_in_ = sel_a.value();
  sel_out_ = sel_b.value();
  capacity_ = grain;
  return Status::OK();
}

Status RunMorselPipeline(size_t total_rows, const PipelineConfig& config,
                         const MorselBody& body) {
  if (config.resource == nullptr) {
    return Status::InvalidArgument(
        "RunMorselPipeline: config.resource is required");
  }
  if (total_rows == 0) return Status::OK();

  const int lanes = std::max(1, config.num_threads);

  // Lane scratch is created on the calling thread before the fan-out
  // (Arena is not thread-safe; each lane owns its arena exclusively once
  // the loop starts). With an ArenaPool the chunks come back warm from
  // earlier pipelines, so per-pipeline setup is a few pointer bumps.
  std::vector<std::unique_ptr<PipelineLane>> lane_scratch;
  lane_scratch.reserve(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    auto lane = std::make_unique<PipelineLane>(i, config.resource,
                                               config.arena_pool);
    Status s = lane->Reserve(kMorselGrain);
    if (!s.ok()) return s;
    lane_scratch.push_back(std::move(lane));
  }

  obs::ObsSpan pipeline_span(config.name, "pipeline");

  // First body failure wins; later morsels short-circuit.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;

  ParallelForOptions opts;
  opts.num_threads = lanes;
  if (config.enclave_lanes) {
    opts.worker_scope = [](int, const std::function<void()>& run) {
      sgx::ScopedEcall ecall;
      run();
    };
  }

  auto run_body = [&](Range morsel, int lane_id) {
    if (failed.load(std::memory_order_relaxed)) return;
    std::optional<obs::ObsSpan> morsel_span;
    if (obs::TracingEnabled()) {
      morsel_span.emplace(config.name, "morsel");
    }
    Status s = body(morsel, *lane_scratch[static_cast<size_t>(lane_id)]);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = s;
      failed.store(true, std::memory_order_relaxed);
    }
  };

  Status loop = ParallelFor(total_rows, kMorselGrain, run_body, opts);
  if (!loop.ok()) return loop;
  return first_error;
}

}  // namespace sgxb::exec
