#include "join/join_common.h"

#include "join/cht_join.h"
#include "join/crk_join.h"
#include "join/inl_join.h"
#include "join/mway_join.h"
#include "join/pht_join.h"
#include "join/rho_join.h"
#include "perf/calibration.h"

namespace sgxb::join {

exec::ProbeMode EffectiveProbeMode(const JoinConfig& config) {
  if (config.probe_mode.has_value()) return *config.probe_mode;
  return config.flavor == KernelFlavor::kReference
             ? exec::ProbeMode::kTupleAtATime
             : exec::ProbeMode::kGroupPrefetch;
}

int EffectiveProbeWidth(const JoinConfig& config, exec::ProbeMode mode) {
  if (config.probe_batch > 0) {
    return exec::ClampProbeWidth(config.probe_batch);
  }
  const perf::CalibrationParams& cal = perf::CalibrationParams::Default();
  return exec::ClampProbeWidth(mode == exec::ProbeMode::kAmac
                                   ? cal.probe_prefetch_distance
                                   : cal.probe_batch_size);
}

const char* JoinAlgorithmToString(JoinAlgorithm algo) {
  switch (algo) {
    case JoinAlgorithm::kPht:
      return "PHT";
    case JoinAlgorithm::kRho:
      return "RHO";
    case JoinAlgorithm::kMway:
      return "MWAY";
    case JoinAlgorithm::kInl:
      return "INL";
    case JoinAlgorithm::kCrk:
      return "CrkJoin";
    case JoinAlgorithm::kCht:
      return "CHT";
  }
  return "unknown";
}

Result<JoinResult> RunJoin(JoinAlgorithm algo, const Relation& build,
                           const Relation& probe, const JoinConfig& config) {
  switch (algo) {
    case JoinAlgorithm::kPht:
      return PhtJoin(build, probe, config);
    case JoinAlgorithm::kRho:
      return RhoJoin(build, probe, config);
    case JoinAlgorithm::kMway:
      return MwayJoin(build, probe, config);
    case JoinAlgorithm::kInl:
      return InlJoin(build, probe, config);
    case JoinAlgorithm::kCrk:
      return CrkJoin(build, probe, config);
    case JoinAlgorithm::kCht:
      return ChtJoin(build, probe, config);
  }
  return Status::InvalidArgument("unknown join algorithm");
}

Status ValidateJoinInputs(const Relation& build, const Relation& probe,
                          const JoinConfig& config) {
  if (build.empty() || probe.empty()) {
    return Status::InvalidArgument("join inputs must be non-empty");
  }
  if (config.num_threads <= 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config.radix_bits <= 0 || config.radix_bits > 24) {
    return Status::InvalidArgument("radix_bits must be in [1, 24]");
  }
  if (config.radix_passes != 1 && config.radix_passes != 2) {
    return Status::InvalidArgument("radix_passes must be 1 or 2");
  }
  if (config.materialize &&
      config.setting == ExecutionSetting::kSgxDataInEnclave &&
      config.enclave == nullptr) {
    return Status::InvalidArgument(
        "materializing inside the enclave requires an Enclave instance");
  }
  return Status::OK();
}

mem::MemoryResource* EffectiveResource(const JoinConfig& config) {
  if (config.resource != nullptr) return config.resource;
  return mem::ResourceFor(config.setting, config.enclave);
}

JoinScratch::JoinScratch(const JoinConfig& config)
    : resource_(EffectiveResource(config)) {
  if (config.alloc_policy == AllocPolicy::kArena) {
    arena_.emplace(resource_, /*chunk_bytes=*/0, config.arena_pool);
  }
}

Result<void*> JoinScratch::Allocate(size_t bytes) {
  if (arena_.has_value()) return arena_->Allocate(bytes);
  AlignedBuffer buf;
  SGXB_ASSIGN_OR_RETURN(buf, resource_->Allocate(bytes));
  void* p = buf.data();
  direct_.push_back(std::move(buf));
  return p;
}

}  // namespace sgxb::join
