#include "perf/calibration.h"

#include <cstdio>

#include "common/cpu_info.h"

namespace sgxb::perf {

namespace {
uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

std::string CalibrationMachineHash() {
  const CpuInfo& cpu = CpuInfo::Host();
  uint64_t h = 14695981039346656037ull;
  h = Fnv1a(h, cpu.model_name);
  h = Fnv1a(h, std::to_string(cpu.logical_cores));
  h = Fnv1a(h, std::to_string(cpu.l1d_bytes));
  h = Fnv1a(h, std::to_string(cpu.l2_bytes));
  h = Fnv1a(h, std::to_string(cpu.l3_bytes));
  h = Fnv1a(h, std::to_string(static_cast<int>(cpu.max_simd)));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

const CalibrationParams& CalibrationParams::Default() {
  static const CalibrationParams kParams;
  return kParams;
}

}  // namespace sgxb::perf
