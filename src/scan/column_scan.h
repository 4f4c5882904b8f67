// Multi-threaded column scan driver (paper Section 5).
//
// Runs the SIMD range-scan kernels over a uint8 column with 1..N threads,
// producing either a bit vector (one result bit per value, Sections
// 5.1-5.2) or materialized 64-bit row indexes (the variable write-rate
// variant of Section 5.3). Emits the AccessProfile consumed by the cost
// model and injects enclave transitions when executed under an SGX
// setting.

#ifndef SGXB_SCAN_COLUMN_SCAN_H_
#define SGXB_SCAN_COLUMN_SCAN_H_

#include <cstdint>

#include "common/bitvector.h"
#include "common/relation.h"
#include "common/status.h"
#include "perf/access_profile.h"
#include "scan/scan_kernels.h"

namespace sgxb::scan {

struct ScanConfig {
  /// Inclusive predicate bounds: lo <= v <= hi.
  uint8_t lo = 0;
  uint8_t hi = 127;
  int num_threads = 1;
  /// Requested SIMD level; silently lowered to what the host supports.
  SimdLevel simd = SimdLevel::kAvx512;
  ExecutionSetting setting = ExecutionSetting::kPlainCpu;
  /// Scan the same data `repetitions` times (the paper uses 1000 scans
  /// after 10 warm-ups for cache-resident sizes).
  int repetitions = 1;
};

struct ScanResult {
  /// Matches found by the *last* repetition.
  uint64_t matches = 0;
  /// Wall time of the measured repetitions on the host (all threads).
  double host_ns = 0;
  /// Aggregate profile over all repetitions and threads.
  perf::AccessProfile profile;
  int threads = 1;
};

/// \brief Range scan producing a bit vector. `out` must hold
/// column.num_values() bits.
Result<ScanResult> RunBitVectorScan(const Column<uint8_t>& column,
                                    BitVector* out,
                                    const ScanConfig& config);

/// \brief Range scan materializing matching row indexes. `out_ids` must
/// have room for column.num_values() entries; *out_count receives the
/// number written.
Result<ScanResult> RunRowIdScan(const Column<uint8_t>& column,
                                uint64_t* out_ids, uint64_t* out_count,
                                const ScanConfig& config);

}  // namespace sgxb::scan

#endif  // SGXB_SCAN_COLUMN_SCAN_H_
