// Calibration constants for the SGXv2 performance model.
//
// The reproduction environment has no SGX hardware, so every SGX-specific
// performance effect is modeled. The default constants below are taken
// directly from the paper's own micro-benchmark measurements (figure
// references inline) and from the Table 1 hardware description. They are
// fixed constants: re-calibrating against real SGXv2 hardware means
// editing the defaults below, not setting a variable at run time.

#ifndef SGXB_PERF_CALIBRATION_H_
#define SGXB_PERF_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace sgxb::perf {

/// \brief All tunable model parameters with paper-derived defaults.
struct CalibrationParams {
  // --- Reference machine (paper Table 1) -------------------------------
  int sockets = 2;
  int cores_per_socket = 16;
  double base_frequency_hz = 2.9e9;
  size_t l1d_bytes = 48_KiB;
  size_t l2_bytes = 1280_KiB;         // 1.25 MB per core
  size_t l3_bytes = 24_MiB;           // per socket
  size_t epc_per_socket_bytes = 64_GiB;
  size_t dram_per_socket_bytes = 256_GiB;

  /// Practical streaming bandwidth of one socket's 8 DDR4-3200 channels.
  /// Theoretical peak is 204.8 GB/s; ~83% efficiency for reads.
  double node_read_bandwidth = 170e9;   // bytes/s
  double node_write_bandwidth = 85e9;   // bytes/s (write-allocate traffic)
  /// Per-core streaming bandwidth before the memory controller saturates.
  double core_read_bandwidth = 18e9;
  double core_write_bandwidth = 14e9;

  /// Aggregate bandwidth of the 3 UPI links between the sockets
  /// (Section 5.5 quotes 67.2 GB/s as the theoretical upper bound).
  double upi_bandwidth = 67.2e9;

  /// DRAM random-access latency (dependent load, local node).
  double dram_latency_ns = 82.0;
  /// Latency multiplier for accessing the remote NUMA node's DRAM.
  double remote_latency_factor = 1.7;
  /// Memory-level parallelism for independent random accesses per core.
  double mlp_per_core = 8.0;
  /// Effective cost of an independent random 8-byte write to DRAM (RFO
  /// absorbed by MLP and write-combining).
  double random_write_cost_ns = 12.0;

  // --- SGX memory-encryption effects (paper Fig. 5 / Fig. 15) ----------
  /// Relative performance (SGX / native) of dependent random reads as a
  /// function of working-set size: 1.0 while cache-resident, decaying to
  /// 0.53 at 16 GiB (Fig. 5 left).
  double rand_read_relperf_floor = 0.53;
  /// Relative performance of independent random writes: down to 0.50 at
  /// 256 MiB and 0.33 from 8 GiB up (Fig. 5 right).
  double rand_write_relperf_floor = 0.33;
  /// Linear (streaming) access overheads: 5.5% for 64-bit reads, 3% for
  /// 512-bit reads, 2% for writes (Fig. 15, Section 5.4).
  double linear_read64_overhead = 0.055;
  double linear_read512_overhead = 0.03;
  double linear_write_overhead = 0.02;

  // --- Enclave-mode execution effects (paper Fig. 7) -------------------
  /// Slowdown of the reference (Listing 1) read-modify-write loop when the
  /// CPU is in enclave mode: "225% slower" = 3.25x.
  double ilp_penalty_reference = 3.25;
  /// Residual slowdown after manual 8x unroll + reorder (Listing 2): 20%.
  double ilp_penalty_unrolled = 1.20;
  /// Residual slowdown with AVX index buffering ("decreased the difference
  /// further"): 5%.
  double ilp_penalty_simd = 1.05;

  /// Native cycles per iteration of the dominant loop, by ILP class; used
  /// to estimate the compute component of a phase.
  double cycles_per_iter_reference = 1.6;
  double cycles_per_iter_unrolled = 1.4;
  double cycles_per_iter_simd = 0.5;

  // --- Enclave transition / SDK effects (Sections 4.4) -----------------
  /// Cycles for one enclave transition (EENTER or EEXIT path, including
  /// the SDK trampoline); SGX literature reports 8,000-14,000 cycles.
  uint64_t transition_cycles = 8000;
  /// Extra cost of an SDK mutex sleep/wake pair beyond the transitions.
  uint64_t futex_syscall_cycles = 2000;

  // --- Latency-hiding probe pipelines (docs/prefetching.md) -------------
  /// Group size of group-prefetching probe pipelines. The sweet spot
  /// trades prefetch distance against L1/L2 eviction of the group's own
  /// in-flight lines; re-calibrate per host with bench_ablation_prefetch.
  int probe_batch_size = 16;
  /// Ring width of AMAC probe pipelines — the effective prefetch
  /// distance, since a state's prefetch is issued ~width visits before
  /// its use.
  int probe_prefetch_distance = 12;
  /// Effective misses a software-prefetched probe loop keeps in flight:
  /// bounds how much latency a batched probe hides. Hidden random reads
  /// are costed at latency / prefetch_mlp instead of the full dependent
  /// latency per access.
  double prefetch_mlp = 6.0;

  // --- EDMM dynamic enclave growth (paper Fig. 11) ----------------------
  /// Cost to add one 4 KiB page to a running enclave (EAUG + EACCEPT +
  /// zeroing + kernel ioctl); calibrated so that a materializing join in a
  /// minimally-sized enclave retains ~4.5% of static throughput.
  double edmm_page_add_ns = 35000.0;

  // --- UPI encryption (paper Fig. 16) ------------------------------------
  /// Relative performance of a cross-NUMA SGX scan vs a plain cross-NUMA
  /// scan, at 1 thread (0.77) ramping to link saturation (0.96).
  double upi_crypto_relperf_1thread = 0.77;
  double upi_crypto_relperf_saturated = 0.96;

  /// \brief Process-wide instance used unless a caller injects its own:
  /// the defaults above.
  static const CalibrationParams& Default();
};

/// \brief Fingerprint of the host CPU identity (model, cores, cache
/// sizes, SIMD level), printed next to model results so numbers from
/// different machines are not compared by accident.
std::string CalibrationMachineHash();

}  // namespace sgxb::perf

#endif  // SGXB_PERF_CALIBRATION_H_
