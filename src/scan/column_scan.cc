#include "scan/column_scan.h"

#include <atomic>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "sgx/transition.h"

namespace sgxb::scan {

namespace {

// Chunks handed to threads are multiples of 64 values so each thread owns
// whole bit-vector words.
Range ChunkFor(size_t n, int threads, int tid) {
  size_t blocks = (n + 63) / 64;
  Range br = SplitRange(blocks, threads, tid);
  return Range{br.begin * 64, std::min(n, br.end * 64)};
}

perf::AccessProfile MakeScanProfile(size_t bytes_read, size_t bytes_written,
                                    int reps, SimdLevel simd) {
  perf::AccessProfile p;
  p.seq_read_bytes = bytes_read * reps;
  p.seq_write_bytes = bytes_written * reps;
  p.seq_data_bytes = bytes_read;  // one pass streams the whole column
  p.loop_iterations = bytes_read / 64 * reps;  // one iteration per vector
  p.ilp = perf::IlpClass::kStreaming;
  p.wide_vectors = (simd == SimdLevel::kAvx512);
  return p;
}

}  // namespace

Result<ScanResult> RunBitVectorScan(const Column<uint8_t>& column,
                                    BitVector* out,
                                    const ScanConfig& config) {
  if (out->num_bits() < column.num_values()) {
    return Status::InvalidArgument("bit vector too small for column");
  }
  if (config.num_threads <= 0 || config.repetitions <= 0) {
    return Status::InvalidArgument("threads and repetitions must be >= 1");
  }
  BitVectorKernel kernel = PickBitVectorKernel(config.simd);
  const uint8_t* data = column.data();
  const size_t n = column.num_values();
  std::atomic<uint64_t> matches{0};
  const bool in_enclave = config.setting != ExecutionSetting::kPlainCpu;

  // Morsel-driven (Fig 13/16 scaling path): the scan is scheduled as
  // 64-value blocks — so every morsel owns whole bit-vector words — in
  // ~256 KiB morsels over the executor's work-stealing lanes. The ECall
  // scope wraps each lane's whole morsel loop: threads enter the enclave
  // once and stream, as the paper's benchmarks do, not once per morsel.
  constexpr size_t kMorselBlocks = (256u << 10) / 64;
  const size_t total_blocks = (n + 63) / 64;
  ParallelForOptions opts;
  opts.num_threads = config.num_threads;
  opts.worker_scope = [&](int, const std::function<void()>& run) {
    std::optional<sgx::ScopedEcall> ecall;
    if (in_enclave) ecall.emplace();
    run();
  };

  WallTimer timer;
  Status run_status = ParallelFor(
      total_blocks, kMorselBlocks,
      [&](Range blocks, int) {
        const size_t begin = blocks.begin * 64;
        const size_t end = std::min(n, blocks.end * 64);
        uint64_t local = 0;
        for (int rep = 0; rep < config.repetitions; ++rep) {
          local = kernel(data + begin, end - begin, config.lo, config.hi,
                         out->words() + begin / 64);
        }
        matches.fetch_add(local, std::memory_order_relaxed);
      },
      opts);
  double ns = static_cast<double>(timer.ElapsedNanos());
  SGXB_RETURN_NOT_OK(run_status);

  ScanResult result;
  result.matches = matches.load(std::memory_order_relaxed);
  result.host_ns = ns;
  result.threads = config.num_threads;
  result.profile = MakeScanProfile(n, n / 8, config.repetitions,
                                   config.simd);
  return result;
}

Result<ScanResult> RunRowIdScan(const Column<uint8_t>& column,
                                uint64_t* out_ids, uint64_t* out_count,
                                const ScanConfig& config) {
  if (config.num_threads <= 0 || config.repetitions <= 0) {
    return Status::InvalidArgument("threads and repetitions must be >= 1");
  }
  RowIdKernel kernel = PickRowIdKernel(config.simd);
  const uint8_t* data = column.data();
  const size_t n = column.num_values();
  const int threads = config.num_threads;
  const bool in_enclave = config.setting != ExecutionSetting::kPlainCpu;

  // Each thread writes into its own slice of the output, sized for the
  // worst case; slices are compacted afterwards (outside the timing).
  std::vector<uint64_t> counts(threads, 0);

  // Stays a fixed gang (not morsels): the compaction below depends on each
  // thread writing one contiguous slice at its ChunkFor offset.
  WallTimer timer;
  Status run_status = ParallelRun(threads, [&](int tid) {
    std::optional<sgx::ScopedEcall> ecall;
    if (in_enclave) ecall.emplace();

    Range r = ChunkFor(n, threads, tid);
    if (r.begin >= r.end) return;
    uint64_t local = 0;
    for (int rep = 0; rep < config.repetitions; ++rep) {
      local = kernel(data + r.begin, r.end - r.begin, config.lo, config.hi,
                     r.begin, out_ids + r.begin);
    }
    counts[tid] = local;
  });
  double ns = static_cast<double>(timer.ElapsedNanos());
  SGXB_RETURN_NOT_OK(run_status);

  // Compact the per-thread slices into a dense prefix.
  uint64_t total = counts[0];
  for (int tid = 1; tid < threads; ++tid) {
    Range r = ChunkFor(n, threads, tid);
    if (r.begin >= r.end) continue;
    if (r.begin != total) {
      std::move(out_ids + r.begin, out_ids + r.begin + counts[tid],
                out_ids + total);
    }
    total += counts[tid];
  }
  *out_count = total;

  ScanResult result;
  result.matches = total;
  result.host_ns = ns;
  result.threads = threads;
  result.profile =
      MakeScanProfile(n, static_cast<size_t>(total) * sizeof(uint64_t),
                      config.repetitions, config.simd);
  return result;
}

}  // namespace sgxb::scan
