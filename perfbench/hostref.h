// Host-speed references: a fixed query-like job of the benchmark's own
// code, timed between windows of the mix while no request is in flight,
// and a commit-like step timed among the commits of the solo burst
// (CommitReference below).
//
// The shared host the benchmark was tuned on changes its memory speed in
// phases of several minutes (a random read slows by up to 2x while the
// core's arithmetic speed stays within a few per cent), longer than one
// run, so no statistic inside a run removes them. A reference measures
// the phase a run is in, and the benchmark scales the timings it stands
// for by nominal / reference. Neither reference calls the program, so a
// change to the program moves the scaled timings as it moves the raw
// ones; the raw figures are printed beside them.

#ifndef PERFBENCH_HOSTREF_H_
#define PERFBENCH_HOSTREF_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

/// Median reference time on the host the benchmark was tuned on (4-vCPU
/// KVM guest, Intel Xeon with AVX-512, in a quiet phase): the scale's
/// fixed point, so scaled timings read as that host's milliseconds.
inline constexpr double kReferenceNominalNs = 1.4e6;

class HostReference {
 public:
  /// \brief Allocates one job's data per thread; `threads` jobs run at once.
  explicit HostReference(int threads);

  /// \brief Runs the job on every thread at once, a few rounds; returns
  /// the median round's mean per-thread time in ns.
  double MeasureNs();

 private:
  /// Hashing arithmetic, then dependent-free random reads of `table`:
  /// about half of each, like a query's compute and its hash-table
  /// probes.
  static uint64_t Job(const std::vector<uint64_t>& table, uint64_t seed);

  std::vector<std::vector<uint64_t>> tables_;
  uint64_t sink_ = 0;  ///< keeps the jobs' sums live, so none is elided
};

/// p50 and p95 of the CommitReference steps on the host the benchmark
/// was tuned on: the fixed points of the commit scales, so scaled commit
/// percentiles read as that host's microseconds.
inline constexpr double kCommitReferenceP50Ns = 4.0e3;
inline constexpr double kCommitReferenceP95Ns = 6.0e3;

/// \brief The host reference of the solo commit burst: a step that does
/// to memory what a single-row commit does, with the benchmark's own
/// buffers and none of the program's code.
///
/// A commit's time is mostly whether the chunk it copies is still in the
/// shared last-level cache, which the host's other guests decide, so it
/// moves with the host by up to 30% between runs minutes apart. The
/// query-like HostReference, timed on every core between windows, does
/// not follow it. The burst's writer instead runs one step per tick
/// among its commits (README.md, "Host noise"), so steps and commits
/// meet the same caches at the same times. A step takes a mutex,
/// allocates a 16 KiB chunk (4096 rows of 4 bytes, the program's version
/// chunk when the benchmark was written), copies the chunk's current
/// version into it, patches one value, scans 128 cache-line slots (as
/// reclamation scans the epoch pins), bumps shared counters and frees
/// the superseded version.
class CommitReference {
 public:
  static constexpr size_t kChunkBytes = 16u << 10;
  static constexpr size_t kChunkRows = kChunkBytes / sizeof(uint32_t);

  /// \brief `chunks` chunk versions to copy between, picked at random.
  explicit CommitReference(size_t chunks);
  ~CommitReference();
  CommitReference(const CommitReference&) = delete;
  CommitReference& operator=(const CommitReference&) = delete;

  /// \brief Runs one step; returns its time in ns.
  double StepNs();

 private:
  std::mutex mu_;
  std::vector<void*> versions_;
  std::vector<std::array<uint64_t, 8>> slots_;
  std::array<std::atomic<uint64_t>, 3> counters_{};
  uint64_t x_ = 0x9e3779b97f4a7c15ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTREF_H_
