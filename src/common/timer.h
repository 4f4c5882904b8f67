// Timing utilities.
//
// The paper measures execution times with RDTSCP because it is the only
// high-precision method available both inside and outside an enclave
// (Section 3). We expose the RDTSCP counter and a steady_clock-based wall
// timer, plus the measured TSC frequency so cycles can be converted to
// nanoseconds.

#ifndef SGXB_COMMON_TIMER_H_
#define SGXB_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace sgxb {

/// \brief Reads the time-stamp counter with serialization semantics
/// (RDTSCP), as the paper's measurements do.
inline uint64_t ReadTsc() {
#if defined(__x86_64__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// \brief Estimated TSC frequency in Hz (measured once at first use).
double TscFrequencyHz();

/// \brief Converts TSC cycles to nanoseconds using the measured frequency.
inline double CyclesToNanos(uint64_t cycles) {
  return static_cast<double>(cycles) * 1e9 / TscFrequencyHz();
}

/// \brief Wall-clock stopwatch with nanosecond resolution.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// \brief Nanoseconds elapsed since construction or the last Restart().
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  double ElapsedSeconds() const { return ElapsedNanos() * 1e-9; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// \brief Busy-waits for approximately `cycles` TSC cycles. Used by the SGX
/// simulator to inject enclave-transition costs as real delays.
void SpinForCycles(uint64_t cycles);

}  // namespace sgxb

#endif  // SGXB_COMMON_TIMER_H_
