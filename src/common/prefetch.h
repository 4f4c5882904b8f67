// Portable software-prefetch wrappers.
//
// The paper's central micro-architectural finding is that SGXv2 penalizes
// random memory access far more than sequential access (Figs. 4-5): a PHT
// probe or a pointer chase pays the full memory-encryption latency per
// miss, while scans run near-native. Software prefetching is the standard
// way to hide exactly that latency — issue the load for probe i+k's bucket
// while resolving probe i — and it works *inside* enclaves because
// PREFETCHT0 is not restricted by enclave mode the way dynamic reordering
// is (Section 4.2). These wrappers compile to plain __builtin_prefetch on
// GCC/Clang and to nothing on compilers without it, so probe pipelines can
// use them unconditionally.

#ifndef SGXB_COMMON_PREFETCH_H_
#define SGXB_COMMON_PREFETCH_H_

#include <cstddef>

#include "common/types.h"

namespace sgxb {

#if defined(__GNUC__) || defined(__clang__)
#define SGXB_HAVE_BUILTIN_PREFETCH 1
#else
#define SGXB_HAVE_BUILTIN_PREFETCH 0
#endif

/// \brief Hints that `addr` will be read soon. Safe on any address,
/// including null or unmapped (prefetch never faults).
inline void PrefetchRead(const void* addr) {
#if SGXB_HAVE_BUILTIN_PREFETCH
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// \brief Prefetches `lines` consecutive cache lines starting at `addr`.
/// Structures larger than one line (B-tree key arrays, bucket pairs) need
/// their first few lines resident before a binary search can start.
inline void PrefetchReadSpan(const void* addr, size_t lines) {
  const char* p = static_cast<const char*>(addr);
  for (size_t i = 0; i < lines; ++i) {
    PrefetchRead(p + i * kCacheLineSize);
  }
}

}  // namespace sgxb

#endif  // SGXB_COMMON_PREFETCH_H_
