#include "sgx/transition.h"

#include <atomic>
#include <cstdio>

#include "common/env.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/calibration.h"

namespace sgxb::sgx {

namespace {

// Transition activity is published through the obs registry so per-query
// reports (obs/query_report.h) can diff it over a query window; the
// GetTransitionStats/ResetTransitionStats API below stays as the
// benchmark-facing view of the same counters.
obs::Counter& Ecalls() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrEcalls);
  return *c;
}
obs::Counter& Ocalls() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrOcalls);
  return *c;
}
obs::Counter& InjectedCycles() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTransitionCycles);
  return *c;
}

thread_local int t_enclave_depth = 0;
// RDTSCP stamp of the outermost EnclaveEnter, so the matching exit can
// record the whole enclave residency as one "ecall" trace span.
thread_local uint64_t t_ecall_begin_tsc = 0;

void InjectTransition() {
  if (!CostInjectionEnabled()) return;
  const uint64_t cycles =
      perf::CalibrationParams::Default().transition_cycles;
  SpinForCycles(cycles);
  InjectedCycles().Add(cycles);
}

}  // namespace

bool CostInjectionEnabled() {
  static const bool kEnabled = !EnvBool("SGXBENCH_NO_INJECT", false);
  return kEnabled;
}

TransitionStats GetTransitionStats() {
  return TransitionStats{Ecalls().Value(), Ocalls().Value(),
                         InjectedCycles().Value()};
}

void ResetTransitionStats() {
  Ecalls().Reset();
  Ocalls().Reset();
  InjectedCycles().Reset();
}

bool InEnclaveMode() { return t_enclave_depth > 0; }

void EnclaveEnter() {
  InjectTransition();
  if (t_enclave_depth++ == 0 && obs::TracingEnabled()) {
    t_ecall_begin_tsc = ReadTsc();
  }
  Ecalls().Increment();
}

void EnclaveExit() {
  if (t_enclave_depth <= 0) {
    std::fprintf(stderr, "EnclaveExit without EnclaveEnter\n");
  }
  if (--t_enclave_depth == 0 && t_ecall_begin_tsc != 0) {
    obs::TraceComplete("ecall", "sgx", t_ecall_begin_tsc, ReadTsc());
    t_ecall_begin_tsc = 0;
  }
  InjectTransition();
}

void OcallRoundTrip() {
  if (t_enclave_depth == 0) return;
  obs::ObsSpan span("ocall", "sgx");
  Ocalls().Increment();
  // Exit + re-enter: two transitions.
  InjectTransition();
  InjectTransition();
}

}  // namespace sgxb::sgx
