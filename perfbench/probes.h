// Per-layer probes of the traced run: timed calls into each module's
// public functions, made after the query mix has stopped.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "stats.h"
#include "workload.h"

namespace perfbench {

/// \brief Runs every probe against the live fixture and appends its
/// metrics (exec.gang_us, scan.rowid_u8_gbps, join.*, storage.* probe
/// rates, sgx.ecall_us, sgx.mee_gbps, txn.snapshot_us, obs.report_us,
/// tpch.filter_u32_gbps) to `out`. Needs fx.vdb() for the snapshot probe.
Status RunProbes(Fixture& fx, MetricList* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
