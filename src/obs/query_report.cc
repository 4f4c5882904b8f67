#include "obs/query_report.h"

#include <cstdio>

#include "obs/trace.h"

namespace sgxb::obs {

double QueryReport::PoolHitRate() const {
  const uint64_t total = pool_hits + pool_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(pool_hits) /
                          static_cast<double>(total);
}

std::string QueryReport::ToJson() const {
  std::string out = "{\"query\": ";
  AppendJsonString(out, query);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"wall_ns\": %.0f", wall_ns);
  out += buf;
  auto add = [&out](const char* key, uint64_t v) {
    out += ", \"";
    out += key;
    out += "\": " + std::to_string(v);
  };
  add("ecalls", ecalls);
  add("ocalls", ocalls);
  add("transition_cycles", transition_cycles);
  add("mutex_parks", mutex_parks);
  add("mutex_wake_ocalls", mutex_wake_ocalls);
  add("mutex_park_ns", mutex_park_ns);
  add("edmm_pages_added", edmm_pages_added);
  add("edmm_pages_trimmed", edmm_pages_trimmed);
  add("edmm_injected_ns", edmm_injected_ns);
  add("arena_bytes", arena_bytes);
  add("arena_chunks", arena_chunks);
  add("pool_hits", pool_hits);
  add("pool_misses", pool_misses);
  add("gangs", gangs);
  add("tasks", tasks);
  add("morsels", morsels);
  add("morsel_steals", morsel_steals);
  add("bytes_materialized", bytes_materialized);
  add("partitions_evicted", partitions_evicted);
  add("partitions_reloaded", partitions_reloaded);
  add("storage_prefetch_loads", storage_prefetch_loads);
  add("storage_decrypt_bytes", storage_decrypt_bytes);
  add("storage_pin_waits", storage_pin_waits);
  add("txn_commits", txn_commits);
  add("txn_versions_created", txn_versions_created);
  add("txn_versions_retired", txn_versions_retired);
  add("txn_versions_reclaimed", txn_versions_reclaimed);
  add("txn_cow_bytes", txn_cow_bytes);
  add("txn_reclaimed_bytes", txn_reclaimed_bytes);
  std::snprintf(buf, sizeof(buf), ", \"pool_hit_rate\": %.4f",
                PoolHitRate());
  out += buf;
  out += ", \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ", ";
    out += '{';
    AppendJsonString(out, phases[i].name);
    std::snprintf(buf, sizeof(buf), ": %.0f}", phases[i].host_ns);
    out += buf;
  }
  out += "]}";
  return out;
}

std::string QueryReport::ToString() const {
  char buf[256];
  std::string out = "QueryReport(" + query + ")\n";
  std::snprintf(buf, sizeof(buf), "  wall: %.3f ms over %zu phases\n",
                wall_ns * 1e-6, phases.size());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  transitions: %llu ecalls, %llu ocalls, %llu injected "
                "cycles\n",
                static_cast<unsigned long long>(ecalls),
                static_cast<unsigned long long>(ocalls),
                static_cast<unsigned long long>(transition_cycles));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  mutex: %llu parks (%.3f ms parked), %llu wake ocalls\n",
                static_cast<unsigned long long>(mutex_parks),
                static_cast<double>(mutex_park_ns) * 1e-6,
                static_cast<unsigned long long>(mutex_wake_ocalls));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  edmm: +%llu/-%llu pages, %.3f ms injected\n",
                static_cast<unsigned long long>(edmm_pages_added),
                static_cast<unsigned long long>(edmm_pages_trimmed),
                static_cast<double>(edmm_injected_ns) * 1e-6);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  memory: %llu arena bytes in %llu chunks, pool hit rate "
                "%.1f%%\n",
                static_cast<unsigned long long>(arena_bytes),
                static_cast<unsigned long long>(arena_chunks),
                100.0 * PoolHitRate());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  executor: %llu gangs, %llu tasks, %llu morsels "
                "(%llu stolen)\n",
                static_cast<unsigned long long>(gangs),
                static_cast<unsigned long long>(tasks),
                static_cast<unsigned long long>(morsels),
                static_cast<unsigned long long>(morsel_steals));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  materialized: %llu bytes\n",
                static_cast<unsigned long long>(bytes_materialized));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  storage: %llu reloads (+%llu prefetch), %llu evictions, "
                "%llu decrypt bytes, %llu pin waits\n",
                static_cast<unsigned long long>(partitions_reloaded),
                static_cast<unsigned long long>(storage_prefetch_loads),
                static_cast<unsigned long long>(partitions_evicted),
                static_cast<unsigned long long>(storage_decrypt_bytes),
                static_cast<unsigned long long>(storage_pin_waits));
  out += buf;
  if (txn_commits > 0 || txn_versions_reclaimed > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  txn: %llu commits, versions +%llu/-%llu (%llu retired), "
                  "%llu cow bytes, %llu reclaimed bytes\n",
                  static_cast<unsigned long long>(txn_commits),
                  static_cast<unsigned long long>(txn_versions_created),
                  static_cast<unsigned long long>(txn_versions_reclaimed),
                  static_cast<unsigned long long>(txn_versions_retired),
                  static_cast<unsigned long long>(txn_cow_bytes),
                  static_cast<unsigned long long>(txn_reclaimed_bytes));
    out += buf;
  }
  return out;
}

QueryReportScope::QueryReportScope(const std::string& query_name, int domain)
    : query_(query_name),
      domain_(domain),
      before_(domain >= 0 ? Registry::Global().DomainSnapshot(domain)
                          : Registry::Global().Snapshot()) {
  if (TracingEnabled()) span_begin_tsc_ = ReadTsc();
}

QueryReport QueryReportScope::Finish(std::vector<PhaseTiming> phases) {
  QueryReport report;
  report.query = query_;
  report.wall_ns = static_cast<double>(timer_.ElapsedNanos());
  report.phases = std::move(phases);
  if (span_begin_tsc_ != 0 && !finished_) {
    TraceComplete(InternName(query_), "query", span_begin_tsc_, ReadTsc());
  }
  finished_ = true;

  const MetricsSnapshot after =
      domain_ >= 0 ? Registry::Global().DomainSnapshot(domain_)
                   : Registry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterOr(name) - before_.CounterOr(name);
  };
  report.ecalls = delta(kCtrEcalls);
  report.ocalls = delta(kCtrOcalls);
  report.transition_cycles = delta(kCtrTransitionCycles);
  report.mutex_parks = delta(kCtrMutexParks);
  report.mutex_wake_ocalls = delta(kCtrMutexWakeOcalls);
  report.mutex_park_ns = delta(kCtrMutexParkNsTotal);
  report.edmm_pages_added = delta(kCtrEdmmPagesAdded);
  report.edmm_pages_trimmed = delta(kCtrEdmmPagesTrimmed);
  report.edmm_injected_ns = delta(kCtrEdmmInjectedNs);
  report.arena_bytes = delta(kCtrArenaBytes);
  report.arena_chunks = delta(kCtrArenaChunks);
  report.pool_hits = delta(kCtrPoolHits);
  report.pool_misses = delta(kCtrPoolMisses);
  report.gangs = delta(kCtrExecGangs);
  report.tasks = delta(kCtrExecTasks);
  report.morsels = delta(kCtrExecMorsels);
  report.morsel_steals = delta(kCtrExecMorselSteals);
  report.bytes_materialized = delta(kCtrBytesMaterialized);
  report.partitions_evicted = delta(kCtrStoragePartitionsEvicted);
  report.partitions_reloaded = delta(kCtrStoragePartitionsReloaded);
  report.storage_prefetch_loads = delta(kCtrStoragePrefetchLoads);
  report.storage_decrypt_bytes = delta(kCtrStorageDecryptBytes);
  report.storage_pin_waits = delta(kCtrStoragePinWaits);
  report.txn_commits = delta(kCtrTxnCommits);
  report.txn_versions_created = delta(kCtrTxnVersionsCreated);
  report.txn_versions_retired = delta(kCtrTxnVersionsRetired);
  report.txn_versions_reclaimed = delta(kCtrTxnVersionsReclaimed);
  report.txn_cow_bytes = delta(kCtrTxnCowBytes);
  report.txn_reclaimed_bytes = delta(kCtrTxnReclaimedBytes);
  return report;
}

}  // namespace sgxb::obs
