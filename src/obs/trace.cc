#include "obs/trace.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/env.h"
#include "obs/metrics.h"

namespace sgxb::obs {

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

namespace {

// One ring per thread that ever recorded an event. Rings are owned by the
// global list (not the thread) so a worker that exits before export keeps
// its events; the thread_local below is only a cache of the pointer.
struct Ring {
  explicit Ring(size_t cap) : capacity(cap), events(cap) {}
  const size_t capacity;
  std::vector<TraceEvent> events;
  // Total events ever written; the ring holds the last min(total,
  // capacity) of them. Written by the owner thread with release so an
  // exporter that reads it with acquire (after quiescence) sees the event
  // payloads the count covers.
  std::atomic<uint64_t> total{0};
  int tid = 0;  ///< stable export id, assigned at registration
};

std::mutex g_rings_mu;
std::vector<std::unique_ptr<Ring>>& Rings() {
  static auto* rings = new std::vector<std::unique_ptr<Ring>>();
  return *rings;
}

// Events per ring created from now on; EnableTracing(n) changes it.
std::atomic<size_t> g_ring_capacity{65536};

Ring* ThisThreadRing() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    auto owned = std::make_unique<Ring>(
        g_ring_capacity.load(std::memory_order_acquire));
    ring = owned.get();
    std::lock_guard<std::mutex> lock(g_rings_mu);
    ring->tid = static_cast<int>(Rings().size());
    Rings().push_back(std::move(owned));
  }
  return ring;
}

}  // namespace

void RecordEvent(const char* name, const char* category, uint64_t begin_tsc,
                 uint64_t end_tsc) {
  Ring* ring = ThisThreadRing();
  const uint64_t n = ring->total.load(std::memory_order_relaxed);
  TraceEvent& slot = ring->events[n % ring->capacity];
  slot.name = name;
  slot.category = category;
  slot.begin_tsc = begin_tsc;
  slot.end_tsc = end_tsc;
  ring->total.store(n + 1, std::memory_order_release);
}

}  // namespace internal

using internal::Ring;

void EnableTracing(size_t events_per_thread) {
  if (events_per_thread != 0) {
    internal::g_ring_capacity.store(events_per_thread,
                                    std::memory_order_release);
  }
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void DisableTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
}

void ResetTrace() {
  std::lock_guard<std::mutex> lock(internal::g_rings_mu);
  for (auto& ring : internal::Rings()) {
    ring->total.store(0, std::memory_order_relaxed);
  }
}

TraceStats GetTraceStats() {
  TraceStats stats;
  std::lock_guard<std::mutex> lock(internal::g_rings_mu);
  for (const auto& ring : internal::Rings()) {
    const uint64_t total = ring->total.load(std::memory_order_acquire);
    stats.recorded += std::min<uint64_t>(total, ring->capacity);
    stats.dropped += total > ring->capacity ? total - ring->capacity : 0;
    ++stats.threads;
  }
  return stats;
}

const char* InternName(const std::string& name) {
  static std::mutex mu;
  static auto* interned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return interned->insert(name).first->c_str();
}

namespace {

// One trace event in chrome trace-event format. Durations below one
// microsecond are emitted with fractional-us precision so short spans
// (transitions) stay visible.
void AppendEvent(std::string& out, const internal::TraceEvent& e, int tid,
                 double ns_per_cycle) {
  const double ts_us = static_cast<double>(e.begin_tsc) * ns_per_cycle / 1e3;
  char buf[96];
  out += "{\"name\":";
  AppendJsonString(out, e.name);
  out += ",\"cat\":";
  AppendJsonString(out, e.category);
  if (e.end_tsc == e.begin_tsc) {
    std::snprintf(buf, sizeof(buf), ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f",
                  ts_us);
    out += buf;
  } else {
    const double dur_us =
        static_cast<double>(e.end_tsc - e.begin_tsc) * ns_per_cycle / 1e3;
    std::snprintf(buf, sizeof(buf), ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                  ts_us, dur_us);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%d}", tid);
  out += buf;
}

}  // namespace

std::string TraceToJson() {
  const double ns_per_cycle = 1e9 / TscFrequencyHz();
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(internal::g_rings_mu);
  for (const auto& ring : internal::Rings()) {
    const uint64_t total = ring->total.load(std::memory_order_acquire);
    const uint64_t held = std::min<uint64_t>(total, ring->capacity);
    // Oldest surviving event first. When the ring wrapped, that is the
    // slot the next write would overwrite.
    const uint64_t start = total - held;
    for (uint64_t i = 0; i < held; ++i) {
      const internal::TraceEvent& e =
          ring->events[(start + i) % ring->capacity];
      if (!first) out += ",";
      first = false;
      out += "\n";
      AppendEvent(out, e, ring->tid, ns_per_cycle);
    }
  }
  out += "\n]}\n";
  return out;
}

Status WriteTrace(const std::string& path) {
  const std::string body = TraceToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file " + path);
  }
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (std::fclose(f) != 0 || !wrote) {
    return Status::Internal("short write to trace file " + path);
  }
  return Status::OK();
}

namespace {

// SGXBENCH_TRACE=<path>: tracing starts enabled and the merged rings are
// written when the process exits.
struct TraceAtExit {
  TraceAtExit() {
    if (EnvString("SGXBENCH_TRACE").has_value()) {
      EnableTracing();
      std::atexit([] {
        auto path = EnvString("SGXBENCH_TRACE");
        if (!path.has_value()) return;
        DisableTracing();
        Status st = WriteTrace(*path);
        if (!st.ok()) {
          std::fprintf(stderr, "[sgxbench] warning: %s\n",
                       st.ToString().c_str());
        }
      });
    }
  }
};
TraceAtExit g_trace_at_exit;

}  // namespace

}  // namespace sgxb::obs
