#include "obs/metrics.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/env.h"

namespace sgxb::obs {

namespace internal {

namespace {
std::atomic<int> g_next_shard{0};
thread_local int t_domain = -1;
}  // namespace

int ThisThreadShard() {
  thread_local const int shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

int CurrentDomainIndex() { return t_domain; }

void SetCurrentDomainIndex(int domain) {
  t_domain = (domain >= 0 && domain < kMaxMetricDomains) ? domain : -1;
}

}  // namespace internal

int CurrentMetricDomain() { return internal::CurrentDomainIndex(); }

namespace {

// Bucket of a value: floor(log2(v)), with 0 mapping to bucket 0. The
// bucket's value range is [2^b, 2^(b+1)).
int BucketOf(uint64_t v) {
  if (v < 2) return 0;
  return 63 - __builtin_clzll(v);
}

}  // namespace

void Histogram::Record(uint64_t value) {
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.Increment();
  sum_.Add(value);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::QuantileUpperBound(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0;
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank) {
      return b >= 63 ? UINT64_MAX : (uint64_t{1} << (b + 1)) - 1;
    }
  }
  return Max();
}

uint64_t MetricsSnapshot::CounterOr(const std::string& name,
                                    uint64_t fallback) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : fallback;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) +
           ", \"max\": " + std::to_string(h.max) +
           ", \"p50\": " + std::to_string(h.p50) +
           ", \"p99\": " + std::to_string(h.p99) + ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,value,count,sum,max,p50,p99\n";
  for (const auto& [name, value] : counters) {
    out += "counter," + name + "," + std::to_string(value) + ",,,,,\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "gauge," + name + "," + std::to_string(value) + ",,,,,\n";
  }
  for (const auto& [name, h] : histograms) {
    out += "histogram," + name + ",," + std::to_string(h.count) + "," +
           std::to_string(h.sum) + "," + std::to_string(h.max) + "," +
           std::to_string(h.p50) + "," + std::to_string(h.p99) + "\n";
  }
  return out;
}

struct Registry::Impl {
  mutable std::mutex mu;
  // node-stable containers: handles returned by Get* must survive rehash.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  // Bitmap of attribution domains in flight (bit set = acquired).
  uint64_t domains_used = 0;
};
static_assert(kMaxMetricDomains <= 64,
              "domain free-set is a single uint64_t bitmap");

Registry::Impl& Registry::impl() const {
  // Leaked intentionally: worker threads and atexit exporters may touch
  // metrics after static destructors start.
  static auto* impl = new Impl();
  return *impl;
}

Registry& Registry::Global() {
  static auto* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto& slot = i.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto& slot = i.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto& slot = i.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  Impl& i = impl();
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(i.mu);
  for (const auto& [name, c] : i.counters) {
    snap.counters[name] = c->Value();
  }
  for (const auto& [name, g] : i.gauges) {
    snap.gauges[name] = g->Value();
  }
  for (const auto& [name, h] : i.histograms) {
    HistogramData d;
    d.count = h->Count();
    d.sum = h->Sum();
    d.max = h->Max();
    d.p50 = h->QuantileUpperBound(0.5);
    d.p99 = h->QuantileUpperBound(0.99);
    int last = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h->BucketCount(b) != 0) last = b;
    }
    for (int b = 0; b <= last; ++b) d.buckets.push_back(h->BucketCount(b));
    snap.histograms[name] = std::move(d);
  }
  return snap;
}

int Registry::AcquireDomain() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  for (int d = 0; d < kMaxMetricDomains; ++d) {
    if ((i.domains_used >> d) & 1u) continue;
    i.domains_used |= uint64_t{1} << d;
    // Zero the slot in every counter registered so far. Counters
    // registered *after* this point start at zero anyway, so a
    // DomainSnapshot always reads totals-since-acquire.
    for (auto& [name, c] : i.counters) c->ResetDomain(d);
    return d;
  }
  return -1;
}

void Registry::ReleaseDomain(int domain) {
  if (domain < 0 || domain >= kMaxMetricDomains) return;
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.domains_used &= ~(uint64_t{1} << domain);
}

MetricsSnapshot Registry::DomainSnapshot(int domain) const {
  Impl& i = impl();
  MetricsSnapshot snap;
  if (domain < 0 || domain >= kMaxMetricDomains) return snap;
  std::lock_guard<std::mutex> lock(i.mu);
  for (const auto& [name, c] : i.counters) {
    snap.counters[name] = c->DomainValue(domain);
  }
  return snap;
}

bool WriteStats(const std::string& path) {
  MetricsSnapshot snap = Registry::Global().Snapshot();
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string body = csv ? snap.ToCsv() : snap.ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

// SGXBENCH_STATS=<path>: dump the registry when the process exits. The
// hook self-registers from a static initializer in this TU, which every
// binary linking sgxb_obs pulls in via the instrumented layers.
struct StatsAtExit {
  StatsAtExit() {
    if (EnvString("SGXBENCH_STATS").has_value()) {
      std::atexit([] {
        auto path = EnvString("SGXBENCH_STATS");
        if (path.has_value() && !WriteStats(*path)) {
          std::fprintf(stderr,
                       "[sgxbench] warning: failed to write stats to %s\n",
                       path->c_str());
        }
      });
    }
  }
};
StatsAtExit g_stats_at_exit;

}  // namespace

}  // namespace sgxb::obs
