// Small helpers shared by the benchmark binary: percentiles, the metric
// list that becomes the result line, and the in-memory span recorder.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// \brief Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when
/// empty. Interpolation keeps medians of even-sized samples and tails of
/// a few hundred samples from snapping to one order statistic.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// \brief Steady-clock nanoseconds since an arbitrary process epoch.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief Ordered (name, value, unit) list rendered into the result line.
class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }

  /// \brief {"name": {"value": v, "unit": "u"}, ...} with full precision.
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// \brief One benchmark-side span: a served request (Submit -> response,
/// with the dispatch point at queue_ns) or one probe call.
struct Span {
  std::string name;
  uint64_t id = 0;
  int client = -1;
  uint64_t begin_ns = 0;
  uint64_t dispatch_ns = 0;  ///< 0 for probe spans
  uint64_t end_ns = 0;
};

/// \brief Spans kept in memory while tracing is on; written out as
/// chrome://tracing JSON at exit. Thread-safe.
class SpanLog {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  void Add(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// \brief Writes complete ("X") events; a request's queueing part is a
  /// nested "queued" event so the dispatch point is visible.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Global span log of the process.
SpanLog& Spans();

/// \brief Times `fn` as a probe span named `name`; returns elapsed ns.
template <typename Fn>
uint64_t TimedProbe(const std::string& name, Fn&& fn) {
  Span s;
  s.name = name;
  s.begin_ns = NowNs();
  fn();
  s.end_ns = NowNs();
  const uint64_t ns = s.end_ns - s.begin_ns;
  Spans().Add(std::move(s));
  return ns;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
