#include "stats.h"

namespace perfbench {

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.begin_ns);
  auto us = [&](uint64_t ns) { return static_cast<double>(ns - origin) / 1e3; };
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto event = [&](const std::string& name, const Span& s, uint64_t begin,
                   uint64_t end) {
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu}}",
                 first ? "" : ",\n", name.c_str(), s.client + 1, us(begin),
                 static_cast<double>(end - begin) / 1e3,
                 static_cast<unsigned long long>(s.id));
    first = false;
  };
  for (const Span& s : spans_) {
    event(s.name, s, s.begin_ns, s.end_ns);
    if (s.dispatch_ns > s.begin_ns) {
      event("queued", s, s.begin_ns, s.dispatch_ns);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
