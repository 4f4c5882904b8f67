#include "common/env.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace sgxb {

namespace internal {

namespace {
std::mutex g_warned_mu;
std::set<std::string>& WarnedNames() {
  static auto* warned = new std::set<std::string>();
  return *warned;
}
std::atomic<uint64_t> g_warnings{0};
}  // namespace

void WarnOnce(const char* name, const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(g_warned_mu);
    if (!WarnedNames().insert(name).second) return;
    // Count under the same lock as the insert: a reader that observes the
    // count also observes the matching set membership, and two threads
    // racing on different knobs cannot make EnvWarningCount() lag the set
    // (the staleness TSan flags when the count is bumped outside).
    g_warnings.fetch_add(1, std::memory_order_relaxed);
  }
  std::fprintf(stderr, "[sgxbench] warning: %s: %s (using default)\n", name,
               message.c_str());
}

uint64_t EnvWarningCount() {
  return g_warnings.load(std::memory_order_relaxed);
}

}  // namespace internal

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::optional<std::string> EnvString(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

int64_t EnvInt(const char* name, int64_t fallback, int64_t lo, int64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    internal::WarnOnce(name, "expected an integer, got \"" + std::string(v) +
                                 "\"");
    return fallback;
  }
  if (parsed < lo || parsed > hi) {
    internal::WarnOnce(name, "value " + std::string(v) + " outside [" +
                                 std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]");
    return fallback;
  }
  return parsed;
}

bool EnvBool(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s = Lower(v);
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "off" || s == "no" || s.empty()) {
    return false;
  }
  internal::WarnOnce(name, "expected a boolean (0/1/true/false/on/off), "
                           "got \"" + std::string(v) + "\"");
  return fallback;
}

}  // namespace sgxb
