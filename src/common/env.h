// Typed environment-variable parsing for the SGXBENCH_* knob family.
//
// Every subsystem used to hand-roll its own std::getenv + strtoull parse,
// each with slightly different malformed-input behaviour (silently ignored,
// clamped, or accepted as garbage). These helpers centralize the contract:
// a knob either parses cleanly inside its valid range and is used, or the
// fallback applies and a warning is printed once per variable, straight to
// stderr.

#ifndef SGXB_COMMON_ENV_H_
#define SGXB_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string>

namespace sgxb {

/// \brief Raw lookup: the variable's value, or nullopt if unset. Never
/// warns — an unset knob is the normal case, not a user error.
std::optional<std::string> EnvString(const char* name);

/// \brief `name` parsed as a decimal integer in [lo, hi]. Unset -> the
/// fallback silently; set-but-malformed or out of range -> the fallback
/// with a one-time stderr warning naming the variable and its bounds.
int64_t EnvInt(const char* name, int64_t fallback,
               int64_t lo = INT64_MIN, int64_t hi = INT64_MAX);

/// \brief Boolean knob: "1"/"true"/"on"/"yes" -> true, "0"/"false"/"off"/
/// "no" -> false (case-insensitive). Unset -> fallback; anything else ->
/// fallback with a one-time warning.
bool EnvBool(const char* name, bool fallback);

namespace internal {
/// \brief Emits the malformed-knob warning at most once per variable name
/// for the process lifetime (exposed for tests).
void WarnOnce(const char* name, const std::string& message);
/// \brief Number of warnings emitted so far (test hook).
uint64_t EnvWarningCount();
}  // namespace internal

}  // namespace sgxb

#endif  // SGXB_COMMON_ENV_H_
