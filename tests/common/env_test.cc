// Typed env-knob parsing: fallbacks, range validation, boolean token
// sets, and the once-per-variable warning contract.
//
// Each test uses its own variable names: WarnOnce deduplicates per name
// for the process lifetime, so reusing a name across tests would hide
// the second warning.

#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace sgxb {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvTest, StringUnsetIsNullopt) {
  ::unsetenv("SGXB_TEST_STR_UNSET");
  EXPECT_FALSE(EnvString("SGXB_TEST_STR_UNSET").has_value());
}

TEST(EnvTest, StringSetRoundTrips) {
  EnvGuard g("SGXB_TEST_STR_SET", "hello world");
  auto v = EnvString("SGXB_TEST_STR_SET");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello world");
}

TEST(EnvTest, IntUnsetUsesFallbackSilently) {
  ::unsetenv("SGXB_TEST_INT_UNSET");
  const uint64_t warnings = internal::EnvWarningCount();
  EXPECT_EQ(EnvInt("SGXB_TEST_INT_UNSET", 42), 42);
  EXPECT_EQ(internal::EnvWarningCount(), warnings);
}

TEST(EnvTest, IntParsesInRange) {
  EnvGuard g("SGXB_TEST_INT_OK", "-17");
  EXPECT_EQ(EnvInt("SGXB_TEST_INT_OK", 0, -100, 100), -17);
}

TEST(EnvTest, IntOutOfRangeFallsBackWithOneWarning) {
  EnvGuard g("SGXB_TEST_INT_RANGE", "500");
  const uint64_t warnings = internal::EnvWarningCount();
  EXPECT_EQ(EnvInt("SGXB_TEST_INT_RANGE", 7, 0, 100), 7);
  EXPECT_EQ(internal::EnvWarningCount(), warnings + 1);
  // Second read of the same bad variable: fallback again, no new warning.
  EXPECT_EQ(EnvInt("SGXB_TEST_INT_RANGE", 7, 0, 100), 7);
  EXPECT_EQ(internal::EnvWarningCount(), warnings + 1);
}

TEST(EnvTest, IntMalformedFallsBackWithWarning) {
  EnvGuard g("SGXB_TEST_INT_BAD", "12monkeys");
  const uint64_t warnings = internal::EnvWarningCount();
  EXPECT_EQ(EnvInt("SGXB_TEST_INT_BAD", 3), 3);
  EXPECT_EQ(internal::EnvWarningCount(), warnings + 1);
}

TEST(EnvTest, BoolAcceptsTheDocumentedTokens) {
  const char* kTrue[] = {"1", "true", "on", "yes", "TRUE", "On", "YES"};
  const char* kFalse[] = {"0", "false", "off", "no", "FALSE", "Off", "NO"};
  for (const char* v : kTrue) {
    EnvGuard g("SGXB_TEST_BOOL_T", v);
    EXPECT_TRUE(EnvBool("SGXB_TEST_BOOL_T", false)) << v;
  }
  for (const char* v : kFalse) {
    EnvGuard g("SGXB_TEST_BOOL_F", v);
    EXPECT_FALSE(EnvBool("SGXB_TEST_BOOL_F", true)) << v;
  }
}

TEST(EnvTest, BoolUnsetAndMalformed) {
  ::unsetenv("SGXB_TEST_BOOL_UNSET");
  EXPECT_TRUE(EnvBool("SGXB_TEST_BOOL_UNSET", true));
  EXPECT_FALSE(EnvBool("SGXB_TEST_BOOL_UNSET", false));
  EnvGuard g("SGXB_TEST_BOOL_BAD", "maybe");
  const uint64_t warnings = internal::EnvWarningCount();
  EXPECT_TRUE(EnvBool("SGXB_TEST_BOOL_BAD", true));
  EXPECT_EQ(internal::EnvWarningCount(), warnings + 1);
}

}  // namespace
}  // namespace sgxb
