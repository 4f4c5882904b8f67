// Calibration machine hash (perf/calibration.h): the fingerprint printed
// next to model results must be stable within a process and hex-shaped.

#include "perf/calibration.h"

#include <gtest/gtest.h>

#include <string>

namespace sgxb::perf {
namespace {

TEST(CalibrationCacheTest, MachineHashIsStableAndHexShaped) {
  const std::string a = CalibrationMachineHash();
  const std::string b = CalibrationMachineHash();
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16u);
  for (char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

}  // namespace
}  // namespace sgxb::perf
