// Property-style join tests beyond the fixed-size correctness suite:
// size sweeps (including degenerate shapes), skewed keys with heavy
// duplication, non-matching domains, and cross-algorithm agreement.

#include <gtest/gtest.h>

#include <tuple>

#include "common/random.h"
#include "join/data_gen.h"
#include "join/join_common.h"

namespace sgxb::join {
namespace {

constexpr JoinAlgorithm kAll[] = {JoinAlgorithm::kPht, JoinAlgorithm::kRho,
                                  JoinAlgorithm::kMway,
                                  JoinAlgorithm::kInl, JoinAlgorithm::kCrk,
                                  JoinAlgorithm::kCht};

// --- Size sweep: degenerate and awkward shapes. --------------------------

class JoinSizeSweepTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(JoinSizeSweepTest, AllAlgorithmsMatchOracle) {
  auto [build_n, probe_n] = GetParam();
  auto build =
      GenerateBuildRelation(build_n, MemoryRegion::kUntrusted, build_n)
          .value();
  auto probe = GenerateProbeRelation(probe_n, build_n,
                                     MemoryRegion::kUntrusted, probe_n)
                   .value();
  uint64_t expected = ReferenceMatchCount(build, probe);
  EXPECT_EQ(expected, probe_n);  // FK join property

  for (JoinAlgorithm algo : kAll) {
    JoinConfig cfg;
    cfg.num_threads = 3;
    cfg.radix_bits = 6;
    cfg.crack_bits = 5;
    auto r = RunJoin(algo, build, probe, cfg);
    ASSERT_TRUE(r.ok()) << JoinAlgorithmToString(algo) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r.value().matches, expected)
        << JoinAlgorithmToString(algo) << " at " << build_n << "x"
        << probe_n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinSizeSweepTest,
    ::testing::Values(std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(1, 1000),
                      std::make_pair<size_t, size_t>(7, 13),
                      std::make_pair<size_t, size_t>(100, 10),
                      std::make_pair<size_t, size_t>(1000, 1),
                      std::make_pair<size_t, size_t>(4096, 4096),
                      std::make_pair<size_t, size_t>(10000, 50001)));

// --- Skewed (duplicate-heavy) probes. -------------------------------------

class JoinSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(JoinSkewTest, AllAlgorithmsAgreeUnderSkew) {
  const double theta = GetParam();
  auto build =
      GenerateBuildRelation(5000, MemoryRegion::kUntrusted).value();
  auto probe = GenerateSkewedProbeRelation(30000, 5000, theta,
                                           MemoryRegion::kUntrusted)
                   .value();
  uint64_t expected = ReferenceMatchCount(build, probe);
  EXPECT_EQ(expected, 30000u);  // still a FK join: one match per probe

  for (JoinAlgorithm algo : kAll) {
    JoinConfig cfg;
    cfg.num_threads = 2;
    cfg.radix_bits = 6;
    cfg.crack_bits = 5;
    auto r = RunJoin(algo, build, probe, cfg);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().matches, expected)
        << JoinAlgorithmToString(algo) << " theta " << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, JoinSkewTest,
                         ::testing::Values(0.25, 0.75, 0.95));

// --- Many-to-many joins (duplicate build keys). ----------------------------

TEST(JoinDuplicateBuildTest, ManyToManyCountsAreCorrect) {
  // Build side with duplicated keys: each key 0..99 appears 5 times.
  auto build = Relation::Allocate(500, MemoryRegion::kUntrusted).value();
  for (size_t i = 0; i < 500; ++i) {
    build[i] = Tuple{static_cast<uint32_t>(i % 100),
                     static_cast<uint32_t>(i)};
  }
  auto probe = GenerateProbeRelation(2000, 100, MemoryRegion::kUntrusted)
                   .value();
  uint64_t expected = ReferenceMatchCount(build, probe);
  EXPECT_EQ(expected, 2000u * 5);

  for (JoinAlgorithm algo : kAll) {
    JoinConfig cfg;
    cfg.radix_bits = 4;
    cfg.crack_bits = 4;
    auto r = RunJoin(algo, build, probe, cfg);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().matches, expected)
        << JoinAlgorithmToString(algo);
  }
}

// --- Disjoint domains: zero matches. ----------------------------------------

TEST(JoinDisjointDomainsTest, ZeroMatches) {
  auto build = Relation::Allocate(1000, MemoryRegion::kUntrusted).value();
  for (size_t i = 0; i < 1000; ++i) {
    build[i] = Tuple{static_cast<uint32_t>(i), 0};
  }
  auto probe = Relation::Allocate(4000, MemoryRegion::kUntrusted).value();
  for (size_t i = 0; i < 4000; ++i) {
    probe[i] = Tuple{static_cast<uint32_t>(100000 + i), 0};
  }
  for (JoinAlgorithm algo : kAll) {
    JoinConfig cfg;
    cfg.radix_bits = 5;
    cfg.crack_bits = 4;
    auto r = RunJoin(algo, build, probe, cfg);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().matches, 0u) << JoinAlgorithmToString(algo);
  }
}

// --- Keys spanning the full 32-bit range. ------------------------------------

TEST(JoinKeyRangeTest, HighBitKeysHandled) {
  Xoshiro256 rng(8);
  auto build = Relation::Allocate(2000, MemoryRegion::kUntrusted).value();
  for (size_t i = 0; i < 2000; ++i) {
    // Spread keys across the whole uint32 range, including > 2^31.
    build[i] = Tuple{static_cast<uint32_t>(rng.Next()),
                     static_cast<uint32_t>(i)};
  }
  auto probe = Relation::Allocate(8000, MemoryRegion::kUntrusted).value();
  for (size_t i = 0; i < 8000; ++i) {
    probe[i] = Tuple{build[rng.NextBounded(2000)].key,
                     static_cast<uint32_t>(i)};
  }
  uint64_t expected = ReferenceMatchCount(build, probe);
  EXPECT_GE(expected, 8000u);  // at least one match per probe

  for (JoinAlgorithm algo : kAll) {
    JoinConfig cfg;
    cfg.radix_bits = 8;
    cfg.crack_bits = 6;
    cfg.num_threads = 2;
    auto r = RunJoin(algo, build, probe, cfg);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().matches, expected)
        << JoinAlgorithmToString(algo);
  }
}

// --- Phase accounting sanity across algorithms. ------------------------------

TEST(JoinPhaseAccountingTest, PhasesArePositiveAndNamed) {
  auto build =
      GenerateBuildRelation(20000, MemoryRegion::kUntrusted).value();
  auto probe = GenerateProbeRelation(80000, 20000,
                                     MemoryRegion::kUntrusted)
                   .value();
  for (JoinAlgorithm algo : kAll) {
    JoinConfig cfg;
    cfg.radix_bits = 8;
    auto r = RunJoin(algo, build, probe, cfg).value();
    ASSERT_FALSE(r.phases.phases.empty())
        << JoinAlgorithmToString(algo);
    for (const auto& phase : r.phases.phases) {
      EXPECT_FALSE(phase.name.empty());
      EXPECT_GE(phase.host_ns, 0.0);
      EXPECT_GE(phase.threads, 1);
    }
    EXPECT_NEAR(r.host_ns, r.phases.TotalHostNs(), 1.0);
  }
}

}  // namespace
}  // namespace sgxb::join
