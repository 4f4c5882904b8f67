// Cross-algorithm join correctness: every join algorithm, in every kernel
// flavour, execution setting, and thread count, must produce exactly the
// match count of the reference oracle, with and without materialization.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/random.h"
#include "join/crk_join.h"
#include "join/data_gen.h"
#include "join/join_common.h"
#include "join/materializer.h"
#include "join/pht_join.h"
#include "join/rho_join.h"
#include "sgx/enclave.h"

namespace sgxb::join {
namespace {

constexpr size_t kBuildN = 20000;
constexpr size_t kProbeN = 80000;

struct Inputs {
  Relation build;
  Relation probe;
  uint64_t expected;
};

const Inputs& SharedInputs() {
  static Inputs* inputs = [] {
    auto* in = new Inputs;
    in->build = GenerateBuildRelation(kBuildN, MemoryRegion::kUntrusted)
                    .value();
    in->probe = GenerateProbeRelation(kProbeN, kBuildN,
                                      MemoryRegion::kUntrusted)
                    .value();
    in->expected = ReferenceMatchCount(in->build, in->probe);
    return in;
  }();
  return *inputs;
}

using JoinParam = std::tuple<JoinAlgorithm, KernelFlavor, int>;

class JoinCorrectnessTest : public ::testing::TestWithParam<JoinParam> {};

TEST_P(JoinCorrectnessTest, MatchesReferenceCount) {
  auto [algo, flavor, threads] = GetParam();
  const Inputs& in = SharedInputs();

  JoinConfig config;
  config.num_threads = threads;
  config.flavor = flavor;
  config.radix_bits = 8;
  config.crack_bits = 6;

  auto result = RunJoin(algo, in.build, in.probe, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches, in.expected);
  EXPECT_GT(result.value().host_ns, 0.0);
  EXPECT_FALSE(result.value().phases.phases.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllJoins, JoinCorrectnessTest,
    ::testing::Combine(
        ::testing::Values(JoinAlgorithm::kPht, JoinAlgorithm::kRho,
                          JoinAlgorithm::kMway, JoinAlgorithm::kInl,
                          JoinAlgorithm::kCrk, JoinAlgorithm::kCht),
        ::testing::Values(KernelFlavor::kReference,
                          KernelFlavor::kUnrolledReordered),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<JoinParam>& info) {
      std::string name = JoinAlgorithmToString(std::get<0>(info.param));
      name += std::get<1>(info.param) == KernelFlavor::kReference
                  ? "_Ref"
                  : "_Opt";
      name += "_T" + std::to_string(std::get<2>(info.param));
      return name;
    });

class JoinSettingTest
    : public ::testing::TestWithParam<
          std::tuple<JoinAlgorithm, ExecutionSetting>> {};

TEST_P(JoinSettingTest, CorrectUnderAllExecutionSettings) {
  auto [algo, setting] = GetParam();
  const Inputs& in = SharedInputs();

  sgx::EnclaveConfig ecfg;
  ecfg.initial_heap_bytes = 64_MiB;
  sgx::Enclave* enclave = sgx::Enclave::Create(ecfg).value();

  JoinConfig config;
  config.num_threads = 2;
  config.setting = setting;
  config.enclave = enclave;
  config.radix_bits = 8;
  config.crack_bits = 6;

  auto result = RunJoin(algo, in.build, in.probe, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches, in.expected);
  sgx::DestroyEnclave(enclave);
}

INSTANTIATE_TEST_SUITE_P(
    Settings, JoinSettingTest,
    ::testing::Combine(
        ::testing::Values(JoinAlgorithm::kPht, JoinAlgorithm::kRho,
                          JoinAlgorithm::kMway, JoinAlgorithm::kInl,
                          JoinAlgorithm::kCrk, JoinAlgorithm::kCht),
        ::testing::Values(ExecutionSetting::kPlainCpu,
                          ExecutionSetting::kSgxDataInEnclave,
                          ExecutionSetting::kSgxDataOutsideEnclave)),
    [](const ::testing::TestParamInfo<
        std::tuple<JoinAlgorithm, ExecutionSetting>>& info) {
      JoinAlgorithm algo = std::get<0>(info.param);
      ExecutionSetting setting = std::get<1>(info.param);
      std::string name = JoinAlgorithmToString(algo);
      switch (setting) {
        case ExecutionSetting::kPlainCpu:
          name += "_Plain";
          break;
        case ExecutionSetting::kSgxDataInEnclave:
          name += "_SgxIn";
          break;
        case ExecutionSetting::kSgxDataOutsideEnclave:
          name += "_SgxOut";
          break;
      }
      return name;
    });

class JoinMaterializationTest
    : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(JoinMaterializationTest, MaterializesExactlyTheMatches) {
  const Inputs& in = SharedInputs();
  Materializer sink(/*num_threads=*/2);
  JoinConfig config;
  config.num_threads = 2;
  config.materialize = true;
  config.output = &sink;
  config.radix_bits = 8;
  config.crack_bits = 6;

  auto result = RunJoin(GetParam(), in.build, in.probe, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches, in.expected);
  EXPECT_EQ(sink.TotalTuples(), in.expected);

  // Every materialized tuple must be a genuine join result: payloads
  // recover the original rows and keys must agree.
  uint64_t bad = 0;
  sink.ForEachChunk([&](const JoinOutputTuple* chunk, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const JoinOutputTuple& t = chunk[i];
      // The build relation's payload is the original slot index before
      // shuffling; its key is recoverable through the probe relation.
      if (t.probe_payload >= in.probe.num_tuples() ||
          in.probe[t.probe_payload].key != t.key) {
        ++bad;
      }
    }
  });
  EXPECT_EQ(bad, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllJoins, JoinMaterializationTest,
    ::testing::Values(JoinAlgorithm::kPht, JoinAlgorithm::kRho,
                      JoinAlgorithm::kMway, JoinAlgorithm::kInl,
                      JoinAlgorithm::kCrk, JoinAlgorithm::kCht),
    [](const auto& info) {
      return std::string(JoinAlgorithmToString(info.param));
    });

TEST(JoinValidationTest, RejectsBadConfigs) {
  const Inputs& in = SharedInputs();
  JoinConfig config;
  config.num_threads = 0;
  EXPECT_FALSE(RhoJoin(in.build, in.probe, config).ok());
  config.num_threads = 1;
  config.radix_bits = 30;
  EXPECT_FALSE(RhoJoin(in.build, in.probe, config).ok());
  config.radix_bits = 8;
  config.radix_passes = 3;
  EXPECT_FALSE(RhoJoin(in.build, in.probe, config).ok());
  config.radix_passes = 1;
  EXPECT_TRUE(RhoJoin(in.build, in.probe, config).ok());
}

TEST(JoinValidationTest, RejectsEmptyInputs) {
  const Inputs& in = SharedInputs();
  Relation empty;
  JoinConfig config;
  EXPECT_FALSE(RhoJoin(empty, in.probe, config).ok());
  EXPECT_FALSE(PhtJoin(in.build, empty, config).ok());
}

TEST(RhoJoinTest, SinglePassMatchesTwoPass) {
  const Inputs& in = SharedInputs();
  JoinConfig one;
  one.radix_bits = 8;
  one.radix_passes = 1;
  JoinConfig two;
  two.radix_bits = 8;
  two.radix_passes = 2;
  EXPECT_EQ(RhoJoin(in.build, in.probe, one).value().matches,
            RhoJoin(in.build, in.probe, two).value().matches);
}

TEST(RhoJoinTest, QueueKindsAllCorrect) {
  const Inputs& in = SharedInputs();
  for (TaskQueueKind kind :
       {TaskQueueKind::kLockFree, TaskQueueKind::kMutex,
        TaskQueueKind::kSpinLock}) {
    JoinConfig config;
    config.num_threads = 4;
    config.queue = kind;
    config.radix_bits = 8;
    auto result = RhoJoin(in.build, in.probe, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().matches, in.expected)
        << TaskQueueKindToString(kind);
  }
}

TEST(RhoJoinTest, PhaseBreakdownCoversPipeline) {
  const Inputs& in = SharedInputs();
  JoinConfig config;
  config.radix_bits = 8;
  auto result = RhoJoin(in.build, in.probe, config).value();
  EXPECT_NE(result.phases.Find("hist1"), nullptr);
  EXPECT_NE(result.phases.Find("copy1"), nullptr);
  EXPECT_NE(result.phases.Find("hist2+copy2"), nullptr);
  EXPECT_NE(result.phases.Find("build"), nullptr);
  EXPECT_NE(result.phases.Find("probe"), nullptr);
}

TEST(CrkJoinTest, CrackPartitionStepSplitsByBit) {
  std::vector<Tuple> data(1000);
  Xoshiro256 rng(31);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = Tuple{static_cast<uint32_t>(rng.Next()),
                    static_cast<uint32_t>(i)};
  }
  size_t mid = CrackPartitionStep(data.data(), 0, data.size(), 3);
  for (size_t i = 0; i < mid; ++i) {
    EXPECT_EQ(data[i].key & 8u, 0u) << i;
  }
  for (size_t i = mid; i < data.size(); ++i) {
    EXPECT_NE(data[i].key & 8u, 0u) << i;
  }
}

TEST(CrkJoinTest, CrackStepHandlesUniformBit) {
  std::vector<Tuple> zeros(100, Tuple{0, 0});
  EXPECT_EQ(CrackPartitionStep(zeros.data(), 0, zeros.size(), 0),
            zeros.size());
  std::vector<Tuple> ones(100, Tuple{1, 0});
  EXPECT_EQ(CrackPartitionStep(ones.data(), 0, ones.size(), 0), 0u);
}

TEST(DataGenTest, BuildRelationIsAPermutation) {
  auto rel =
      GenerateBuildRelation(10000, MemoryRegion::kUntrusted).value();
  std::vector<bool> seen(10000, false);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    ASSERT_LT(rel[i].key, 10000u);
    ASSERT_FALSE(seen[rel[i].key]);
    seen[rel[i].key] = true;
  }
}

TEST(DataGenTest, ProbeKeysInDomain) {
  auto rel = GenerateProbeRelation(5000, 1000, MemoryRegion::kUntrusted)
                 .value();
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    EXPECT_LT(rel[i].key, 1000u);
  }
}

TEST(DataGenTest, ForeignKeyJoinMatchesProbeCount) {
  // FK semantics: every probe tuple matches exactly one build tuple.
  auto build =
      GenerateBuildRelation(2000, MemoryRegion::kUntrusted).value();
  auto probe = GenerateProbeRelation(9000, 2000, MemoryRegion::kUntrusted)
                   .value();
  EXPECT_EQ(ReferenceMatchCount(build, probe), 9000u);
}

TEST(DataGenTest, Deterministic) {
  auto a = GenerateBuildRelation(100, MemoryRegion::kUntrusted, 7).value();
  auto b = GenerateBuildRelation(100, MemoryRegion::kUntrusted, 7).value();
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i].key, b[i].key);
}

}  // namespace
}  // namespace sgxb::join
