// Latency-hiding probe pipelines (exec/probe_pipeline.h):
//
//  1. Driver unit tests — group prefetching and AMAC must visit every
//     probe exactly once and run chains of differing depth to completion,
//     for widths around the group/ring boundaries.
//  2. Determinism — each join's results (match count + order-independent
//     checksum over the materialized output) must be identical across
//     executor dispatch modes (pool vs spawn), thread counts, probe modes
//     (tuple vs gp vs amac), and key distributions (uniform vs skewed).

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "exec/executor.h"
#include "exec/probe_pipeline.h"
#include "join/cht_join.h"
#include "join/data_gen.h"
#include "join/inl_join.h"
#include "join/join_common.h"
#include "join/materializer.h"
#include "join/pht_join.h"
#include "join/radix_common.h"
#include "join/rho_join.h"

namespace sgxb::join {
namespace {

// --- Driver unit tests ----------------------------------------------------

// Synthetic cursor: probe i walks a chain of (key % 5) hops through a
// shared depth table, then records its visit. Exercises chains of depth
// 0 (complete during Reset) through 4.
struct SyntheticCursor {
  static constexpr int kPrefetchLines = 1;
  std::vector<uint32_t>* visits = nullptr;
  const uint32_t* depth_table = nullptr;

  uint32_t key_ = 0;
  uint32_t remaining_ = 0;

  void Reset(const Tuple& t) {
    key_ = t.key;
    remaining_ = t.key % 5;
    if (remaining_ == 0) {
      (*visits)[t.key] += 1;  // zero-hop probes complete in Reset
    }
  }
  const void* Target() const {
    return remaining_ == 0 ? nullptr : &depth_table[key_ % 7];
  }
  void Advance() {
    if (--remaining_ == 0) {
      (*visits)[key_] += 1;
    }
  }
};

class ProbeDriverTest
    : public ::testing::TestWithParam<std::tuple<exec::ProbeMode, int>> {};

TEST_P(ProbeDriverTest, EveryProbeVisitedExactlyOnce) {
  auto [mode, width] = GetParam();
  const size_t n = 1000;
  std::vector<Tuple> tuples(n);
  for (size_t i = 0; i < n; ++i) {
    tuples[i] = Tuple{static_cast<uint32_t>(i), 0};
  }
  std::vector<uint32_t> visits(n, 0);
  std::vector<uint32_t> depth_table(7, 0);

  std::vector<SyntheticCursor> cursors(exec::kMaxProbeWidth);
  for (auto& c : cursors) {
    c.visits = &visits;
    c.depth_table = depth_table.data();
  }
  exec::BatchedProbe(mode, tuples.data(), n, width, cursors.data());

  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i], 1u) << "probe " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWidths, ProbeDriverTest,
    ::testing::Combine(::testing::Values(exec::ProbeMode::kGroupPrefetch,
                                         exec::ProbeMode::kAmac),
                       // 1 degenerates to tuple-at-a-time; 7 and 16 are
                       // not divisors of n and n is not a multiple of
                       // them, exercising the final partial group/ring
                       // drain; 64 is the clamp boundary.
                       ::testing::Values(1, 7, 16, 64)),
    [](const auto& info) {
      return std::string(exec::ProbeModeToString(std::get<0>(info.param))) +
             "_W" + std::to_string(std::get<1>(info.param));
    });

TEST(ProbeDriverTest, EmptyInputIsANoOp) {
  std::vector<uint32_t> visits;
  std::vector<uint32_t> depth_table(7, 0);
  std::vector<SyntheticCursor> cursors(4);
  for (auto& c : cursors) {
    c.visits = &visits;
    c.depth_table = depth_table.data();
  }
  exec::BatchedProbe(exec::ProbeMode::kGroupPrefetch, nullptr, 0, 4,
                     cursors.data());
  exec::BatchedProbe(exec::ProbeMode::kAmac, nullptr, 0, 4,
                     cursors.data());
}

TEST(ProbeModeTest, StringRoundTripAndFallback) {
  using exec::ProbeMode;
  EXPECT_STREQ(exec::ProbeModeToString(ProbeMode::kTupleAtATime), "tuple");
  EXPECT_STREQ(exec::ProbeModeToString(ProbeMode::kGroupPrefetch), "gp");
  EXPECT_STREQ(exec::ProbeModeToString(ProbeMode::kAmac), "amac");
  EXPECT_STREQ(exec::ProbeModeToString(static_cast<ProbeMode>(7)),
               "unknown");
}

TEST(ProbeModeTest, WidthClampsToValidRange) {
  EXPECT_EQ(exec::ClampProbeWidth(-3), 1);
  EXPECT_EQ(exec::ClampProbeWidth(0), 1);
  EXPECT_EQ(exec::ClampProbeWidth(16), 16);
  EXPECT_EQ(exec::ClampProbeWidth(10000), exec::kMaxProbeWidth);
}

TEST(ProbeModeTest, ConfigOverridesFlavorDefault) {
  // An explicit config value beats the flavour default.
  JoinConfig config;
  config.probe_mode = exec::ProbeMode::kAmac;
  config.flavor = KernelFlavor::kReference;
  EXPECT_EQ(EffectiveProbeMode(config), exec::ProbeMode::kAmac);
  config.probe_batch = 24;
  EXPECT_EQ(EffectiveProbeWidth(config, exec::ProbeMode::kAmac), 24);
  config.probe_batch = 100000;
  EXPECT_EQ(EffectiveProbeWidth(config, exec::ProbeMode::kAmac),
            exec::kMaxProbeWidth);
}

TEST(ProbeModeTest, FlavorDerivesDefaultWhenEnvUnset) {
  JoinConfig config;
  config.flavor = KernelFlavor::kReference;
  EXPECT_EQ(EffectiveProbeMode(config), exec::ProbeMode::kTupleAtATime);
  config.flavor = KernelFlavor::kUnrolledReordered;
  EXPECT_EQ(EffectiveProbeMode(config), exec::ProbeMode::kGroupPrefetch);
}

// --- Join determinism across executors / threads / modes ------------------

struct JoinOutput {
  uint64_t matches = 0;
  uint64_t count = 0;      // materialized tuples
  uint64_t checksum = 0;   // order-independent
};

// Order-independent checksum: sum of a per-tuple mix. Distinguishes
// multisets of output tuples without depending on chunk or thread order.
uint64_t MixTuple(const JoinOutputTuple& t) {
  uint64_t x = (static_cast<uint64_t>(t.key) << 32) ^
               (static_cast<uint64_t>(t.build_payload) << 16) ^
               t.probe_payload;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

using JoinFn = Result<JoinResult> (*)(const Relation&, const Relation&,
                                      const JoinConfig&);

JoinOutput RunMaterialized(JoinFn join, const Relation& build,
                           const Relation& probe, JoinConfig config) {
  Materializer sink(config.num_threads, EffectiveResource(config));
  config.materialize = true;
  config.output = &sink;
  auto result = join(build, probe, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  JoinOutput out;
  if (!result.ok()) return out;
  out.matches = result.value().matches;
  sink.ForEachChunk([&](const JoinOutputTuple* chunk, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ++out.count;
      out.checksum += MixTuple(chunk[i]);
    }
  });
  return out;
}

struct DistInputs {
  Relation build;
  Relation probe;
};

const DistInputs& InputsFor(bool skewed) {
  static DistInputs* uniform = nullptr;
  static DistInputs* zipf = nullptr;
  DistInputs*& slot = skewed ? zipf : uniform;
  if (slot == nullptr) {
    slot = new DistInputs;
    slot->build =
        GenerateBuildRelation(8192, MemoryRegion::kUntrusted).value();
    slot->probe =
        skewed ? GenerateSkewedProbeRelation(40000, 8192, 0.99,
                                             MemoryRegion::kUntrusted)
                     .value()
               : GenerateProbeRelation(40000, 8192,
                                       MemoryRegion::kUntrusted)
                     .value();
  }
  return *slot;
}

struct NamedJoin {
  const char* name;
  JoinFn fn;
};

class ProbeDeterminismTest : public ::testing::TestWithParam<bool> {};

TEST_P(ProbeDeterminismTest, IdenticalAcrossExecutorsThreadsAndModes) {
  const bool skewed = GetParam();
  const DistInputs& in = InputsFor(skewed);
  const NamedJoin joins[] = {
      {"PHT", &PhtJoin}, {"CHT", &ChtJoin}, {"INL", &InlJoin},
      {"RHO", &RhoJoin},
  };
  const exec::ProbeMode modes[] = {exec::ProbeMode::kTupleAtATime,
                                   exec::ProbeMode::kGroupPrefetch,
                                   exec::ProbeMode::kAmac};

  const exec::DispatchMode saved = exec::dispatch_mode();
  for (const NamedJoin& join : joins) {
    // Reference: tuple-at-a-time, single thread, pool dispatch.
    exec::SetDispatchMode(exec::DispatchMode::kPool);
    JoinConfig base;
    base.num_threads = 1;
    base.radix_bits = 8;
    base.probe_mode = exec::ProbeMode::kTupleAtATime;
    JoinOutput expect =
        RunMaterialized(join.fn, in.build, in.probe, base);
    ASSERT_GT(expect.matches, 0u) << join.name;
    ASSERT_EQ(expect.matches, expect.count) << join.name;

    for (exec::DispatchMode dispatch :
         {exec::DispatchMode::kPool, exec::DispatchMode::kSpawn}) {
      exec::SetDispatchMode(dispatch);
      for (int threads : {1, 2, 4}) {
        for (exec::ProbeMode mode : modes) {
          JoinConfig config = base;
          config.num_threads = threads;
          config.probe_mode = mode;
          // Cover a non-default width too (8 ≠ either calibrated knob).
          config.probe_batch = threads == 2 ? 8 : 0;
          JoinOutput got =
              RunMaterialized(join.fn, in.build, in.probe, config);
          const std::string where =
              std::string(join.name) + " dispatch=" +
              (dispatch == exec::DispatchMode::kPool ? "pool" : "spawn") +
              " threads=" + std::to_string(threads) + " mode=" +
              exec::ProbeModeToString(mode);
          EXPECT_EQ(got.matches, expect.matches) << where;
          EXPECT_EQ(got.count, expect.count) << where;
          EXPECT_EQ(got.checksum, expect.checksum) << where;
        }
      }
    }
  }
  exec::SetDispatchMode(saved);
}

INSTANTIATE_TEST_SUITE_P(Distributions, ProbeDeterminismTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? std::string("Skewed")
                                             : std::string("Uniform");
                         });

// The in-cache partition join must agree across probe modes as well (it
// is reached through RHO above only with the config's mode; this pins the
// primitive directly, including emitter callbacks).
TEST(InCacheBatchedProbeTest, ModesAgreeWithScalarLoop) {
  const DistInputs& in = InputsFor(/*skewed=*/false);
  const Tuple* b = in.build.tuples();
  const Tuple* p = in.probe.tuples();
  const size_t bn = in.build.num_tuples();
  const size_t pn = in.probe.num_tuples();

  InCacheJoinScratch scratch;
  const uint64_t expect = InCachePartitionJoin(
      b, bn, p, pn, KernelFlavor::kReference, &scratch);

  struct EmitSum {
    uint64_t sum = 0;
    static void Emit(void* ctx, const Tuple& bt, const Tuple& pt) {
      static_cast<EmitSum*>(ctx)->sum +=
          MixTuple(JoinOutputTuple{bt.key, bt.payload, pt.payload});
    }
  };
  EmitSum ref_sum;
  InCachePartitionJoin(b, bn, p, pn, KernelFlavor::kReference, &scratch,
                       &EmitSum::Emit, &ref_sum);

  for (exec::ProbeMode mode : {exec::ProbeMode::kGroupPrefetch,
                               exec::ProbeMode::kAmac}) {
    for (int width : {1, 8, 64}) {
      EmitSum sum;
      const uint64_t got = InCachePartitionJoin(
          b, bn, p, pn, KernelFlavor::kUnrolledReordered, &scratch,
          &EmitSum::Emit, &sum, mode, width);
      EXPECT_EQ(got, expect)
          << exec::ProbeModeToString(mode) << " width " << width;
      EXPECT_EQ(sum.sum, ref_sum.sum)
          << exec::ProbeModeToString(mode) << " width " << width;
    }
  }
}

}  // namespace
}  // namespace sgxb::join
