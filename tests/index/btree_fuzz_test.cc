// Randomized differential test: the B+-tree against std::multimap over
// long random operation sequences, checking every query primitive and
// the structural invariants along the way.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "index/btree.h"

namespace sgxb::index {
namespace {

class BTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeFuzzTest, AgreesWithMultimap) {
  const uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  BTree tree;
  std::multimap<uint32_t, uint32_t> oracle;

  // Optionally start from a bulk-loaded base.
  if (seed % 2 == 0) {
    std::vector<std::pair<uint32_t, uint32_t>> base;
    uint32_t key = 0;
    for (int i = 0; i < 3000; ++i) {
      key += 1 + static_cast<uint32_t>(rng.NextBounded(5));
      base.emplace_back(key, static_cast<uint32_t>(i));
    }
    tree = BTree::BulkLoad(base).value();
    for (const auto& [k, v] : base) oracle.emplace(k, v);
  }

  const uint32_t key_space = 5000;
  for (int op = 0; op < 20000; ++op) {
    uint32_t key = static_cast<uint32_t>(rng.NextBounded(key_space));
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {  // insert
        uint32_t value = static_cast<uint32_t>(op);
        ASSERT_TRUE(tree.Insert(key, value).ok());
        oracle.emplace(key, value);
        break;
      }
      case 2: {  // point count
        size_t expected = oracle.count(key);
        size_t actual = tree.ForEachMatch(key, [](uint32_t) {});
        ASSERT_EQ(actual, expected) << "key " << key << " op " << op;
        break;
      }
      case 3: {  // range scan
        uint32_t lo = key;
        uint32_t hi =
            key + 1 + static_cast<uint32_t>(rng.NextBounded(200));
        size_t expected = std::distance(oracle.lower_bound(lo),
                                        oracle.lower_bound(hi));
        std::vector<uint32_t> seen;
        size_t actual = tree.ScanRange(lo, hi, [&](uint32_t k, uint32_t) {
          seen.push_back(k);
        });
        ASSERT_EQ(actual, expected)
            << "range [" << lo << "," << hi << ") op " << op;
        ASSERT_TRUE(std::is_sorted(seen.begin(), seen.end()));
        break;
      }
    }
  }

  EXPECT_EQ(tree.size(), oracle.size());
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();

  // Full sweep: every key's multiplicity must agree.
  uint32_t prev_key = 0;
  bool first = true;
  for (auto it = oracle.begin(); it != oracle.end();
       it = oracle.upper_bound(it->first)) {
    if (!first) {
      ASSERT_GT(it->first, prev_key);
    }
    prev_key = it->first;
    first = false;
    ASSERT_EQ(tree.ForEachMatch(it->first, [](uint32_t) {}),
              oracle.count(it->first));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace sgxb::index
