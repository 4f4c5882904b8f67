// Registry metrics: handle stability, sharded-counter merge under
// concurrency (the TSan target), histogram bucketing, and export formats.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace sgxb::obs {
namespace {

TEST(MetricsTest, RegistryHandlesAreStable) {
  Counter* a = Registry::Global().GetCounter("test.stable");
  Counter* b = Registry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
  Gauge* g1 = Registry::Global().GetGauge("test.stable_gauge");
  Gauge* g2 = Registry::Global().GetGauge("test.stable_gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = Registry::Global().GetHistogram("test.stable_hist");
  Histogram* h2 = Registry::Global().GetHistogram("test.stable_hist");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsTest, CounterAddAndReset) {
  Counter* c = Registry::Global().GetCounter("test.basic_counter");
  c->Reset();
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(MetricsTest, CounterMergesAcrossThreads) {
  Counter* c = Registry::Global().GetCounter("test.mt_counter");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge* g = Registry::Global().GetGauge("test.gauge");
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->Add(-10);
  EXPECT_EQ(g->Value(), -3);
}

TEST(MetricsTest, HistogramBucketsByLog2) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_buckets");
  h->Record(1);     // bucket 0: [1, 2)
  h->Record(2);     // bucket 1: [2, 4)
  h->Record(3);     // bucket 1
  h->Record(1024);  // bucket 10
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_EQ(h->Sum(), 1030u);
  EXPECT_EQ(h->Max(), 1024u);
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(1), 2u);
  EXPECT_EQ(h->BucketCount(10), 1u);
  // The median lands in bucket 1 ([2, 4)), whose upper bound is 3.
  EXPECT_EQ(h->QuantileUpperBound(0.5), 3u);
  // The top rank lands in the 1024 bucket ([1024, 2048)).
  EXPECT_EQ(h->QuantileUpperBound(1.0), 2047u);
}

TEST(MetricsTest, HistogramMergesAcrossThreads) {
  Histogram* h = Registry::Global().GetHistogram("test.hist_mt");
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h->Record(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(h->Max(), 7001u);
}

TEST(MetricsTest, SnapshotContainsRegisteredMetrics) {
  Counter* c = Registry::Global().GetCounter("test.snapshot_counter");
  c->Reset();
  c->Add(5);
  Registry::Global().GetHistogram("test.snapshot_hist")->Record(9);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.CounterOr("test.snapshot_counter"), 5u);
  EXPECT_EQ(snap.CounterOr("test.never_registered", 123), 123u);
  ASSERT_TRUE(snap.histograms.count("test.snapshot_hist"));
  EXPECT_GE(snap.histograms["test.snapshot_hist"].count, 1u);
}

TEST(MetricsTest, SnapshotExportsJsonAndCsv) {
  Counter* c = Registry::Global().GetCounter("test.export_counter");
  c->Reset();
  c->Add(17);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.export_counter\""), std::string::npos);
  EXPECT_NE(json.find("17"), std::string::npos);
  std::string csv = snap.ToCsv();
  EXPECT_NE(csv.find("test.export_counter"), std::string::npos);
}

TEST(MetricsTest, JsonStringEscapesQuotesBackslashesAndControlBytes) {
  std::string out;
  AppendJsonString(out, std::string("q\"\\\n\r\t\x01\x1f ~", 10));
  EXPECT_EQ(out, "\"q\\\"\\\\\\n\\r\\t\\u0001\\u001f ~\"");
}

TEST(MetricsTest, DomainsAttributeOnlyTaggedActivity) {
  Registry& reg = Registry::Global();
  Counter* c = reg.GetCounter("test.domain_counter");
  c->Reset();
  const int d = reg.AcquireDomain();
  ASSERT_GE(d, 0);
  c->Add(7);  // no domain active: global only
  {
    ScopedMetricDomain scope(d);
    EXPECT_EQ(CurrentMetricDomain(), d);
    c->Add(5);
  }
  EXPECT_EQ(CurrentMetricDomain(), -1);
  c->Add(11);  // after the scope: global only again
  EXPECT_EQ(c->Value(), 23u);
  EXPECT_EQ(c->DomainValue(d), 5u);
  MetricsSnapshot snap = reg.DomainSnapshot(d);
  EXPECT_EQ(snap.CounterOr("test.domain_counter"), 5u);
  reg.ReleaseDomain(d);
}

TEST(MetricsTest, AcquireDomainZeroesStaleSlots) {
  Registry& reg = Registry::Global();
  Counter* c = reg.GetCounter("test.domain_stale");
  const int d1 = reg.AcquireDomain();
  ASSERT_GE(d1, 0);
  {
    ScopedMetricDomain scope(d1);
    c->Add(9);
  }
  reg.ReleaseDomain(d1);
  // The freed slot must come back clean for the next tenant.
  const int d2 = reg.AcquireDomain();
  ASSERT_GE(d2, 0);
  EXPECT_EQ(c->DomainValue(d2), 0u);
  reg.ReleaseDomain(d2);
}

TEST(MetricsTest, DomainPoolExhaustsGracefully) {
  Registry& reg = Registry::Global();
  std::vector<int> held;
  for (int i = 0; i < kMaxMetricDomains; ++i) {
    held.push_back(reg.AcquireDomain());
  }
  // Some tests / layers may hold domains; all *we* acquired are valid
  // until the pool runs dry, after which acquire fails soft with -1.
  EXPECT_EQ(reg.AcquireDomain(), -1);
  for (int d : held) reg.ReleaseDomain(d);
  const int again = reg.AcquireDomain();
  EXPECT_GE(again, 0);
  reg.ReleaseDomain(again);
}

TEST(MetricsTest, ScopedDomainRestoresOuterDomain) {
  Registry& reg = Registry::Global();
  const int outer = reg.AcquireDomain();
  const int inner = reg.AcquireDomain();
  ASSERT_GE(outer, 0);
  ASSERT_GE(inner, 0);
  {
    ScopedMetricDomain outer_scope(outer);
    {
      ScopedMetricDomain inner_scope(inner);
      EXPECT_EQ(CurrentMetricDomain(), inner);
    }
    EXPECT_EQ(CurrentMetricDomain(), outer);
  }
  EXPECT_EQ(CurrentMetricDomain(), -1);
  reg.ReleaseDomain(outer);
  reg.ReleaseDomain(inner);
}

TEST(MetricsTest, WriteStatsRoundTrips) {
  Registry::Global().GetCounter("test.write_stats")->Add(3);
  const std::string path = ::testing::TempDir() + "obs_stats_test.json";
  ASSERT_TRUE(WriteStats(path));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("test.write_stats"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgxb::obs
