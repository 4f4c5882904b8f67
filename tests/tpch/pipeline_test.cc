// Result-equivalence matrix for the fused morsel-driven pipelines
// (plan/fused.cc): for every query, the fused and the materializing plan
// must produce the QueryResult (count + group_counts) of the query's
// scalar oracle across thread counts and execution settings. Also
// hosts the vectorized-stage tests over paged and versioned views, the
// traced-run span-name test, and the unit tests for the allocation-
// overflow guards that the fused work leaned on (RowIdList::Allocate,
// ScatterBufferScratch::Reserve).
//
// This suite is wired into the ASan/UBSan and TSan CI jobs (`ctest -L
// pipeline_test`), so the fused driver's worker-local scratch and the
// key-bitmap merges get raced under TSan on every change; the ASan/UBSan
// job runs it once more built for the runner's CPU, so the SIMD kernels
// run sanitized too.

#include "tpch/queries.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"
#include "join/radix_common.h"
#include "obs/trace.h"
#include "sgx/enclave.h"
#include "plan/catalog.h"
#include "plan/planner.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/tpch_gen.h"
#include "txn/versioned_db.h"

namespace sgxb::tpch {
namespace {

const TpchDb& Db() {
  static const TpchDb db = [] {
    GenConfig cfg;
    cfg.scale_factor = 0.01;
    return Generate(cfg).value();
  }();
  return db;
}

// A catalog query's result by its scalar oracle: the row count and the
// group counts (Q6: its revenue). Q6's oracle gives no row count.
struct Expected {
  std::optional<uint64_t> count;
  std::vector<uint64_t> group_counts;
};

Expected OracleOf(int query, const TpchDb& db) {
  switch (query) {
    case 1: {
      std::vector<uint64_t> counts = ReferenceQ1Counts(db);
      uint64_t total = 0;
      for (uint64_t c : counts) total += c;
      return {total, std::move(counts)};
    }
    case 3:
      return {ReferenceQ3(db), {}};
    case 6:
      return {std::nullopt, {ReferenceQ6(db)}};
    case 10:
      return {ReferenceQ10(db), {}};
    case 12:
      return {ReferenceQ12(db), {}};
    case 19:
      return {ReferenceQ19(db), {}};
    case plan::kQueryQ12Grouped: {
      const auto [high, low] = ReferenceQ12Grouped(db);
      return {high + low, {high, low}};
    }
  }
  ADD_FAILURE() << "no oracle for Q" << query;
  return {};
}

using MatrixParam = std::tuple<int, ExecutionSetting, int>;

class PipelineEquivalenceTest : public ::testing::TestWithParam<MatrixParam> {
};

// Both lowerings evaluate predicates with the same kernels, so each is
// checked against the query's scalar oracle, not only against the other.
TEST_P(PipelineEquivalenceTest, FusedMatchesMaterializing) {
  auto [query, setting, threads] = GetParam();

  sgx::Enclave* enclave = nullptr;
  if (setting != ExecutionSetting::kPlainCpu) {
    sgx::EnclaveConfig ecfg;
    ecfg.initial_heap_bytes = 128_MiB;
    enclave = sgx::Enclave::Create(ecfg).value();
  }

  QueryConfig cfg;
  cfg.num_threads = threads;
  cfg.setting = setting;
  cfg.enclave = enclave;
  cfg.radix_bits = 8;

  cfg.pipeline = false;
  auto materializing = RunQuery(query, Db(), cfg);
  ASSERT_TRUE(materializing.ok()) << materializing.status().ToString();

  cfg.pipeline = true;
  auto fused = RunQuery(query, Db(), cfg);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();

  const Expected want = OracleOf(query, Db());
  for (const auto& [r, lowering] :
       {std::pair{&materializing.value(), "materializing"},
        std::pair{&fused.value(), "fused"}}) {
    EXPECT_EQ(r->count, want.count.value_or(materializing.value().count))
        << "Q" << query << " " << lowering;
    EXPECT_EQ(r->group_counts, want.group_counts)
        << "Q" << query << " " << lowering;
  }
  EXPECT_GT(fused.value().host_ns, 0.0);
  EXPECT_FALSE(fused.value().phases.phases.empty());
  if (enclave != nullptr) sgx::DestroyEnclave(enclave);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, PipelineEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 3, 6, 10, 12, 19,
                                         plan::kQueryQ12Grouped),
                       ::testing::Values(
                           ExecutionSetting::kPlainCpu,
                           ExecutionSetting::kSgxDataInEnclave),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      int q = std::get<0>(info.param);
      std::string name =
          q == plan::kQueryQ12Grouped ? "Q12G" : "Q" + std::to_string(q);
      name += std::get<1>(info.param) == ExecutionSetting::kPlainCpu
                  ? "_Plain"
                  : "_Sgx";
      name += "_T" + std::to_string(std::get<2>(info.param));
      // "_Gp" named the fused probe schedule, group prefetching; fused
      // probes now test a key bitmap, and the suffix stays so that the
      // case names do not change.
      name += "_Gp";
      return name;
    });

TEST(PipelineReportTest, FusedPlansMaterializeFewerBytes) {
  // The point of fusion: the multi-join queries stop writing global
  // row-id lists, gathered relations, and join intermediates. The
  // per-query bytes_materialized counter delta must reflect that.
  for (int q : {3, 10, 12, 19}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.radix_bits = 8;

    cfg.pipeline = false;
    auto materializing = RunQuery(q, Db(), cfg);
    ASSERT_TRUE(materializing.ok()) << materializing.status().ToString();

    cfg.pipeline = true;
    auto fused = RunQuery(q, Db(), cfg);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();

    EXPECT_GT(materializing.value().report.bytes_materialized, 0u)
        << "Q" << q;
    EXPECT_LT(fused.value().report.bytes_materialized,
              materializing.value().report.bytes_materialized)
        << "Q" << q;
  }
}

// --- Vectorized stages over every view kind ---------------------------------
//
// Both lowerings' refinements, and the fused sinks, read raw run pointers
// through ForEachRun and the gather kernels; the materializing
// aggregates read the same columns through ColumnReader. On views whose
// runs break inside a morsel both must agree on every refinement kind
// and aggregate. Grouped results carry counts; the kernel property tests
// check the sums.

std::vector<plan::Plan> GatherPlans() {
  using plan::AggSpec;
  using plan::ColId;
  using plan::Predicate;
  using plan::TableId;
  const std::vector<Predicate> every_kind = {
      Predicate::U32Range(ColId::kLShipdate, kDate19940101, kDate19980802),
      Predicate::U8Range(ColId::kLShipmode, 1, 5),
      Predicate::U8InSet(ColId::kLShipinstruct, 0b1011),
      Predicate::Less(ColId::kLCommitdate, ColId::kLReceiptdate),
      Predicate::U32Range(ColId::kLQuantity, 5, 40),
      Predicate::U32Range(ColId::kLDiscount, 1, 9),
  };
  const AggSpec sum =
      AggSpec::SumProduct(ColId::kLExtendedprice, ColId::kLDiscount);
  const AggSpec group = AggSpec::GroupSum2(
      ColId::kLQuantity, ColId::kLReturnflag, kNumReturnFlags,
      ColId::kLLinestatus, kNumLineStatuses);

  std::vector<plan::Plan> plans;
  auto scan_plan = [&](std::vector<Predicate> preds, const AggSpec& agg,
                       const char* name) {
    plan::PlanBuilder b;
    const int li = b.Scan(TableId::kLineitem, std::move(preds));
    plans.push_back(b.Build(b.Aggregate(li, agg), name).value());
  };
  scan_plan(every_kind, sum, "EveryKindSum");
  scan_plan(every_kind, group, "EveryKindGroup");
  // No predicate: the sink gathers every row of the updated columns.
  scan_plan({}, sum, "AllRowsSum");
  // No scan form first: the morsel starts full and every stage gathers.
  scan_plan({Predicate::U8InSet(ColId::kLShipmode, kQ12ModeMask),
             Predicate::Less(ColId::kLShipdate, ColId::kLCommitdate),
             Predicate::U32Range(ColId::kLExtendedprice, 0, 5000000)},
            group, "InSetFirstGroup");
  scan_plan({Predicate::U8Range(ColId::kLReturnflag, 0, 1),
             Predicate::U32Range(ColId::kLQuantity, 10, 30)},
            sum, "U8FirstSum");
  // Sinks after a probe get its matches as ascending flushes.
  for (const AggSpec& agg : {sum, group}) {
    plan::PlanBuilder b;
    const int ord = b.Scan(
        TableId::kOrders,
        {Predicate::U32Range(ColId::kOOrderdate, 0, kDate19950315)});
    const int li = b.Scan(TableId::kLineitem, every_kind);
    const int j = b.Join(ord, li, ColId::kOOrderkey, ColId::kLOrderkey);
    plans.push_back(b.Build(b.Aggregate(j, agg), "ProbeSink").value());
  }
  // Last: a u8 range refinement past code 63 keeps every row.
  scan_plan({Predicate::U32Range(ColId::kLShipdate, 0, 0xffffffffu),
             Predicate::U8Range(ColId::kLShipmode, 0, 200)},
            AggSpec::CountStar(), "U8RangeKeepsAll");
  return plans;
}

// Both lowerings of every gather plan on `view`; returns the fused
// results so callers can compare views.
std::vector<QueryResult> ExpectLoweringsAgree(const TpchDbView& view,
                                              const std::string& what) {
  std::vector<QueryResult> out;
  QueryConfig cfg;
  cfg.num_threads = 3;
  for (const plan::Plan& p : GatherPlans()) {
    const plan::PlanDecisions d = plan::DecideFor(p, cfg);
    auto fused = plan::ExecuteFused(p, view, cfg);
    auto mat = plan::ExecuteMaterializing(p, view, cfg, d);
    EXPECT_TRUE(fused.ok()) << what << " " << p.name() << ": "
                            << fused.status().ToString();
    EXPECT_TRUE(mat.ok()) << what << " " << p.name() << ": "
                          << mat.status().ToString();
    if (!fused.ok() || !mat.ok()) return out;
    EXPECT_EQ(fused.value().count, mat.value().count)
        << what << " " << p.name();
    EXPECT_EQ(fused.value().group_counts, mat.value().group_counts)
        << what << " " << p.name();
    out.push_back(std::move(fused).value());
  }
  return out;
}

// 600 single-row commits to the versioned lineitem columns, spread over
// most version chunks.
void CommitUpdates(txn::VersionedTpchDb* vdb, size_t lineitem_rows) {
  Xoshiro256 rng(0x5eed);
  for (int i = 0; i < 600; ++i) {
    txn::UpdateOp op;
    op.column = static_cast<txn::UpdateColumn>(rng.NextBounded(3));
    op.row = rng.NextBounded(lineitem_rows);
    op.value = op.column == txn::UpdateColumn::kLDiscount
                   ? static_cast<uint32_t>(rng.NextBounded(11))
                   : 1 + static_cast<uint32_t>(rng.NextBounded(50));
    ASSERT_TRUE(vdb->Commit(op).ok()) << "commit " << i;
  }
}

TEST(FusedGatherTest, VersionedViewWithDirtyChunks) {
  GenConfig gen;
  gen.scale_factor = 0.01;
  TpchDb db = Generate(gen).value();
  txn::TxnOptions opts;
  opts.chunk_rows = 1000;  // morsels span many chunks, dirty or not
  txn::VersionedTpchDb vdb(db, opts);
  CommitUpdates(&vdb, db.lineitem.num_rows);

  auto snap = vdb.OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  const auto base = ExpectLoweringsAgree(ViewOf(db), "resident base");
  const auto versioned =
      ExpectLoweringsAgree(snap.value().view(), "versioned");
  // The snapshot must read the versions, not the base it shadows.
  ASSERT_EQ(base.size(), versioned.size());
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base[2].group_counts, versioned[2].group_counts)
      << "AllRowsSum did not see the committed updates";
}

TEST(FusedGatherTest, PagedViewRunsBreakInsideMorsels) {
  GenConfig gen;
  gen.scale_factor = 0.01;
  TpchDb db = Generate(gen).value();
  // 5000-row partitions and 3000-row version chunks: neither divides the
  // 32 Ki-row morsel, so every morsel's runs break at both.
  storage::BufferManager::Config bm_cfg;
  bm_cfg.buffer_bytes = 768 << 10;
  bm_cfg.partition_rows = 5000;
  storage::BufferManager bm(bm_cfg);
  PagedTpchDb paged = PagedTpchDb::Build(db, &bm).value();

  const auto resident = ExpectLoweringsAgree(ViewOf(db), "resident");
  const auto plain = ExpectLoweringsAgree(paged.View(), "paged");
  ASSERT_EQ(resident.size(), plain.size());
  ASSERT_EQ(resident.size(), GatherPlans().size());
  for (size_t i = 0; i < resident.size(); ++i) {
    EXPECT_EQ(plain[i].group_counts, resident[i].group_counts) << i;
  }
  EXPECT_EQ(resident.back().count, db.lineitem.num_rows) << "U8RangeKeepsAll";
  EXPECT_EQ(plain.back().count, db.lineitem.num_rows) << "U8RangeKeepsAll";
  EXPECT_GT(bm.stats().partitions_reloaded, 0u);

  txn::TxnOptions opts;
  opts.chunk_rows = 3000;
  txn::VersionedTpchDb vdb(paged.View(), opts);
  CommitUpdates(&vdb, db.lineitem.num_rows);
  auto snap = vdb.OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  ExpectLoweringsAgree(snap.value().view(), "versioned over paged");
}

// --- Traced fused runs -------------------------------------------------------

// A strict JSON reader: the whole text must be one well-formed value
// with valid UTF-8 strings. Collects (name, cat) of every object that
// has both, i.e. every trace event.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool Parse() {
    if (!Value(nullptr)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

  std::vector<std::pair<std::string, std::string>> events;

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Value(std::string* str) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String(str);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return Number();
    }
    for (const std::string lit : {"true", "false", "null"}) {
      if (s_.compare(pos_, lit.size(), lit) == 0) {
        pos_ += lit.size();
        return true;
      }
    }
    return false;
  }
  bool Object() {
    ++pos_;
    if (Eat('}')) return true;
    std::string name, cat;
    bool has_name = false, has_cat = false;
    do {
      std::string key, val;
      SkipWs();
      if (!String(&key) || !Eat(':') || !Value(&val)) return false;
      if (key == "name") has_name = true, name = val;
      if (key == "cat") has_cat = true, cat = val;
    } while (Eat(','));
    if (!Eat('}')) return false;
    if (has_name && has_cat) events.emplace_back(name, cat);
    return true;
  }
  bool Array() {
    ++pos_;
    if (Eat(']')) return true;
    do {
      if (!Value(nullptr)) return false;
    } while (Eat(','));
    return Eat(']');
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string("+-.eE").find(s_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    std::string v;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        if (out != nullptr) *out = std::move(v);
        return true;
      }
      if (c < 0x20) return false;
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        pos_ += 2;
        if (e == 'u') {
          if (pos_ + 4 > s_.size()) return false;
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          v += '?';
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) != std::string::npos) {
          v += e;
        } else {
          return false;
        }
        continue;
      }
      // UTF-8: the lead byte gives the length, the rest are 10xxxxxx.
      const size_t len = c < 0x80           ? 1
                         : (c >> 5) == 0x6  ? 2
                         : (c >> 4) == 0xe  ? 3
                         : (c >> 3) == 0x1e ? 4
                                            : 0;
      if (len == 0 || pos_ + len > s_.size()) return false;
      for (size_t i = 1; i < len; ++i) {
        if ((static_cast<unsigned char>(s_[pos_ + i]) & 0xc0) != 0x80) {
          return false;
        }
      }
      v.append(s_, pos_, len);
      pos_ += len;
    }
    return false;
  }

  std::string s_;
  size_t pos_ = 0;
};

TEST(FusedTraceTest, PipelineSpansKeepTheirNames) {
  // The trace rings hold span name pointers until export, after the
  // fused executor's name strings are gone.
  obs::ResetTrace();
  obs::EnableTracing();
  QueryConfig cfg;
  cfg.num_threads = 2;
  cfg.pipeline = true;
  auto result = RunQuery(6, Db(), cfg);
  obs::DisableTracing();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  JsonChecker json(obs::TraceToJson());
  obs::ResetTrace();
  ASSERT_TRUE(json.Parse()) << "trace is not well-formed JSON";
  bool pipeline = false;
  bool morsel = false;
  for (const auto& [name, cat] : json.events) {
    if (name != "q6.sum_lineitem") continue;
    pipeline = pipeline || cat == "pipeline";
    morsel = morsel || cat == "morsel";
  }
  EXPECT_TRUE(pipeline) << "no q6.sum_lineitem pipeline span";
  EXPECT_TRUE(morsel) << "no q6.sum_lineitem morsel span";
}

// --- Allocation-guard unit tests (satellite: overflow hardening) -----------

TEST(RowIdListGuardTest, RejectsCapacityOverflow) {
  QueryConfig cfg;
  auto list = RowIdList::Allocate(
      std::numeric_limits<size_t>::max() / sizeof(uint64_t) + 1, cfg);
  EXPECT_FALSE(list.ok());
}

TEST(RowIdListGuardTest, ZeroCapacityStillUsable) {
  // Empty filters allocate "0" rows; the list must still hold the
  // canonical empty state, not a null buffer.
  QueryConfig cfg;
  auto list = RowIdList::Allocate(0, cfg);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_GE(list.value().capacity(), 1u);
  EXPECT_EQ(list.value().count(), 0u);
  EXPECT_NE(list.value().ids(), nullptr);
}

TEST(ScatterScratchGuardTest, RejectsNegativeAndOversizedBits) {
  join::ScatterBufferScratch scratch;
  EXPECT_FALSE(scratch.Reserve(-1).ok());
  EXPECT_FALSE(scratch.Reserve(63).ok());
  EXPECT_TRUE(scratch.Reserve(8).ok());
  EXPECT_NE(scratch.buffers(), nullptr);
  EXPECT_NE(scratch.fill(), nullptr);
}

}  // namespace
}  // namespace sgxb::tpch
