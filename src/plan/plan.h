// Logical query plans (docs/planner.md).
//
// The paper's workload layer hard-coded every query twice: a
// materializing operator-at-a-time body and a hand-fused morsel
// pipeline. This layer replaces both with one declarative
// representation: an immutable tree of plan nodes (scan / hash-join /
// union-all / aggregate) over the integer TPC-H schema, built through
// PlanBuilder and validated once at construction. The planner
// (plan/planner.h) lowers a Plan to either execution mode — so new
// queries are catalog entries (plan/catalog.h), not new driver code.

#ifndef SGXB_PLAN_PLAN_H_
#define SGXB_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_view.h"
#include "tpch/db_view.h"

namespace sgxb::plan {

// --- Schema binding -------------------------------------------------------
// Plans reference tables and columns by enum, not by pointer: a plan is a
// pure description, bound to an actual TpchDbView (resident or paged)
// only at execution time.

enum class TableId : uint8_t {
  kCustomer = 0,
  kOrders = 1,
  kLineitem = 2,
  kPart = 3,
};

inline constexpr int kNumTables = 4;

enum class ColType : uint8_t { kU32, kU8 };

enum class ColId : uint8_t {
  // customer
  kCCustkey = 0,
  kCMktsegment,
  // orders
  kOOrderkey,
  kOCustkey,
  kOOrderdate,
  kOOrderpriority,
  // lineitem
  kLOrderkey,
  kLPartkey,
  kLQuantity,
  kLExtendedprice,
  kLDiscount,
  kLShipdate,
  kLCommitdate,
  kLReceiptdate,
  kLShipmode,
  kLShipinstruct,
  kLReturnflag,
  kLLinestatus,
  // part
  kPPartkey,
  kPSize,
  kPBrand,
  kPContainer,
};

TableId TableOf(ColId col);
ColType TypeOf(ColId col);
const char* ColName(ColId col);
const char* TableName(TableId table);

/// \brief True for the dense unique keys c_custkey, o_orderkey and
/// p_partkey: a table of n rows holds each key of [0, n) exactly once
/// (the generator writes key = row index). A join that builds on one
/// matches each probe row at most once, and the fused lowering answers it
/// with a bitmap over [0, n) (docs/pipelines.md).
bool IsDenseKey(ColId col);

/// \brief Row count of `table` in the bound database view.
size_t TableRows(const tpch::TpchDbView& db, TableId table);

/// \brief Binds a u32 / u8 column id to the view's ColumnView. Calling
/// with a column of the other type aborts (plans are validated, so a
/// mismatch is an executor bug, not user input).
storage::ColumnView<uint32_t> U32Column(const tpch::TpchDbView& db,
                                        ColId col);
storage::ColumnView<uint8_t> U8Column(const tpch::TpchDbView& db,
                                      ColId col);

// --- Predicates -----------------------------------------------------------

/// \brief One conjunct of a scan's selection. Both lowerings evaluate it
/// with the same kernels: a first u32 or u8 range with a row-id scan,
/// every other conjunct with plan::Refine (plan/planner.h).
struct Predicate {
  enum class Kind : uint8_t {
    kU32Range,  ///< lo <= col <= hi (u32)
    kU8Range,   ///< lo <= col <= hi (u8, any code; SIMD row-id scan
                ///< eligible)
    kU8InSet,   ///< bit col's code set in `mask`; a code >= 64 is never
                ///< in the set
    kColLess,   ///< col < rhs (both u32, same table)
  };

  Kind kind = Kind::kU32Range;
  ColId col = ColId::kCCustkey;
  ColId rhs = ColId::kCCustkey;  ///< kColLess only
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint64_t mask = 0;  ///< kU8InSet only

  static Predicate U32Range(ColId col, uint32_t lo, uint32_t hi);
  static Predicate U8Range(ColId col, uint8_t lo, uint8_t hi);
  static Predicate U8Eq(ColId col, uint8_t value);
  static Predicate U8InSet(ColId col, uint64_t mask);
  static Predicate Less(ColId col, ColId rhs);

  /// \brief "l_shipdate in [810, 4294967295]" — for Explain dumps.
  std::string ToString() const;
};

// --- Aggregates -----------------------------------------------------------

/// \brief The plan's final operator. Mirrors the aggregate finals the
/// repo's queries use; every Plan root is exactly one of these.
struct AggSpec {
  enum class Kind : uint8_t {
    kCountStar,        ///< count(*) — the paper's final for all queries
    kGroupCountViaFk,  ///< count per values[fk[row]] (Q12Grouped-style)
    kGroupSum2,        ///< count+sum(value) per (g1, g2) (Q1-style)
    kSumProduct,       ///< sum(a * b) over qualifying rows (Q6-style)
  };

  Kind kind = Kind::kCountStar;

  // kGroupCountViaFk: group = values[fk[row]]; `values` lives on the
  // fk's target table, `fk` on the input's output table.
  ColId fk = ColId::kCCustkey;
  ColId values = ColId::kCCustkey;
  int num_groups = 0;
  /// Optional post-grouping fold: output_map[code] is the output slot of
  /// group `code` (e.g. Q12Grouped folds five order priorities into
  /// {high, low}). Empty = identity.
  std::vector<int> output_map;

  // kGroupSum2: group index = g1[row] * num_g2 + g2[row].
  ColId g1 = ColId::kCCustkey;
  ColId g2 = ColId::kCCustkey;
  int num_g1 = 0;
  int num_g2 = 0;

  // kGroupSum2's summed value / kSumProduct's two factors.
  ColId value = ColId::kCCustkey;
  ColId value2 = ColId::kCCustkey;

  static AggSpec CountStar();
  static AggSpec GroupCountViaFk(ColId values, ColId fk, int num_groups,
                                 std::vector<int> output_map = {});
  static AggSpec GroupSum2(ColId value, ColId g1, int num_g1, ColId g2,
                           int num_g2);
  static AggSpec SumProduct(ColId a, ColId b);

  /// \brief kGroupCountViaFk's result: `raw` (one count per code)
  /// folded through output_map.
  std::vector<uint64_t> FoldGroups(std::vector<uint64_t> raw) const;
};

// --- Plan nodes -----------------------------------------------------------

/// \brief One node of a plan tree. Nodes are stored flat in the Plan and
/// reference children by index; the builder below is the intended way to
/// create them (hand-built vectors go through Plan::FromNodes, which
/// validates everything — including that the "tree" really is one).
struct PlanNode {
  enum class Kind : uint8_t { kScan, kJoin, kUnionAll, kAggregate };

  Kind kind = Kind::kScan;

  // kScan: conjunctive predicates over `table`'s columns.
  TableId table = TableId::kCustomer;
  std::vector<Predicate> predicates;

  // kJoin: hash equi-join build.key == probe.key. The node's output rows
  // are probe-side rows, one per matching build row: a probe row that
  // matches k build rows appears k times, one that matches none is
  // dropped. Build keys need not be unique (Plan::FromNodes does not
  // check); every catalog plan builds on a dense key (IsDenseKey), so
  // there each probe row appears at most once.
  int build = -1;
  int probe = -1;
  ColId build_key = ColId::kCCustkey;
  ColId probe_key = ColId::kCCustkey;

  // kUnionAll: disjoint branches over the same output table (Q19's three
  // brand-disjoint branches).
  std::vector<int> children;

  // kAggregate: the plan's root final.
  int input = -1;
  AggSpec agg;
};

/// \brief An immutable, validated logical plan. Construction goes through
/// PlanBuilder::Build or Plan::FromNodes; both reject malformed trees
/// (unbound predicate columns, type mismatches, cyclic or shared nodes,
/// non-aggregate roots), so executors can assume structural sanity.
class Plan {
 public:
  Plan() = default;  ///< empty (invalid) placeholder; valid() is false

  /// \brief Validates and adopts a hand-built node list. The builder API
  /// cannot produce cycles or sharing, so tests exercise those error
  /// paths through this entry point.
  static Result<Plan> FromNodes(std::vector<PlanNode> nodes, int root,
                                std::string name);

  bool valid() const { return !nodes_.empty(); }
  const std::string& name() const { return name_; }
  int root() const { return root_; }
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  const PlanNode& node(int id) const {
    return nodes_[static_cast<size_t>(id)];
  }

  /// \brief The table whose row ids node `id` produces (scan: its table;
  /// join: the probe side's; union: the common child table; aggregate:
  /// its input's — aggregates produce scalars, not rows, but the value is
  /// still well-defined and the executors use it for sizing).
  TableId OutputTable(int id) const {
    return output_table_[static_cast<size_t>(id)];
  }

  /// \brief Indented structural dump (the planner's Explain puts one
  /// line of decisions above it).
  std::string ToText() const;

 private:
  std::vector<PlanNode> nodes_;
  std::vector<TableId> output_table_;
  int root_ = -1;
  std::string name_;
};

// --- Builder --------------------------------------------------------------

/// \brief Accumulates nodes and hands them to Plan::FromNodes. Node
/// methods return the new node's id for use as a child reference; errors
/// (bad child ids, type mismatches) surface from Build(), keeping the
/// construction code linear.
class PlanBuilder {
 public:
  int Scan(TableId table, std::vector<Predicate> predicates = {});
  int Join(int build, int probe, ColId build_key, ColId probe_key);
  int UnionAll(std::vector<int> children);
  int Aggregate(int input, AggSpec agg);

  /// \brief Validates and returns the finished plan.
  Result<Plan> Build(int root, std::string name);

 private:
  std::vector<PlanNode> nodes_;
};

}  // namespace sgxb::plan

#endif  // SGXB_PLAN_PLAN_H_
