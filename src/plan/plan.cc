#include "plan/plan.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace sgxb::plan {

namespace {

struct ColInfo {
  TableId table;
  ColType type;
  const char* name;
};

constexpr ColInfo kColInfo[] = {
    {TableId::kCustomer, ColType::kU32, "c_custkey"},
    {TableId::kCustomer, ColType::kU8, "c_mktsegment"},
    {TableId::kOrders, ColType::kU32, "o_orderkey"},
    {TableId::kOrders, ColType::kU32, "o_custkey"},
    {TableId::kOrders, ColType::kU32, "o_orderdate"},
    {TableId::kOrders, ColType::kU8, "o_orderpriority"},
    {TableId::kLineitem, ColType::kU32, "l_orderkey"},
    {TableId::kLineitem, ColType::kU32, "l_partkey"},
    {TableId::kLineitem, ColType::kU32, "l_quantity"},
    {TableId::kLineitem, ColType::kU32, "l_extendedprice"},
    {TableId::kLineitem, ColType::kU32, "l_discount"},
    {TableId::kLineitem, ColType::kU32, "l_shipdate"},
    {TableId::kLineitem, ColType::kU32, "l_commitdate"},
    {TableId::kLineitem, ColType::kU32, "l_receiptdate"},
    {TableId::kLineitem, ColType::kU8, "l_shipmode"},
    {TableId::kLineitem, ColType::kU8, "l_shipinstruct"},
    {TableId::kLineitem, ColType::kU8, "l_returnflag"},
    {TableId::kLineitem, ColType::kU8, "l_linestatus"},
    {TableId::kPart, ColType::kU32, "p_partkey"},
    {TableId::kPart, ColType::kU32, "p_size"},
    {TableId::kPart, ColType::kU8, "p_brand"},
    {TableId::kPart, ColType::kU8, "p_container"},
};

constexpr const char* kTableNames[] = {"customer", "orders", "lineitem",
                                       "part"};

const ColInfo& InfoOf(ColId col) {
  return kColInfo[static_cast<size_t>(col)];
}

}  // namespace

TableId TableOf(ColId col) { return InfoOf(col).table; }
ColType TypeOf(ColId col) { return InfoOf(col).type; }
const char* ColName(ColId col) { return InfoOf(col).name; }
const char* TableName(TableId table) {
  return kTableNames[static_cast<size_t>(table)];
}

bool IsDenseKey(ColId col) {
  return col == ColId::kCCustkey || col == ColId::kOOrderkey ||
         col == ColId::kPPartkey;
}

size_t TableRows(const tpch::TpchDbView& db, TableId table) {
  switch (table) {
    case TableId::kCustomer:
      return db.customer.num_rows;
    case TableId::kOrders:
      return db.orders.num_rows;
    case TableId::kLineitem:
      return db.lineitem.num_rows;
    case TableId::kPart:
      return db.part.num_rows;
  }
  return 0;
}

storage::ColumnView<uint32_t> U32Column(const tpch::TpchDbView& db,
                                        ColId col) {
  switch (col) {
    case ColId::kCCustkey:
      return db.customer.c_custkey;
    case ColId::kOOrderkey:
      return db.orders.o_orderkey;
    case ColId::kOCustkey:
      return db.orders.o_custkey;
    case ColId::kOOrderdate:
      return db.orders.o_orderdate;
    case ColId::kLOrderkey:
      return db.lineitem.l_orderkey;
    case ColId::kLPartkey:
      return db.lineitem.l_partkey;
    case ColId::kLQuantity:
      return db.lineitem.l_quantity;
    case ColId::kLExtendedprice:
      return db.lineitem.l_extendedprice;
    case ColId::kLDiscount:
      return db.lineitem.l_discount;
    case ColId::kLShipdate:
      return db.lineitem.l_shipdate;
    case ColId::kLCommitdate:
      return db.lineitem.l_commitdate;
    case ColId::kLReceiptdate:
      return db.lineitem.l_receiptdate;
    case ColId::kPPartkey:
      return db.part.p_partkey;
    case ColId::kPSize:
      return db.part.p_size;
    default:
      break;
  }
  std::abort();  // validated plans never bind a u8 column as u32
}

storage::ColumnView<uint8_t> U8Column(const tpch::TpchDbView& db, ColId col) {
  switch (col) {
    case ColId::kCMktsegment:
      return db.customer.c_mktsegment;
    case ColId::kOOrderpriority:
      return db.orders.o_orderpriority;
    case ColId::kLShipmode:
      return db.lineitem.l_shipmode;
    case ColId::kLShipinstruct:
      return db.lineitem.l_shipinstruct;
    case ColId::kLReturnflag:
      return db.lineitem.l_returnflag;
    case ColId::kLLinestatus:
      return db.lineitem.l_linestatus;
    case ColId::kPBrand:
      return db.part.p_brand;
    case ColId::kPContainer:
      return db.part.p_container;
    default:
      break;
  }
  std::abort();  // validated plans never bind a u32 column as u8
}

// --- Predicate ------------------------------------------------------------

Predicate Predicate::U32Range(ColId col, uint32_t lo, uint32_t hi) {
  Predicate p;
  p.kind = Kind::kU32Range;
  p.col = col;
  p.lo = lo;
  p.hi = hi;
  return p;
}

Predicate Predicate::U8Range(ColId col, uint8_t lo, uint8_t hi) {
  Predicate p;
  p.kind = Kind::kU8Range;
  p.col = col;
  p.lo = lo;
  p.hi = hi;
  return p;
}

Predicate Predicate::U8Eq(ColId col, uint8_t value) {
  return U8Range(col, value, value);
}

Predicate Predicate::U8InSet(ColId col, uint64_t mask) {
  Predicate p;
  p.kind = Kind::kU8InSet;
  p.col = col;
  p.mask = mask;
  return p;
}

Predicate Predicate::Less(ColId col, ColId rhs) {
  Predicate p;
  p.kind = Kind::kColLess;
  p.col = col;
  p.rhs = rhs;
  return p;
}

std::string Predicate::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kU32Range:
    case Kind::kU8Range:
      if (lo == hi) {
        os << ColName(col) << " == " << lo;
      } else {
        os << ColName(col) << " in [" << lo << ", " << hi << "]";
      }
      break;
    case Kind::kU8InSet:
      os << ColName(col) << " in mask 0x" << std::hex << mask;
      break;
    case Kind::kColLess:
      os << ColName(col) << " < " << ColName(rhs);
      break;
  }
  return os.str();
}

// --- AggSpec --------------------------------------------------------------

AggSpec AggSpec::CountStar() {
  AggSpec a;
  a.kind = Kind::kCountStar;
  return a;
}

AggSpec AggSpec::GroupCountViaFk(ColId values, ColId fk, int num_groups,
                                 std::vector<int> output_map) {
  AggSpec a;
  a.kind = Kind::kGroupCountViaFk;
  a.values = values;
  a.fk = fk;
  a.num_groups = num_groups;
  a.output_map = std::move(output_map);
  return a;
}

std::vector<uint64_t> AggSpec::FoldGroups(std::vector<uint64_t> raw) const {
  if (output_map.empty()) return raw;
  const int slots =
      1 + *std::max_element(output_map.begin(), output_map.end());
  std::vector<uint64_t> out(static_cast<size_t>(slots), 0);
  for (size_t g = 0; g < raw.size(); ++g) {
    out[static_cast<size_t>(output_map[g])] += raw[g];
  }
  return out;
}

AggSpec AggSpec::GroupSum2(ColId value, ColId g1, int num_g1, ColId g2,
                           int num_g2) {
  AggSpec a;
  a.kind = Kind::kGroupSum2;
  a.value = value;
  a.g1 = g1;
  a.num_g1 = num_g1;
  a.g2 = g2;
  a.num_g2 = num_g2;
  return a;
}

AggSpec AggSpec::SumProduct(ColId a_col, ColId b_col) {
  AggSpec a;
  a.kind = Kind::kSumProduct;
  a.value = a_col;
  a.value2 = b_col;
  return a;
}

// --- Validation -----------------------------------------------------------

namespace {

// Max group fan-out both lowerings support with fixed-size per-lane
// aggregate state (one cache-line-friendly array per lane).
constexpr int kMaxGroups = 64;

Status CheckScanPredicate(const Predicate& p, TableId table) {
  if (TableOf(p.col) != table) {
    return Status::InvalidArgument(
        std::string("unbound column: predicate column ") + ColName(p.col) +
        " does not belong to scanned table " + TableName(table));
  }
  switch (p.kind) {
    case Predicate::Kind::kU32Range:
      if (TypeOf(p.col) != ColType::kU32) {
        return Status::InvalidArgument(
            std::string("type mismatch: u32 range over u8 column ") +
            ColName(p.col));
      }
      break;
    case Predicate::Kind::kU8Range:
    case Predicate::Kind::kU8InSet:
      if (TypeOf(p.col) != ColType::kU8) {
        return Status::InvalidArgument(
            std::string("type mismatch: u8 predicate over u32 column ") +
            ColName(p.col));
      }
      break;
    case Predicate::Kind::kColLess:
      if (TypeOf(p.col) != ColType::kU32 || TypeOf(p.rhs) != ColType::kU32) {
        return Status::InvalidArgument(
            "type mismatch: col < col requires two u32 columns");
      }
      if (TableOf(p.rhs) != table) {
        return Status::InvalidArgument(
            std::string("unbound column: comparison column ") +
            ColName(p.rhs) + " does not belong to scanned table " +
            TableName(table));
      }
      break;
  }
  return Status::OK();
}

Status CheckGroupColumn(ColId col, TableId table, int num_groups,
                        const char* role) {
  if (TableOf(col) != table) {
    return Status::InvalidArgument(std::string("unbound column: ") + role +
                                   " column " + ColName(col) +
                                   " does not belong to table " +
                                   TableName(table));
  }
  if (TypeOf(col) != ColType::kU8) {
    return Status::InvalidArgument(std::string("type mismatch: ") + role +
                                   " column " + ColName(col) +
                                   " must be a u8 code column");
  }
  if (num_groups < 1 || num_groups > kMaxGroups) {
    return Status::InvalidArgument(std::string(role) +
                                   " group count out of range [1, 64]");
  }
  return Status::OK();
}

}  // namespace

Result<Plan> Plan::FromNodes(std::vector<PlanNode> nodes, int root,
                             std::string name) {
  const int n = static_cast<int>(nodes.size());
  if (n == 0) return Status::InvalidArgument("plan has no nodes");
  if (root < 0 || root >= n) {
    return Status::InvalidArgument("plan root id out of range");
  }
  if (nodes[static_cast<size_t>(root)].kind != PlanNode::Kind::kAggregate) {
    return Status::InvalidArgument("plan root must be an aggregate");
  }

  auto check_child = [&](int id, const char* role) -> Status {
    if (id < 0 || id >= n) {
      return Status::InvalidArgument(std::string(role) +
                                     " node id out of range");
    }
    return Status::OK();
  };

  // Iterative DFS from the root: computes each node's output table
  // bottom-up and rejects cycles (gray revisit) and DAG sharing (black
  // revisit) — a plan is a tree, so every node has at most one parent.
  std::vector<TableId> output(static_cast<size_t>(n), TableId::kCustomer);
  enum class Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(static_cast<size_t>(n), Color::kWhite);

  struct Frame {
    int id;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  color[static_cast<size_t>(root)] = Color::kGray;

  auto children_of = [&](const PlanNode& node) -> std::vector<int> {
    switch (node.kind) {
      case PlanNode::Kind::kScan:
        return {};
      case PlanNode::Kind::kJoin:
        return {node.build, node.probe};
      case PlanNode::Kind::kUnionAll:
        return node.children;
      case PlanNode::Kind::kAggregate:
        return {node.input};
    }
    return {};
  };

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const PlanNode& node = nodes[static_cast<size_t>(frame.id)];
    const std::vector<int> kids = children_of(node);
    if (frame.next_child < kids.size()) {
      const int child = kids[frame.next_child++];
      const char* role =
          node.kind == PlanNode::Kind::kJoin
              ? (frame.next_child == 1 ? "join build" : "join probe")
              : (node.kind == PlanNode::Kind::kAggregate ? "aggregate input"
                                                         : "union child");
      if (Status s = check_child(child, role); !s.ok()) return s;
      switch (color[static_cast<size_t>(child)]) {
        case Color::kGray:
          return Status::InvalidArgument(
              "cyclic plan: node " + std::to_string(child) +
              " is its own ancestor");
        case Color::kBlack:
          return Status::InvalidArgument(
              "node " + std::to_string(child) +
              " has multiple parents; plans are trees");
        case Color::kWhite:
          color[static_cast<size_t>(child)] = Color::kGray;
          stack.push_back({child, 0});
          break;
      }
      continue;
    }

    // All children visited: validate this node and derive its output
    // table from the (already-finished) children.
    const size_t id = static_cast<size_t>(frame.id);
    switch (node.kind) {
      case PlanNode::Kind::kScan: {
        for (const Predicate& p : node.predicates) {
          if (Status s = CheckScanPredicate(p, node.table); !s.ok()) return s;
        }
        output[id] = node.table;
        break;
      }
      case PlanNode::Kind::kJoin: {
        const PlanNode& build = nodes[static_cast<size_t>(node.build)];
        const PlanNode& probe = nodes[static_cast<size_t>(node.probe)];
        if (build.kind == PlanNode::Kind::kAggregate ||
            probe.kind == PlanNode::Kind::kAggregate) {
          return Status::InvalidArgument(
              "join child may not be an aggregate");
        }
        if (TypeOf(node.build_key) != ColType::kU32 ||
            TypeOf(node.probe_key) != ColType::kU32) {
          return Status::InvalidArgument(
              "type mismatch: join keys must be u32 columns");
        }
        if (TableOf(node.build_key) != output[static_cast<size_t>(node.build)]) {
          return Status::InvalidArgument(
              std::string("unbound column: build key ") +
              ColName(node.build_key) +
              " does not belong to the build child's output table");
        }
        if (TableOf(node.probe_key) != output[static_cast<size_t>(node.probe)]) {
          return Status::InvalidArgument(
              std::string("unbound column: probe key ") +
              ColName(node.probe_key) +
              " does not belong to the probe child's output table");
        }
        output[id] = output[static_cast<size_t>(node.probe)];
        break;
      }
      case PlanNode::Kind::kUnionAll: {
        if (node.children.empty()) {
          return Status::InvalidArgument("union has no children");
        }
        const TableId common =
            output[static_cast<size_t>(node.children.front())];
        for (int child : node.children) {
          const PlanNode& c = nodes[static_cast<size_t>(child)];
          if (c.kind == PlanNode::Kind::kAggregate) {
            return Status::InvalidArgument(
                "union child may not be an aggregate");
          }
          if (output[static_cast<size_t>(child)] != common) {
            return Status::InvalidArgument(
                "union children must share one output table");
          }
        }
        output[id] = common;
        break;
      }
      case PlanNode::Kind::kAggregate: {
        const TableId in = output[static_cast<size_t>(node.input)];
        const AggSpec& agg = node.agg;
        switch (agg.kind) {
          case AggSpec::Kind::kCountStar:
            break;
          case AggSpec::Kind::kGroupCountViaFk: {
            if (TableOf(agg.fk) != in || TypeOf(agg.fk) != ColType::kU32) {
              return Status::InvalidArgument(
                  std::string("unbound column: group fk ") +
                  ColName(agg.fk) +
                  " must be a u32 column of the aggregate input's table");
            }
            if (Status s = CheckGroupColumn(agg.values, TableOf(agg.values),
                                            agg.num_groups, "group values");
                !s.ok()) {
              return s;
            }
            if (!agg.output_map.empty()) {
              if (agg.output_map.size() !=
                  static_cast<size_t>(agg.num_groups)) {
                return Status::InvalidArgument(
                    "output_map size must equal num_groups");
              }
              for (int slot : agg.output_map) {
                if (slot < 0 || slot >= agg.num_groups) {
                  return Status::InvalidArgument(
                      "output_map slot out of range");
                }
              }
            }
            break;
          }
          case AggSpec::Kind::kGroupSum2: {
            if (Status s = CheckGroupColumn(agg.g1, in, agg.num_g1, "group");
                !s.ok()) {
              return s;
            }
            if (Status s = CheckGroupColumn(agg.g2, in, agg.num_g2, "group");
                !s.ok()) {
              return s;
            }
            if (agg.num_g1 * agg.num_g2 > kMaxGroups) {
              return Status::InvalidArgument(
                  "group product exceeds 64 groups");
            }
            if (TableOf(agg.value) != in ||
                TypeOf(agg.value) != ColType::kU32) {
              return Status::InvalidArgument(
                  std::string("unbound column: summed value ") +
                  ColName(agg.value) +
                  " must be a u32 column of the aggregate input's table");
            }
            break;
          }
          case AggSpec::Kind::kSumProduct: {
            for (ColId c : {agg.value, agg.value2}) {
              if (TableOf(c) != in || TypeOf(c) != ColType::kU32) {
                return Status::InvalidArgument(
                    std::string("unbound column: product factor ") +
                    ColName(c) +
                    " must be a u32 column of the aggregate input's table");
              }
            }
            break;
          }
        }
        output[id] = in;
        break;
      }
    }
    color[id] = Color::kBlack;
    stack.pop_back();
  }

  Plan plan;
  plan.nodes_ = std::move(nodes);
  plan.output_table_ = std::move(output);
  plan.root_ = root;
  plan.name_ = std::move(name);
  return plan;
}

// --- ToText ---------------------------------------------------------------

namespace {

void DumpNode(const Plan& plan, int id, int depth, std::ostringstream& os) {
  const PlanNode& node = plan.node(id);
  os << std::string(static_cast<size_t>(depth) * 2, ' ') << "#" << id << " ";
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      os << "Scan(" << TableName(node.table) << ")";
      for (const Predicate& p : node.predicates) {
        os << "\n"
           << std::string(static_cast<size_t>(depth) * 2 + 4, ' ') << "where "
           << p.ToString();
      }
      os << "\n";
      break;
    }
    case PlanNode::Kind::kJoin: {
      os << "Join(" << ColName(node.build_key)
         << " == " << ColName(node.probe_key) << ")\n";
      DumpNode(plan, node.build, depth + 1, os);
      DumpNode(plan, node.probe, depth + 1, os);
      break;
    }
    case PlanNode::Kind::kUnionAll: {
      os << "UnionAll\n";
      for (int child : node.children) DumpNode(plan, child, depth + 1, os);
      break;
    }
    case PlanNode::Kind::kAggregate: {
      switch (node.agg.kind) {
        case AggSpec::Kind::kCountStar:
          os << "Aggregate(count(*))";
          break;
        case AggSpec::Kind::kGroupCountViaFk:
          os << "Aggregate(count(*) group by " << ColName(node.agg.values)
             << " via " << ColName(node.agg.fk) << ")";
          break;
        case AggSpec::Kind::kGroupSum2:
          os << "Aggregate(count, sum(" << ColName(node.agg.value)
             << ") group by " << ColName(node.agg.g1) << ", "
             << ColName(node.agg.g2) << ")";
          break;
        case AggSpec::Kind::kSumProduct:
          os << "Aggregate(sum(" << ColName(node.agg.value) << " * "
             << ColName(node.agg.value2) << "))";
          break;
      }
      os << "\n";
      DumpNode(plan, node.input, depth + 1, os);
      break;
    }
  }
}

}  // namespace

std::string Plan::ToText() const {
  std::ostringstream os;
  os << "plan " << name_ << "\n";
  if (root_ >= 0) DumpNode(*this, root_, 1, os);
  return os.str();
}

// --- PlanBuilder ----------------------------------------------------------

int PlanBuilder::Scan(TableId table, std::vector<Predicate> predicates) {
  PlanNode node;
  node.kind = PlanNode::Kind::kScan;
  node.table = table;
  node.predicates = std::move(predicates);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int PlanBuilder::Join(int build, int probe, ColId build_key,
                      ColId probe_key) {
  PlanNode node;
  node.kind = PlanNode::Kind::kJoin;
  node.build = build;
  node.probe = probe;
  node.build_key = build_key;
  node.probe_key = probe_key;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int PlanBuilder::UnionAll(std::vector<int> children) {
  PlanNode node;
  node.kind = PlanNode::Kind::kUnionAll;
  node.children = std::move(children);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int PlanBuilder::Aggregate(int input, AggSpec agg) {
  PlanNode node;
  node.kind = PlanNode::Kind::kAggregate;
  node.input = input;
  node.agg = std::move(agg);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

Result<Plan> PlanBuilder::Build(int root, std::string name) {
  return Plan::FromNodes(nodes_, root, std::move(name));
}

}  // namespace sgxb::plan
