// View of a TPC-H database whose columns may be resident or paged.
//
// TpchDbView mirrors TpchDb field-for-field but holds
// storage::ColumnView instead of Column, so the same plan lowerings
// (plan/planner.cc, plan/fused.cc) run over an all-resident TpchDb or
// over a PagedTpchDb whose columns live in the out-of-EPC buffer manager
// (docs/storage.md). ViewOf(db) adapts a resident database;
// PagedTpchDb::View() adapts a paged one.

#ifndef SGXB_TPCH_DB_VIEW_H_
#define SGXB_TPCH_DB_VIEW_H_

#include "storage/column_view.h"
#include "tpch/tpch_schema.h"

namespace sgxb::tpch {

struct CustomerTableView {
  size_t num_rows = 0;
  storage::ColumnView<uint32_t> c_custkey;
  storage::ColumnView<uint8_t> c_mktsegment;
};

struct OrdersTableView {
  size_t num_rows = 0;
  storage::ColumnView<uint32_t> o_orderkey;
  storage::ColumnView<uint32_t> o_custkey;
  storage::ColumnView<uint32_t> o_orderdate;
  storage::ColumnView<uint8_t> o_orderpriority;
};

struct LineitemTableView {
  size_t num_rows = 0;
  storage::ColumnView<uint32_t> l_orderkey;
  storage::ColumnView<uint32_t> l_partkey;
  storage::ColumnView<uint32_t> l_quantity;
  storage::ColumnView<uint32_t> l_extendedprice;
  storage::ColumnView<uint32_t> l_discount;
  storage::ColumnView<uint32_t> l_shipdate;
  storage::ColumnView<uint32_t> l_commitdate;
  storage::ColumnView<uint32_t> l_receiptdate;
  storage::ColumnView<uint8_t> l_shipmode;
  storage::ColumnView<uint8_t> l_shipinstruct;
  storage::ColumnView<uint8_t> l_returnflag;
  storage::ColumnView<uint8_t> l_linestatus;
};

struct PartTableView {
  size_t num_rows = 0;
  storage::ColumnView<uint32_t> p_partkey;
  storage::ColumnView<uint32_t> p_size;
  storage::ColumnView<uint8_t> p_brand;
  storage::ColumnView<uint8_t> p_container;
};

struct TpchDbView {
  double scale_factor = 0;
  CustomerTableView customer;
  OrdersTableView orders;
  LineitemTableView lineitem;
  PartTableView part;
};

/// \brief All-resident view of `db` (columns stay owned by `db`).
inline TpchDbView ViewOf(const TpchDb& db) {
  TpchDbView v;
  v.scale_factor = db.scale_factor;
  v.customer.num_rows = db.customer.num_rows;
  v.customer.c_custkey = db.customer.c_custkey;
  v.customer.c_mktsegment = db.customer.c_mktsegment;
  v.orders.num_rows = db.orders.num_rows;
  v.orders.o_orderkey = db.orders.o_orderkey;
  v.orders.o_custkey = db.orders.o_custkey;
  v.orders.o_orderdate = db.orders.o_orderdate;
  v.orders.o_orderpriority = db.orders.o_orderpriority;
  v.lineitem.num_rows = db.lineitem.num_rows;
  v.lineitem.l_orderkey = db.lineitem.l_orderkey;
  v.lineitem.l_partkey = db.lineitem.l_partkey;
  v.lineitem.l_quantity = db.lineitem.l_quantity;
  v.lineitem.l_extendedprice = db.lineitem.l_extendedprice;
  v.lineitem.l_discount = db.lineitem.l_discount;
  v.lineitem.l_shipdate = db.lineitem.l_shipdate;
  v.lineitem.l_commitdate = db.lineitem.l_commitdate;
  v.lineitem.l_receiptdate = db.lineitem.l_receiptdate;
  v.lineitem.l_shipmode = db.lineitem.l_shipmode;
  v.lineitem.l_shipinstruct = db.lineitem.l_shipinstruct;
  v.lineitem.l_returnflag = db.lineitem.l_returnflag;
  v.lineitem.l_linestatus = db.lineitem.l_linestatus;
  v.part.num_rows = db.part.num_rows;
  v.part.p_partkey = db.part.p_partkey;
  v.part.p_size = db.part.p_size;
  v.part.p_brand = db.part.p_brand;
  v.part.p_container = db.part.p_container;
  return v;
}

}  // namespace sgxb::tpch

#endif  // SGXB_TPCH_DB_VIEW_H_
