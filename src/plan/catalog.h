// The query catalog: every workload query declared as a logical plan.
//
// Queries are catalog entries, not driver code — adding a query means
// appending a Plan here; the planner (plan/planner.h) lowers it to
// either execution mode. The predicate constants the paper's queries
// share (formerly tpch/query_constants.h) live here too, so the catalog
// is the single source of truth for both the plans and the reference
// oracles in tpch/queries.cc.

#ifndef SGXB_PLAN_CATALOG_H_
#define SGXB_PLAN_CATALOG_H_

#include <cstdint>
#include <vector>

#include "plan/plan.h"
#include "tpch/tpch_schema.h"

namespace sgxb::tpch {

constexpr uint64_t Bit(uint8_t code) { return uint64_t{1} << code; }

// Q12 ship modes: MAIL and SHIP.
inline constexpr uint64_t kQ12ModeMask = Bit(kModeMail) | Bit(kModeShip);
// Q19 ship modes: AIR and AIR REG.
inline constexpr uint64_t kQ19ModeMask = Bit(kModeAir) | Bit(kModeRegAir);

// Q19 branch parameters (brand codes are arbitrary but fixed; containers
// encode size*8+kind, see tpch_schema.h).
struct Q19Branch {
  uint8_t brand;
  uint64_t container_mask;
  uint32_t qty_lo;
  uint32_t qty_hi;
  uint32_t size_hi;
};

inline constexpr Q19Branch kQ19Branches[3] = {
    // Brand#12, SM CASE/BOX/PACK/PKG, qty in [1, 11], size in [1, 5]
    {3, Bit(0) | Bit(1) | Bit(5) | Bit(4), 1, 11, 5},
    // Brand#23, MED BAG/BOX/PKG/PACK, qty in [10, 20], size in [1, 10]
    {8, Bit(10) | Bit(9) | Bit(12) | Bit(13), 10, 20, 10},
    // Brand#34, LG CASE/BOX/PACK/PKG, qty in [20, 30], size in [1, 15]
    {14, Bit(16) | Bit(17) | Bit(21) | Bit(20), 20, 30, 15},
};

// Q1's shipdate cutoff: date '1998-12-01' - interval '90' day.
inline constexpr uint32_t kQ1Cutoff =
    static_cast<uint32_t>(DaysFromCivil(1998, 9, 2));

}  // namespace sgxb::tpch

namespace sgxb::plan {

// Plan-only query numbers (no per-query driver code exists for these;
// they run exclusively through the planner). The 10x numbering keeps
// them clear of real TPC-H query numbers.
inline constexpr int kQueryQ5Multiway = 105;
inline constexpr int kQueryQ5Grouped = 106;
inline constexpr int kQueryQ12Grouped = 112;

// The queries, by number (tpch::RunQuery(n, db, config)). `count` is the
// final count(*) unless stated otherwise.
//   1    Q1, pricing summary: pure scan + GROUP BY (returnflag,
//        linestatus) with count(*) and sum(quantity) per group over
//        lineitem rows with shipdate <= 1998-09-02. group_counts holds
//        the per-group counts (flag * kNumLineStatuses + status); `count`
//        is their total.
//   3    Q3, shipping priority: customer (mktsegment = BUILDING) JOIN
//        orders (orderdate < 1995-03-15) JOIN lineitem (shipdate >
//        1995-03-15).
//   6    Q6, forecasting revenue: pure scan, sum(extendedprice * discount)
//        over shipdate in 1994, discount in [5, 7], quantity < 24.
//        `count` holds the qualifying row count and group_counts[0] the
//        revenue sum.
//   10   Q10, returned items: customer JOIN orders (orderdate in
//        [1993-10-01, 1994-01-01)) JOIN lineitem (returnflag = 'R').
//   12   Q12, shipping modes: orders JOIN lineitem (shipmode in {MAIL,
//        SHIP}, commitdate < receiptdate, shipdate < commitdate,
//        receiptdate in [1994-01-01, 1995-01-01)).
//   19   Q19, discounted revenue: part JOIN lineitem with the disjunction
//        of three brand/container/quantity/size branches, executed as
//        three disjoint joins (the branches select distinct brands) whose
//        counts sum.
//   105  Q5M: customer (mktsegment = AUTOMOBILE) JOIN orders (orderdate
//        in 1994) JOIN lineitem.
//   106  Q5G: the Q5M join, counted per order priority in group_counts.
//   112  Q12G: Q12 with its real GROUP BY final — line counts per
//        priority class (group 0 = high: URGENT/HIGH orders; group 1 =
//        low). The paper replaces this aggregation with count(*); this
//        restores it.

/// \brief One catalog query: a number for RunQuery-style dispatch, a
/// report name, and the validated plan.
struct CatalogEntry {
  int query_number = 0;
  const char* name = "";
  const char* description = "";
  Plan plan;
};

/// \brief All catalog queries, in query-number order. Built once on
/// first use; a malformed static plan aborts (it is a programming
/// error, not input). Numbers 1/3/6/10/12/19 are the paper's queries;
/// 105/106 are the plan-only Q5-style multi-way joins and 112 is the
/// grouped Q12 variant.
const std::vector<CatalogEntry>& Catalog();

/// \brief Catalog lookup by query number; nullptr when absent.
const CatalogEntry* FindQuery(int query_number);

}  // namespace sgxb::plan

#endif  // SGXB_PLAN_CATALOG_H_
