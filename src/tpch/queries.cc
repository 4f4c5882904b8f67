#include "tpch/queries.h"

#include <string>
#include <vector>

#include "plan/catalog.h"
#include "plan/planner.h"

namespace sgxb::tpch {

// Every query runs through the planner now: the catalog
// (plan/catalog.h) declares each query as a logical plan, and
// plan::ExecutePlan picks the lowering (fused pipelines unless
// QueryConfig::pipeline is false). The hand-written per-query drivers
// this file used to hold are gone; only the single-threaded reference
// oracles remain, deliberately naive and independent of the plan layer.

namespace {

Status UnknownQueryError(int query_number) {
  std::string known;
  for (const plan::CatalogEntry& e : plan::Catalog()) {
    if (!known.empty()) known += ", ";
    known += std::to_string(e.query_number);
  }
  return Status::InvalidArgument("unknown query " +
                                 std::to_string(query_number) +
                                 "; catalog has " + known);
}

Result<QueryResult> ReportedPlan(const plan::Plan& plan,
                                 const std::string& report_name,
                                 const TpchDbView& db,
                                 const QueryConfig& config) {
  obs::QueryReportScope scope(report_name, config.obs_domain);
  // Attribute this thread's work (and, via the executor, every gang task
  // it dispatches) to the query's domain so concurrent RunQuery calls
  // produce disjoint reports. obs_domain = -1 keeps the historical
  // process-global behaviour.
  obs::ScopedMetricDomain domain_scope(config.obs_domain);
  Result<QueryResult> result = plan::ExecutePlan(plan, db, config);
  if (!result.ok()) return result;
  std::vector<obs::PhaseTiming> phases;
  phases.reserve(result.value().phases.phases.size());
  for (const perf::PhaseStats& s : result.value().phases.phases) {
    phases.push_back(obs::PhaseTiming{s.name, s.host_ns});
  }
  result.value().report = scope.Finish(std::move(phases));
  return result;
}

}  // namespace

Result<QueryResult> RunQuery(int query_number, const TpchDb& db,
                             const QueryConfig& config) {
  return RunQuery(query_number, ViewOf(db), config);
}
Result<QueryResult> RunQuery(int query_number, const TpchDbView& db,
                             const QueryConfig& config) {
  const plan::CatalogEntry* entry = plan::FindQuery(query_number);
  if (entry == nullptr) return UnknownQueryError(query_number);
  return ReportedPlan(entry->plan, "Q" + std::to_string(query_number), db,
                      config);
}

Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDb& db,
                            const QueryConfig& config) {
  return RunPlan(plan, ViewOf(db), config);
}
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDbView& db,
                            const QueryConfig& config) {
  return ReportedPlan(plan, plan.name(), db, config);
}

std::pair<uint64_t, uint64_t> ReferenceQ12Grouped(const TpchDb& db) {
  uint64_t high = 0, low = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    const uint8_t mode = db.lineitem.l_shipmode[i];
    bool qualifies =
        (mode == kModeMail || mode == kModeShip) &&
        db.lineitem.l_commitdate[i] < db.lineitem.l_receiptdate[i] &&
        db.lineitem.l_shipdate[i] < db.lineitem.l_commitdate[i] &&
        db.lineitem.l_receiptdate[i] >= kDate19940101 &&
        db.lineitem.l_receiptdate[i] < kDate19950101;
    if (!qualifies) continue;
    uint8_t prio =
        db.orders.o_orderpriority[db.lineitem.l_orderkey[i]];
    if (prio == kPrioUrgent || prio == kPrioHigh) {
      ++high;
    } else {
      ++low;
    }
  }
  return {high, low};
}

std::vector<uint64_t> ReferenceQ1Counts(const TpchDb& db) {
  std::vector<uint64_t> counts(size_t{kNumReturnFlags} * kNumLineStatuses, 0);
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    if (db.lineitem.l_shipdate[i] <= kQ1Cutoff) {
      ++counts[db.lineitem.l_returnflag[i] * kNumLineStatuses +
               db.lineitem.l_linestatus[i]];
    }
  }
  return counts;
}

std::vector<uint64_t> ReferenceQ1Sums(const TpchDb& db) {
  std::vector<uint64_t> sums(size_t{kNumReturnFlags} * kNumLineStatuses, 0);
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    if (db.lineitem.l_shipdate[i] <= kQ1Cutoff) {
      sums[db.lineitem.l_returnflag[i] * kNumLineStatuses +
           db.lineitem.l_linestatus[i]] += db.lineitem.l_quantity[i];
    }
  }
  return sums;
}

uint64_t ReferenceQ6(const TpchDb& db) {
  uint64_t revenue = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    if (db.lineitem.l_shipdate[i] >= kDate19940101 &&
        db.lineitem.l_shipdate[i] < kDate19950101 &&
        db.lineitem.l_discount[i] >= 5 && db.lineitem.l_discount[i] <= 7 &&
        db.lineitem.l_quantity[i] < 24) {
      revenue += static_cast<uint64_t>(db.lineitem.l_extendedprice[i]) *
                 db.lineitem.l_discount[i];
    }
  }
  return revenue;
}

// --- Reference implementations (test oracles) ------------------------------

uint64_t ReferenceQ3(const TpchDb& db) {
  std::vector<uint8_t> cust_ok(db.customer.num_rows, 0);
  for (size_t i = 0; i < db.customer.num_rows; ++i) {
    cust_ok[i] = db.customer.c_mktsegment[i] == kSegBuilding;
  }
  std::vector<uint8_t> order_ok(db.orders.num_rows, 0);
  for (size_t i = 0; i < db.orders.num_rows; ++i) {
    order_ok[i] = db.orders.o_orderdate[i] < kDate19950315 &&
                  cust_ok[db.orders.o_custkey[i]];
  }
  uint64_t count = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    count += db.lineitem.l_shipdate[i] > kDate19950315 &&
             order_ok[db.lineitem.l_orderkey[i]];
  }
  return count;
}

uint64_t ReferenceQ10(const TpchDb& db) {
  std::vector<uint8_t> order_ok(db.orders.num_rows, 0);
  for (size_t i = 0; i < db.orders.num_rows; ++i) {
    order_ok[i] = db.orders.o_orderdate[i] >= kDate19931001 &&
                  db.orders.o_orderdate[i] < kDate19940101;
  }
  uint64_t count = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    count += db.lineitem.l_returnflag[i] == kFlagR &&
             order_ok[db.lineitem.l_orderkey[i]];
  }
  return count;
}

uint64_t ReferenceQ12(const TpchDb& db) {
  uint64_t count = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    const uint8_t mode = db.lineitem.l_shipmode[i];
    count += (mode == kModeMail || mode == kModeShip) &&
             db.lineitem.l_commitdate[i] < db.lineitem.l_receiptdate[i] &&
             db.lineitem.l_shipdate[i] < db.lineitem.l_commitdate[i] &&
             db.lineitem.l_receiptdate[i] >= kDate19940101 &&
             db.lineitem.l_receiptdate[i] < kDate19950101;
  }
  return count;
}

uint64_t ReferenceQ19(const TpchDb& db) {
  uint64_t count = 0;
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    const uint8_t mode = db.lineitem.l_shipmode[i];
    if ((mode != kModeAir && mode != kModeRegAir) ||
        db.lineitem.l_shipinstruct[i] != kInstrDeliverInPerson) {
      continue;
    }
    const uint32_t part = db.lineitem.l_partkey[i];
    const uint32_t qty = db.lineitem.l_quantity[i];
    for (const Q19Branch& br : kQ19Branches) {
      if (db.part.p_brand[part] == br.brand &&
          ((br.container_mask >> db.part.p_container[part]) & 1u) != 0 &&
          qty >= br.qty_lo && qty <= br.qty_hi &&
          db.part.p_size[part] >= 1 && db.part.p_size[part] <= br.size_hi) {
        ++count;
        break;  // branches are brand-disjoint; at most one can match
      }
    }
  }
  return count;
}

}  // namespace sgxb::tpch
