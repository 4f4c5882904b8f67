#include "probes.h"

#include <cstring>
#include <functional>

#include "common/random.h"
#include "exec/executor.h"
#include "join/data_gen.h"
#include "join/pht_join.h"
#include "join/rho_join.h"
#include "mem/enclave_resource.h"
#include "obs/query_report.h"
#include "scan/column_scan.h"
#include "sgx/mee.h"
#include "sgx/transition.h"
#include "storage/partition_codec.h"
#include "tpch/operators.h"

namespace perfbench {

namespace {

constexpr int kBatches = 15;  // probe calls per metric; the median is kept

// Median over kBatches probe calls of the per-operation time of `op`
// repeated `per_batch` times, in microseconds.
double MedianOpUs(const std::string& name, int per_batch,
                  const std::function<void()>& op) {
  std::vector<double> us;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t ns = TimedProbe(name, [&] {
      for (int i = 0; i < per_batch; ++i) op();
    });
    us.push_back(static_cast<double>(ns) / 1e3 / per_batch);
  }
  return Median(us);
}

// Median rate in GB/s of `bytes` processed per call of `fn`, which returns
// its own elapsed ns (kernel-reported time where the layer has one).
double MedianGbps(const std::string& name, int calls, double bytes,
                  const std::function<Result<double>()>& fn, Status* status) {
  std::vector<double> gbps;
  for (int c = 0; c < calls && status->ok(); ++c) {
    Result<double> ns = 0.0;
    TimedProbe(name, [&] { ns = fn(); });
    if (!ns.ok()) {
      *status = ns.status();
      break;
    }
    gbps.push_back(bytes / ns.value());
  }
  return Median(gbps);
}

struct Q3Sizes {
  size_t build = 0;  ///< qualifying orders of BUILDING customers
  size_t probe = 0;  ///< lineitems shipped after 1995-03-15
};

Q3Sizes MeasureQ3Sizes(const tpch::TpchDb& db) {
  Q3Sizes s;
  for (size_t i = 0; i < db.orders.num_rows; ++i) {
    s.build += db.orders.o_orderdate[i] < tpch::kDate19950315 &&
               db.customer.c_mktsegment[db.orders.o_custkey[i]] ==
                   tpch::kSegBuilding;
  }
  for (size_t i = 0; i < db.lineitem.num_rows; ++i) {
    s.probe += db.lineitem.l_shipdate[i] > tpch::kDate19950315;
  }
  return s;
}

Status JoinProbes(Fixture& fx, MetricList* out) {
  const Q3Sizes q3 = MeasureQ3Sizes(fx.db());
  SGXB_ASSIGN_OR_RETURN(
      Relation build,
      join::GenerateBuildRelation(q3.build, MemoryRegion::kEnclave, 42));
  SGXB_ASSIGN_OR_RETURN(
      Relation probe, join::GenerateProbeRelation(q3.probe, q3.build,
                                                  MemoryRegion::kEnclave, 43));
  join::JoinConfig jc;
  jc.num_threads = kGangThreads;
  jc.flavor = KernelFlavor::kUnrolledReordered;
  jc.setting = ExecutionSetting::kSgxDataInEnclave;
  jc.enclave = fx.enclave();

  const std::pair<exec::ProbeMode, const char*> modes[] = {
      {exec::ProbeMode::kTupleAtATime, "tuple"},
      {exec::ProbeMode::kGroupPrefetch, "gp"},
      {exec::ProbeMode::kAmac, "amac"}};
  for (const auto& [mode, label] : modes) {
    jc.probe_mode = mode;
    std::vector<double> ns_per_probe;
    for (int rep = 0; rep < 5; ++rep) {
      Result<join::JoinResult> r = Status::Internal("not run");
      TimedProbe(std::string("join.pht.") + label,
                 [&] { r = join::PhtJoin(build, probe, jc); });
      SGXB_RETURN_NOT_OK(r.status());
      const perf::PhaseStats* ph = r.value().phases.Find("probe");
      if (ph == nullptr) return Status::Internal("PHT reported no probe phase");
      ns_per_probe.push_back(ph->host_ns / static_cast<double>(q3.probe));
    }
    out->Add(std::string("join.pht_probe_ns.") + label, Median(ns_per_probe),
             "ns");
  }

  jc.probe_mode.reset();
  std::vector<double> rho_ns;
  for (int rep = 0; rep < 5; ++rep) {
    Result<join::JoinResult> r = Status::Internal("not run");
    TimedProbe("join.rho", [&] { r = join::RhoJoin(build, probe, jc); });
    SGXB_RETURN_NOT_OK(r.status());
    rho_ns.push_back(r.value().host_ns /
                     static_cast<double>(q3.build + q3.probe));
  }
  out->Add("join.rho_ns_per_tuple", Median(rho_ns), "ns");
  return Status::OK();
}

Status StorageProbes(Fixture& fx, MetricList* out) {
  Status status = Status::OK();
  const Column<uint32_t>& price = fx.db().lineitem.l_extendedprice;

  // Cold reload sweep: a pool of a few partitions, no prefetch, so every
  // Pin decrypts and decodes.
  storage::BufferManager::Config bc;
  bc.buffer_bytes = 8 * bc.partition_rows * sizeof(uint32_t);
  bc.prefetch = false;
  bc.trusted = mem::ForEnclave(fx.enclave());
  storage::BufferManager bm(bc);
  SGXB_ASSIGN_OR_RETURN(storage::PagedColumn<uint32_t> * col,
                        bm.AddColumn("l_extendedprice", price));
  const double col_bytes = static_cast<double>(price.num_values() * 4);
  out->Add("storage.reload_gbps",
           MedianGbps("storage.reload", 5, col_bytes, [&]() -> Result<double> {
             const uint64_t begin = NowNs();
             for (size_t p = 0; p < col->num_partitions(); ++p) {
               SGXB_RETURN_NOT_OK(bm.Pin(col, p).status());
               bm.Unpin(col, p);
             }
             return static_cast<double>(NowNs() - begin);
           }, &status),
           "GB/s");
  out->Add("storage.compression_ratio", bm.stats().CompressionRatio(), "x");

  // Decode throughput per codec on one partition-sized image each.
  const size_t n = std::min<size_t>(bc.partition_rows, price.num_values());
  std::vector<uint32_t> dict_values(n);
  Xoshiro256 rng(7);
  std::vector<uint32_t> domain(64);
  for (uint32_t& v : domain) v = rng.Next32();
  for (uint32_t& v : dict_values) v = domain[rng.NextBounded(domain.size())];

  struct Codec {
    const char* label;
    const void* values;
    bool compress;
    storage::Encoding want;
  };
  const Codec codecs[] = {
      {"raw", price.data(), false, storage::Encoding::kRaw},
      {"for", price.data(), true, storage::Encoding::kForPacked},
      {"dict", dict_values.data(), true, storage::Encoding::kDict}};
  std::vector<uint32_t> decoded(n);
  for (const Codec& c : codecs) {
    SGXB_ASSIGN_OR_RETURN(storage::PartitionImage image,
                          storage::EncodePartition(c.values, n, 4, c.compress));
    if (image.encoding != c.want) {
      return Status::Internal(std::string("codec probe ") + c.label +
                             " chose " + storage::EncodingName(image.encoding));
    }
    const auto* payload = static_cast<const uint8_t*>(image.payload.data());
    constexpr int kDecodes = 50;
    out->Add(std::string("storage.decode_gbps.") + c.label,
             MedianGbps(std::string("storage.decode.") + c.label, kBatches,
                        static_cast<double>(image.decoded_bytes()) * kDecodes,
                        [&]() -> Result<double> {
                          const uint64_t begin = NowNs();
                          for (int i = 0; i < kDecodes; ++i) {
                            SGXB_RETURN_NOT_OK(storage::DecodePartition(
                                image, payload, decoded.data()));
                          }
                          return static_cast<double>(NowNs() - begin);
                        }, &status),
             "GB/s");
    if (std::memcmp(decoded.data(), c.values, n * 4) != 0) {
      return Status::Internal(std::string("codec probe ") + c.label +
                             " decoded wrong values");
    }
  }
  return status;
}

}  // namespace

Status RunProbes(Fixture& fx, MetricList* out) {
  Status status = Status::OK();
  const tpch::QueryConfig config = fx.RequestConfig();
  const tpch::TpchDbView base = fx.BaseView();
  const size_t rows = base.lineitem.num_rows;

  // exec: an empty gang round trip at the requests' gang width.
  exec::Executor& ex = exec::Executor::Default();
  out->Add("exec.gang_us", MedianOpUs("exec.gang", 100, [&] {
             const Status s =
                 ex.RunGang(kGangThreads, [](int) { return Status::OK(); });
             if (!s.ok()) status = s;
           }),
           "us");

  // tpch: the u32 range filter on l_shipdate with Q6's range, over the
  // workload's base (resident or paged).
  out->Add("tpch.filter_u32_gbps",
           MedianGbps("tpch.filter_u32", kBatches,
                      static_cast<double>(rows * 4),
                      [&]() -> Result<double> {
                        tpch::OpRecorder rec;
                        const uint64_t begin = NowNs();
                        SGXB_RETURN_NOT_OK(
                            tpch::FilterU32Range(base.lineitem.l_shipdate,
                                                 tpch::kDate19940101,
                                                 tpch::kDate19950101 - 1,
                                                 config, &rec, "probe")
                                .status());
                        return static_cast<double>(NowNs() - begin);
                      }, &status),
           "GB/s");

  // scan: the row-id kernel over l_shipmode, Q12's MAIL code.
  const Column<uint8_t>& shipmode = fx.db().lineitem.l_shipmode;
  std::vector<uint64_t> ids(shipmode.num_values());
  scan::ScanConfig sc;
  sc.lo = sc.hi = tpch::kModeMail;
  sc.num_threads = kGangThreads;
  sc.setting = ExecutionSetting::kSgxDataInEnclave;
  out->Add("scan.rowid_u8_gbps",
           MedianGbps("scan.rowid_u8", kBatches,
                      static_cast<double>(shipmode.num_values()),
                      [&]() -> Result<double> {
                        uint64_t count = 0;
                        SGXB_ASSIGN_OR_RETURN(
                            scan::ScanResult r,
                            scan::RunRowIdScan(shipmode, ids.data(), &count,
                                               sc));
                        return r.host_ns;
                      }, &status),
           "GB/s");
  SGXB_RETURN_NOT_OK(status);

  SGXB_RETURN_NOT_OK(JoinProbes(fx, out));
  SGXB_RETURN_NOT_OK(StorageProbes(fx, out));

  // sgx: one ECALL round trip, and the MEE over 1 MiB.
  out->Add("sgx.ecall_us", MedianOpUs("sgx.ecall", 100, [] {
             sgx::EnclaveEnter();
             sgx::EnclaveExit();
           }),
           "us");
  std::vector<uint8_t> block(1 << 20, 0x5a);
  const sgx::MemoryEncryptionEngine mee;
  out->Add("sgx.mee_gbps",
           MedianGbps("sgx.mee", kBatches,
                      static_cast<double>(block.size()) * 8,
                      [&]() -> Result<double> {
                        const uint64_t begin = NowNs();
                        for (int i = 0; i < 8; ++i) {
                          mee.Decrypt(block.data(), block.size());
                        }
                        return static_cast<double>(NowNs() - begin);
                      }, &status),
           "GB/s");

  // txn: pin and release a snapshot.
  txn::VersionedTpchDb* vdb = fx.vdb();
  out->Add("txn.snapshot_us", MedianOpUs("txn.snapshot", 100, [&] {
             auto snap = vdb->OpenSnapshot();
             if (!snap.ok()) status = snap.status();
           }),
           "us");

  // obs: a report scope around no work.
  out->Add("obs.report_us", MedianOpUs("obs.report", 100, [] {
             obs::QueryReportScope scope("probe");
             (void)scope.Finish();
           }),
           "us");
  return status;
}

}  // namespace perfbench
