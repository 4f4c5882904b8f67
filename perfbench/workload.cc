#include "workload.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "core/modeling.h"
#include "mem/enclave_resource.h"
#include "stats.h"
#include "tpch/tpch_gen.h"

namespace perfbench {

namespace {

// The 9-slot cycle each client shuffles. The weights give the short
// queries enough samples for a tail; at the default scale factor every
// query completes at least 200 times in a 30 s run.
constexpr std::array<int, 9> kCycle = {6, 6, 6, 1, 1, 1, 12, 12, 3};

// Static enclave: committed at build time, no EDMM growth afterwards.
constexpr size_t kEnclaveHeapBytes = 4ull << 30;

// Logical bytes of the generated columns (what the paged pool is sized
// against).
size_t DatasetBytes(const tpch::TpchDb& db) {
  return db.customer.num_rows * (4 + 1) + db.orders.num_rows * (3 * 4 + 1) +
         db.lineitem.num_rows * (8 * 4 + 4 * 1) +
         db.part.num_rows * (2 * 4 + 2);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t lane) {
  uint64_t state = seed * 0x100000001b3ull ^ (stream << 20) ^ lane;
  return SplitMix64(state);
}

// Phase kinds: 0 = filter (filters, refinements, gathers), 1 = join
// (hash builds and probes, "join_*" operators and fused build/probe
// pipelines), 2 = aggregate (fused "sum"/"group" pipelines, aggregations).
int PhaseKind(const std::string& name) {
  auto has = [&](const char* s) { return name.find(s) != std::string::npos; };
  if (has("sum") || has("group") || has("agg")) return 2;
  if (has("join") || has("build") || has("probe")) return 1;
  return 0;
}

bool AnswerMatches(int query, const tpch::QueryResult& r,
                   const Oracle& oracle, bool writes_live) {
  switch (query) {
    case 6:
      return writes_live || (!r.group_counts.empty() &&
                             r.group_counts[0] == oracle.q6_revenue);
    case 1:
      return r.group_counts == oracle.q1_counts;
    case 12:
      return r.count == oracle.q12_count;
    case 3:
      return writes_live || r.count == oracle.q3_count;
  }
  return false;
}

// Chunks of the updatable columns at the reference's chunk size, over
// kCommitsPerTick: with one reference step per tick, each of its chunks
// is revisited as often as a commit's chunk is.
size_t ReferenceChunks(const txn::VersionedTpchDb& vdb) {
  size_t chunks = 0;
  for (int c = 0; c < txn::kNumUpdateColumns; ++c) {
    const size_t rows = vdb.RowsFor(static_cast<txn::UpdateColumn>(c));
    chunks += (rows + CommitReference::kChunkRows - 1) /
              CommitReference::kChunkRows;
  }
  return chunks / kCommitsPerTick;
}

// The benchmark's own open-loop writer: kCommitsPerTick single-row
// commits every tick, rows by seeded Zipf, columns in rotation, values
// from each column's generated domain. Given a `reference`, each tick
// also runs one step of it, at a position among the commits that
// rotates from tick to tick, so the steps meet the caches as the
// commits do.
class CommitWriter {
 public:
  CommitWriter(txn::VersionedTpchDb* vdb, uint64_t seed,
               CommitReference* reference = nullptr)
      : vdb_(vdb), seed_(seed), reference_(reference) {}

  /// Commits before `timed_from_ns` (a NowNs() value) are logged but
  /// their latency is not recorded.
  void Start(uint64_t timed_from_ns = 0) {
    timed_from_ns_ = timed_from_ns;
    thread_ = std::thread([this] { Loop(); });
  }

  /// \brief Blocks until the writer has finished its current tick and
  /// sleeps (while the host reference runs). The ticks it misses are
  /// neither made up nor counted.
  void Pause() {
    std::unique_lock<std::mutex> lock(mu_);
    pause_ = true;
    cv_.wait(lock, [&] { return parked_; });
  }

  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    pause_ = false;
    cv_.notify_all();
  }

  WriterResult Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
      cv_.notify_all();
    }
    thread_.join();
    result_.stats = vdb_->stats();
    return std::move(result_);
  }

 private:
  txn::UpdateOp NextOp(ZipfGenerator& zipf, Xoshiro256& rng,
                       uint64_t key_space) {
    txn::UpdateOp op;
    op.column = static_cast<txn::UpdateColumn>(result_.attempted %
                                               txn::kNumUpdateColumns);
    // Fibonacci scramble: hot ranks stay hot but land in unrelated
    // version chunks.
    const uint64_t key = (zipf.Next() * 0x9e3779b97f4a7c15ull) % key_space;
    op.row = key % vdb_->RowsFor(op.column);
    switch (op.column) {
      case txn::UpdateColumn::kLQuantity:
        op.value = 1 + static_cast<uint32_t>(rng.NextBounded(50));
        break;
      case txn::UpdateColumn::kLExtendedPrice:
        // quantity (1..50) x unit price (900.00..2000.00) / 100
        op.value = 900 + static_cast<uint32_t>(rng.NextBounded(99101));
        break;
      case txn::UpdateColumn::kLDiscount:
        op.value = static_cast<uint32_t>(rng.NextBounded(11));
        break;
      case txn::UpdateColumn::kOOrderDate:
        op.value =
            static_cast<uint32_t>(rng.NextBounded(tpch::kDate19980802 + 1));
        break;
    }
    return op;
  }

  void Loop() {
    uint64_t state = seed_;
    const uint64_t key_space = std::max<uint64_t>(1, vdb_->lineitem_rows());
    ZipfGenerator zipf(key_space, kZipfTheta, SplitMix64(state));
    Xoshiro256 rng(SplitMix64(state));
    const auto tick = std::chrono::microseconds(kTickUs);
    auto next = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (pause_) {
          parked_ = true;
          cv_.notify_all();
          cv_.wait(lock, [&] { return !pause_ || stop_.load(); });
          parked_ = false;
          next = std::chrono::steady_clock::now();
          continue;
        }
      }
      std::this_thread::sleep_until(next);
      if (std::chrono::steady_clock::now() - next > tick) {
        ++result_.late_ticks;
      }
      // One slot per commit, plus one for the reference step if any.
      const int slots = kCommitsPerTick + (reference_ != nullptr ? 1 : 0);
      const int reference_at =
          reference_ != nullptr ? static_cast<int>(result_.ticks % slots) : -1;
      ++result_.ticks;
      for (int i = 0; i < slots; ++i) {
        if (i == reference_at) {
          const uint64_t begin = NowNs();
          const double ns = reference_->StepNs();
          if (begin >= timed_from_ns_) {
            result_.step_ns.push_back(ns);
            result_.step_end_ns.push_back(NowNs());
          }
          continue;
        }
        const txn::UpdateOp op = NextOp(zipf, rng, key_space);
        ++result_.attempted;
        const uint64_t begin = NowNs();
        const Status s = vdb_->Commit(op);
        const uint64_t end = NowNs();
        if (s.ok()) {
          if (begin >= timed_from_ns_) {
            result_.commit_ns.push_back(static_cast<double>(end - begin));
            result_.commit_end_ns.push_back(end);
          }
          result_.log.push_back(op);
        } else {
          ++result_.failed;
        }
      }
      next += tick;
    }
  }

  txn::VersionedTpchDb* vdb_;
  uint64_t seed_;
  CommitReference* reference_;
  uint64_t timed_from_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool pause_ = false;   ///< guarded by mu_
  bool parked_ = false;  ///< guarded by mu_
  std::atomic<bool> stop_{false};
  WriterResult result_;
  std::thread thread_;
};


// Opens and closes the clients' serving windows. A client checks IsOpen()
// before each request and parks once the window has ended; the main
// thread waits until every client is parked, so nothing is in flight
// while it measures the host reference.
class WindowGate {
 public:
  /// \brief Main thread: opens the next window, `ns` long.
  void Open(uint64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    end_ns_.store(NowNs() + ns);
    ++window_;
    parked_ = 0;
    cv_.notify_all();
  }

  /// \brief Main thread: blocks until `clients` clients are parked.
  void AwaitParked(int clients) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ == clients; });
  }

  /// \brief Main thread: releases the parked clients for good.
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

  bool IsOpen() const { return NowNs() < end_ns_.load(); }

  /// \brief Client: parks until the next window opens; false once the
  /// mix is over.
  bool Park() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t window = window_;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return done_ || window_ != window; });
    return !done_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<uint64_t> end_ns_{0};
  uint64_t window_ = 0;  ///< guarded by mu_
  int parked_ = 0;       ///< guarded by mu_
  bool done_ = false;    ///< guarded by mu_
};

}  // namespace

std::pair<uint64_t, uint64_t> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

double StealShare(std::pair<uint64_t, uint64_t> before,
                  std::pair<uint64_t, uint64_t> after) {
  const uint64_t total = after.second - before.second;
  return total > 0 ? static_cast<double>(after.first - before.first) /
                         static_cast<double>(total)
                   : 0;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "resident") {
    *out = Workload::kResident;
  } else if (name == "paged") {
    *out = Workload::kPaged;
  } else if (name == "htap") {
    *out = Workload::kHtap;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kResident:
      return "resident";
    case Workload::kPaged:
      return "paged";
    case Workload::kHtap:
      return "htap";
  }
  return "?";
}

Oracle ComputeOracle(const tpch::TpchDb& db) {
  Oracle o;
  o.q6_revenue = tpch::ReferenceQ6(db);
  o.q12_count = tpch::ReferenceQ12(db);
  o.q3_count = tpch::ReferenceQ3(db);
  o.q1_counts = tpch::ReferenceQ1Counts(db);
  return o;
}

Result<std::unique_ptr<Fixture>> Fixture::Build(const BenchOptions& opt) {
  std::unique_ptr<Fixture> fx(new Fixture());

  sgx::EnclaveConfig ec;
  ec.initial_heap_bytes = kEnclaveHeapBytes;
  ec.dynamic = false;
  ec.name = "perfbench";
  SGXB_ASSIGN_OR_RETURN(fx->enclave_, sgx::Enclave::Create(ec));
  mem::MemoryResource* trusted = mem::ForEnclave(fx->enclave_);

  tpch::GenConfig gen;
  gen.scale_factor = opt.scale_factor;
  gen.seed = opt.seed;
  // Resident and htap keep the base tables in the enclave; the paged
  // workload generates into untrusted memory and serves from the spill.
  if (opt.workload != Workload::kPaged) gen.resource = trusted;
  SGXB_ASSIGN_OR_RETURN(fx->db_, tpch::Generate(gen));

  serve::ServerOptions so;
  so.max_inflight = kClients;
  so.worker_share = kGangThreads;
  txn::TxnOptions txn_opts;
  txn_opts.resource = trusted;

  switch (opt.workload) {
    case Workload::kResident:
      fx->server_ = std::make_unique<serve::QueryServer>(fx->db_, so);
      break;
    case Workload::kPaged: {
      storage::BufferManager::Config bc;
      bc.buffer_bytes = std::max(
          kPagedPoolMinBytes,
          static_cast<size_t>(kPagedPoolShare *
                              static_cast<double>(DatasetBytes(fx->db_))));
      bc.trusted = trusted;
      fx->bm_ = std::make_unique<storage::BufferManager>(bc);
      SGXB_ASSIGN_OR_RETURN(fx->paged_,
                            tpch::PagedTpchDb::Build(fx->db_, fx->bm_.get()));
      fx->vdb_ = std::make_unique<txn::VersionedTpchDb>(fx->paged_->View(),
                                                        txn_opts);
      fx->server_ = std::make_unique<serve::QueryServer>(*fx->vdb_, so);
      break;
    }
    case Workload::kHtap:
      fx->vdb_ = std::make_unique<txn::VersionedTpchDb>(fx->db_, txn_opts);
      fx->server_ = std::make_unique<serve::QueryServer>(*fx->vdb_, so);
      break;
  }
  return fx;
}

Fixture::~Fixture() {
  server_.reset();
  vdb_.reset();
  paged_.reset();
  bm_.reset();
  db_ = tpch::TpchDb();
  sgx::DestroyEnclave(enclave_);
}

tpch::TpchDbView Fixture::BaseView() const {
  return paged_.has_value() ? paged_->View() : tpch::ViewOf(db_);
}

tpch::QueryConfig Fixture::RequestConfig() const {
  tpch::QueryConfig c;
  c.num_threads = kGangThreads;
  c.setting = ExecutionSetting::kSgxDataInEnclave;
  c.enclave = enclave_;
  return c;
}

void Fixture::StopServing() {
  if (server_) server_->Shutdown();
}

void Fixture::AddVersioning() {
  txn::TxnOptions txn_opts;
  txn_opts.resource = mem::ForEnclave(enclave_);
  vdb_ = std::make_unique<txn::VersionedTpchDb>(db_, txn_opts);
}

Status Fixture::DropVersioning() {
  StopServing();
  server_.reset();
  if (vdb_) SGXB_RETURN_NOT_OK(vdb_->Drain());
  vdb_.reset();
  return Status::OK();
}

MixResult RunMix(Fixture& fx, const Oracle& oracle, const BenchOptions& opt,
                 double seconds, int cycles, bool with_writer,
                 uint64_t stream, HostReference* ref) {
  MixResult out;
  std::mutex mu;
  std::atomic<uint64_t> next_id{0};
  const bool writes_live = with_writer;
  const tpch::QueryConfig config = fx.RequestConfig();
  WindowGate gate;

  std::unique_ptr<CommitWriter> writer;
  if (with_writer) {
    writer = std::make_unique<CommitWriter>(fx.vdb(),
                                            StreamSeed(opt.seed, stream, 99));
    writer->Start();
  }

  auto client = [&](int c) {
    Xoshiro256 rng(StreamSeed(opt.seed, stream, static_cast<uint64_t>(c)));
    std::vector<Completion> local;
    uint64_t attempted = 0, failed = 0;
    std::array<int, 9> order = kCycle;
    size_t slot = order.size();
    int cycles_done = 0;
    // The next query of this client's walk; 0 once `cycles` are done.
    auto next_query = [&]() -> int {
      if (slot == order.size()) {
        if (cycles > 0 && cycles_done == cycles) return 0;
        ++cycles_done;
        for (size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.NextBounded(i + 1)]);
        }
        slot = 0;
      }
      return order[slot++];
    };
    while (gate.Park()) {
      int q = 0;
      while (gate.IsOpen() && (q = next_query()) != 0) {
        serve::QueryRequest req;
        req.query_number = q;
        req.config = config;
        ++attempted;
        const uint64_t begin = NowNs();
        serve::QueryResponse r = fx.server().Submit(std::move(req)).get();
        const uint64_t end = NowNs();

        Completion cp;
        cp.query = q;
        cp.client = c;
        cp.total_ns = static_cast<double>(end - begin);
        cp.end_ns = end;
        cp.queue_ns = r.queue_ns;
        cp.exec_ns = r.exec_ns;
        cp.granted_threads = r.granted_threads;
        cp.ok = r.status.ok() &&
                AnswerMatches(q, r.result, oracle, writes_live);
        if (!cp.ok) {
          ++failed;
          if (failed <= 3) {
            std::fprintf(stderr, "perfbench: Q%d %s\n", q,
                         r.status.ok() ? "answer mismatch"
                                       : r.status.ToString().c_str());
          }
          continue;
        }
        cp.model_sgx_ns = core::ModeledReferenceNs(
            r.result.phases, ExecutionSetting::kSgxDataInEnclave, false, 16);
        cp.model_plain_ns = core::ModeledReferenceNs(
            r.result.phases, ExecutionSetting::kPlainCpu, false, 16);
        for (const perf::PhaseStats& ph : r.result.phases.phases) {
          cp.phase_ns[PhaseKind(ph.name)] += ph.host_ns;
        }
        cp.report = std::move(r.result.report);
        cp.report.phases.clear();
        local.push_back(std::move(cp));

        if (Spans().enabled()) {
          Span s;
          s.name = "Q" + std::to_string(q);
          s.id = next_id.fetch_add(1, std::memory_order_relaxed);
          s.client = c;
          s.begin_ns = begin;
          s.dispatch_ns = begin + static_cast<uint64_t>(r.queue_ns);
          s.end_ns = end;
          Spans().Add(std::move(s));
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    out.attempted += attempted;
    out.failed += failed;
    for (Completion& cp : local) out.completions.push_back(std::move(cp));
  };

  auto measure_reference = [&]() -> double {
    if (ref == nullptr) return 0;
    if (writer) writer->Pause();
    const double ns = ref->MeasureNs();
    if (writer) writer->Resume();
    return ns;
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  gate.AwaitParked(kClients);
  // The warm-up pass is one window that lasts until every client has
  // walked its cycles.
  const int windows =
      cycles > 0
          ? 1
          : std::max(1, static_cast<int>(seconds / kWindowSeconds + 0.5));
  const uint64_t window_ns =
      cycles > 0 ? UINT64_MAX / 2
                 : static_cast<uint64_t>(seconds * 1e9 / windows);
  for (int w = 0; w < windows; ++w) {
    Window win;
    win.reference_ns = measure_reference();
    const auto ticks = CpuTicks();
    win.begin_ns = NowNs();
    gate.Open(window_ns);
    gate.AwaitParked(kClients);
    win.end_ns = NowNs();
    win.steal = StealShare(ticks, CpuTicks());
    if (cycles == 0) out.windows.push_back(win);
  }
  gate.Finish();
  for (std::thread& t : clients) t.join();
  if (writer) out.writer = writer->Stop();
  return out;
}

WriterResult RunSoloWriter(txn::VersionedTpchDb* vdb, const BenchOptions& opt,
                           uint64_t stream) {
  CommitReference reference(ReferenceChunks(*vdb));
  CommitWriter writer(vdb, StreamSeed(opt.seed, stream, 99), &reference);
  const uint64_t timed_from =
      NowNs() + static_cast<uint64_t>(kSoloWarmupSeconds * 1e9);
  writer.Start(timed_from);
  std::vector<Window> windows;
  const auto window = std::chrono::duration<double>(kSoloWindowSeconds);
  auto next = std::chrono::steady_clock::now() +
              std::chrono::duration<double>(kSoloWarmupSeconds);
  std::this_thread::sleep_until(next);
  for (int w = 0; w < static_cast<int>(kSoloCommitSeconds / kSoloWindowSeconds);
       ++w) {
    Window win;
    const auto ticks = CpuTicks();
    win.begin_ns = NowNs();
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        window);
    std::this_thread::sleep_until(next);
    win.end_ns = NowNs();
    win.steal = StealShare(ticks, CpuTicks());
    windows.push_back(win);
  }
  WriterResult result = writer.Stop();
  result.windows = std::move(windows);
  return result;
}

uint64_t CheckAfterWrites(Fixture& fx, const std::vector<txn::UpdateOp>& log,
                          uint64_t* attempted) {
  uint64_t revenue = 0, q3 = 0;
  uint64_t failed = 0;
  *attempted += 2;
  {
    auto snap = fx.vdb()->OpenSnapshot();
    if (!snap.ok()) return 2;
    const tpch::QueryConfig config = fx.RequestConfig();
    auto r6 = tpch::RunQuery(6, snap.value().view(), config);
    auto r3 = tpch::RunQuery(3, snap.value().view(), config);
    if (r6.ok() && !r6.value().group_counts.empty()) {
      revenue = r6.value().group_counts[0];
    } else {
      ++failed;
    }
    if (r3.ok()) {
      q3 = r3.value().count;
    } else {
      ++failed;
    }
  }
  if (!fx.DropVersioning().ok()) return 2;

  // Replay the commit log over the base (the paged workload's base is its
  // untrusted source copy) and evaluate the references on the result.
  tpch::TpchDb& db = fx.db();
  for (const txn::UpdateOp& op : log) {
    switch (op.column) {
      case txn::UpdateColumn::kLQuantity:
        db.lineitem.l_quantity[op.row] = op.value;
        break;
      case txn::UpdateColumn::kLExtendedPrice:
        db.lineitem.l_extendedprice[op.row] = op.value;
        break;
      case txn::UpdateColumn::kLDiscount:
        db.lineitem.l_discount[op.row] = op.value;
        break;
      case txn::UpdateColumn::kOOrderDate:
        db.orders.o_orderdate[op.row] = op.value;
        break;
    }
  }
  const uint64_t want6 = tpch::ReferenceQ6(db);
  const uint64_t want3 = tpch::ReferenceQ3(db);
  if (failed == 0) {
    if (revenue != want6) {
      ++failed;
      std::fprintf(stderr, "perfbench: Q6 after writes %llu != %llu\n",
                   static_cast<unsigned long long>(revenue),
                   static_cast<unsigned long long>(want6));
    }
    if (q3 != want3) {
      ++failed;
      std::fprintf(stderr, "perfbench: Q3 after writes %llu != %llu\n",
                   static_cast<unsigned long long>(q3),
                   static_cast<unsigned long long>(want3));
    }
  }
  return failed;
}

}  // namespace perfbench
