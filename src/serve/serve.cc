#include "serve/serve.h"

#include <algorithm>
#include <utility>

#include "exec/executor.h"
#include "mem/arena_pool.h"
#include "obs/metrics.h"
#include "obs/query_report.h"

namespace sgxb::serve {

namespace {

int ClampInflight(int n) {
  return std::clamp(n, 1, obs::kMaxMetricDomains);
}

}  // namespace

// --- AdmissionQueue -----------------------------------------------------

AdmissionQueue::AdmissionQueue(int max_queue)
    : max_queue_(std::max(1, max_queue)) {}

bool AdmissionQueue::Push(Ticket&& ticket) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || static_cast<int>(queue_.size()) >= max_queue_) {
      return false;
    }
    queue_.emplace(std::make_pair(-ticket.request.priority, seq_++),
                   std::move(ticket));
  }
  cv_.notify_one();
  return true;
}

bool AdmissionQueue::Pop(Ticket* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // closed and drained
  auto it = queue_.begin();
  *out = std::move(it->second);
  queue_.erase(it);
  return true;
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

int AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

// --- QueryServer --------------------------------------------------------

QueryServer::QueryServer(const tpch::TpchDb& db, ServerOptions options)
    : db_(&db), options_(options), queue_(options.max_queue) {
  StartRunners();
}

QueryServer::QueryServer(txn::VersionedTpchDb& vdb, ServerOptions options)
    : vdb_(&vdb), options_(options), queue_(options.max_queue) {
  StartRunners();
}

void QueryServer::StartRunners() {
  options_.max_inflight = ClampInflight(options_.max_inflight);
  exec::Executor& ex = exec::Executor::Default();
  // Prewarm to full capacity up front: otherwise the pool is sized by the
  // first (possibly single-threaded) query and every later gang grows it
  // under the dispatch lock mid-burst.
  ex.EnsurePoolSize(exec::Executor::DefaultParallelism());
  saved_worker_cap_ = ex.max_workers_per_gang();
  if (options_.worker_share > 0) {
    ex.SetMaxWorkersPerGang(options_.worker_share);
  }
  runners_.reserve(options_.max_inflight);
  for (int i = 0; i < options_.max_inflight; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Runners drain what is already queued, then exit.
  queue_.Close();
  for (std::thread& t : runners_) {
    if (t.joinable()) t.join();
  }
  exec::Executor::Default().SetMaxWorkersPerGang(saved_worker_cap_);
}

std::future<QueryResponse> QueryServer::Submit(QueryRequest request) {
  AdmissionQueue::Ticket ticket;
  ticket.request = std::move(request);
  std::future<QueryResponse> future = ticket.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    if (shutdown_) {
      ++stats_.rejected_queue_full;
      QueryResponse r;
      r.status = Status::ResourceExhausted("server is shut down");
      ticket.promise.set_value(std::move(r));
      return future;
    }
  }
  if (!queue_.Push(std::move(ticket))) {
    // Push only moves from the ticket on success, so the promise is
    // still intact here.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_queue_full;
    QueryResponse r;
    r.status = Status::ResourceExhausted("serve queue full");
    ticket.promise.set_value(std::move(r));
  }
  return future;
}

void QueryServer::RunnerLoop() {
  AdmissionQueue::Ticket ticket;
  while (queue_.Pop(&ticket)) {
    Execute(std::move(ticket));
    ticket = AdmissionQueue::Ticket();
  }
}

void QueryServer::Execute(AdmissionQueue::Ticket ticket) {
  QueryResponse response;
  response.queue_ns = static_cast<double>(ticket.queued.ElapsedNanos());

  const QueryRequest& req = ticket.request;
  if (req.deadline_ms > 0 &&
      response.queue_ns > req.deadline_ms * 1e6) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_deadline;
    response.status =
        Status::ResourceExhausted("deadline expired while queued");
    ticket.promise.set_value(std::move(response));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.inflight;
  }

  exec::Executor& ex = exec::Executor::Default();
  obs::Registry& registry = obs::Registry::Global();
  // Everything this query needs exclusively: an attribution domain for
  // its report (max_inflight <= kMaxMetricDomains, so a free domain
  // always exists unless an outside caller is holding some — then the
  // query runs unattributed rather than failing) and a chunk pool whose
  // accounting is entirely this query's own.
  const int domain = registry.AcquireDomain();
  response.obs_domain = domain;

  tpch::QueryConfig config = req.config;
  config.obs_domain = domain;
  mem::ArenaPool pool(tpch::EffectiveResource(config));
  config.arena_pool = &pool;

  // The request's thread count is a want, not a grant: share-aware sizing
  // keeps a heavy query from leasing the whole pool away from the cheap
  // ones behind it.
  const int want = config.num_threads > 0 ? config.num_threads
                                          : exec::Executor::DefaultParallelism();
  config.num_threads = ex.GrantedGangSize(want);
  response.granted_threads = config.num_threads;

  WallTimer exec_timer;
  Result<tpch::QueryResult> result = [&]() -> Result<tpch::QueryResult> {
    if (!req.updates.empty()) {
      // Update batch: commit in submission order under the db's commit
      // latch. The report window wraps the batch so the latch's
      // park/wake avalanche is attributed to this request's domain.
      if (vdb_ == nullptr) {
        return Status::InvalidArgument(
            "update batch submitted to a read-only server (construct "
            "QueryServer over a txn::VersionedTpchDb)");
      }
      obs::QueryReportScope scope("update_batch", domain);
      tpch::QueryResult r;
      {
        obs::ScopedMetricDomain attributed(domain);
        for (const txn::UpdateOp& op : req.updates) {
          SGXB_RETURN_NOT_OK(vdb_->Commit(op));
          ++r.count;
        }
      }
      r.report = scope.Finish();
      r.host_ns = r.report.wall_ns;
      return r;
    }
    if (vdb_ != nullptr) {
      // Snapshot serving: pin an epoch for the query's lifetime; the
      // view is a consistent cut no concurrent commit can disturb.
      auto snap = vdb_->OpenSnapshot();
      if (!snap.ok()) return snap.status();
      return req.plan != nullptr
                 ? tpch::RunPlan(*req.plan, snap.value().view(), config)
                 : tpch::RunQuery(req.query_number, snap.value().view(),
                                  config);
    }
    return req.plan != nullptr
               ? tpch::RunPlan(*req.plan, *db_, config)
               : tpch::RunQuery(req.query_number, *db_, config);
  }();
  response.exec_ns = static_cast<double>(exec_timer.ElapsedNanos());

  // Release per-query state before delivering: a client that reacts to
  // the future must observe the pool drained and the domain free.
  pool.Trim();
  if (domain >= 0) registry.ReleaseDomain(domain);

  if (result.ok()) {
    response.result = std::move(result).value();
  } else {
    response.status = result.status();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    --stats_.inflight;
    ++(response.status.ok() ? stats_.completed : stats_.failed);
  }
  ticket.promise.set_value(std::move(response));
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  s.queued = queue_.size();
  return s;
}

}  // namespace sgxb::serve
