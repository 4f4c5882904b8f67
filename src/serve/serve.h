// Multi-tenant query serving front-end (docs/serving.md).
//
// Everything below src/serve/ runs one query at a time; this layer is the
// piece the ROADMAP's serving-scale north star actually serves: a stream
// of query requests from many clients, admitted under a bound, scheduled
// fairly onto the shared executor pool, each with its own arena pool and
// its own correctly-attributed QueryReport.
//
// Shape:
//
//  * Submit() never blocks on query execution: it enqueues a ticket into
//    a bounded priority queue (priority descending, FIFO within a
//    priority, deadline checked at dispatch time) and returns a future.
//    A full queue rejects immediately — backpressure at the edge instead
//    of unbounded memory growth.
//  * A fixed set of runner threads (max_inflight, bounded by the obs
//    layer's kMaxMetricDomains so every in-flight query can have its own
//    attribution domain) pops tickets and runs them to completion. The
//    admission bound is the concurrency bound: at most max_inflight
//    queries touch the executor, the arenas, or the enclave at once.
//  * Fairness lives in the executor handoff: the server prewarms the pool
//    to the host's core count, applies ServerOptions::worker_share as a
//    hard per-gang cap, and sizes each admitted query's gang with
//    GrantedGangSize(), so one heavy Q3 leases a fair slice of workers —
//    not the whole pool — while a hundred cheap Q6s flow past it.
//  * Isolation per query: a fresh ArenaPool over the query's memory
//    resource (trimmed after the query, so chunk accounting balances)
//    and an obs attribution domain for the report window. The request's
//    QueryConfig is the query's whole configuration: nothing on the
//    query path reads the environment, so a served query plans and runs
//    exactly like a direct tpch::RunQuery with the same config.
//
// The server reads no environment: ServerOptions, passed by the caller, is
// its whole configuration.

#ifndef SGXB_SERVE_SERVE_H_
#define SGXB_SERVE_SERVE_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "tpch/queries.h"
#include "tpch/tpch_schema.h"
#include "txn/versioned_db.h"

namespace sgxb::serve {

/// \brief Serving configuration, set by the caller.
struct ServerOptions {
  /// Queries executing concurrently (= runner threads). Clamped to
  /// [1, obs::kMaxMetricDomains] so every in-flight query gets its own
  /// metrics attribution domain.
  int max_inflight = 8;
  /// Hard cap on any one query's worker-gang width while the server is
  /// alive (0 = no hard cap; fair-share sizing still applies). Forwarded
  /// to exec::Executor::SetMaxWorkersPerGang.
  int worker_share = 0;
  /// Tickets waiting for a runner before Submit() rejects. Bounds memory
  /// under overload; rejected requests fail fast with ResourceExhausted.
  int max_queue = 1024;
};

/// \brief One query submission.
struct QueryRequest {
  /// Catalog query number (plan/catalog.h — tpch::RunQuery). Ignored
  /// when `plan` is set.
  int query_number = 6;
  /// Ad-hoc plan to run instead of a catalog query (tpch::RunPlan). The
  /// caller owns the plan; it must stay alive until the response future
  /// resolves. Plans are immutable once built, so one plan may back any
  /// number of concurrent requests.
  const plan::Plan* plan = nullptr;
  /// Per-query execution config. num_threads is a *request*: the server
  /// grants min(request, worker share) at dispatch; 0 = "as many as the
  /// fair share allows". arena_pool and obs_domain are server-owned and
  /// overwritten at dispatch.
  tpch::QueryConfig config;
  /// HTAP extension: when non-empty this request is an *update batch*
  /// instead of a query (query_number / plan are ignored) — each op is
  /// committed in order against the server's VersionedTpchDb and
  /// result.count reports how many committed. Requires the server to
  /// have been constructed over a VersionedTpchDb; InvalidArgument
  /// otherwise. Updates share the admission queue and priority rules
  /// with queries, so mixed read/write load contends exactly where a
  /// real HTAP deployment would: in the commit latch, not the scheduler.
  std::vector<txn::UpdateOp> updates;
  /// Higher runs sooner; FIFO within a priority class.
  int priority = 0;
  /// If > 0: a ticket still queued this many milliseconds after Submit()
  /// is dropped (ResourceExhausted) instead of dispatched — stale answers
  /// are worthless to an interactive client and their work would only
  /// delay everyone else.
  double deadline_ms = 0;
};

/// \brief Completion of one query; delivered through the future returned
/// by Submit().
struct QueryResponse {
  /// Rejections (queue full, deadline expired, shutdown, bad query
  /// number) and execution failures both land here.
  Status status = Status::OK();
  /// Valid when status.ok(). result.report is the query's own
  /// domain-attributed QueryReport.
  tpch::QueryResult result;
  double queue_ns = 0;  ///< Submit() -> dispatch.
  double exec_ns = 0;   ///< dispatch -> completion.
  int granted_threads = 0;
  int obs_domain = -1;  ///< attribution domain used (-1: none free)
};

/// \brief Monotonic serving counters plus instantaneous queue state.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;   ///< ran and returned OK
  uint64_t failed = 0;      ///< ran and returned an error
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_deadline = 0;
  int inflight = 0;  ///< queries currently executing
  int queued = 0;    ///< tickets waiting for a runner
};

/// \brief The bounded admission queue, exposed for direct testing:
/// priority descending, FIFO within a priority, bounded size. Thread-safe.
class AdmissionQueue {
 public:
  struct Ticket {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    WallTimer queued;  ///< started at Submit()
  };

  explicit AdmissionQueue(int max_queue);

  /// \brief False (ticket untouched) when the queue is at max_queue or
  /// closed; the ticket is only moved from on success.
  bool Push(Ticket&& ticket);

  /// \brief Blocks until a ticket is available or Close(); false after
  /// close with the queue drained.
  bool Pop(Ticket* out);

  /// \brief Wakes all poppers; Pop drains what is queued, then fails.
  void Close();

  int size() const;

 private:
  const int max_queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Key: (-priority, arrival seq) so begin() is the highest priority,
  // oldest ticket. A map, not priority_queue: tickets hold promises and
  // must move out on pop.
  std::map<std::pair<int, uint64_t>, Ticket> queue_;
  uint64_t seq_ = 0;
  bool closed_ = false;
};

/// \brief Serves tpch::RunQuery over a shared TpchDb to many concurrent
/// clients. Construction prewarms the executor pool and installs the
/// worker-share cap; destruction drains in-flight queries and restores
/// the executor's uncapped default.
class QueryServer {
 public:
  explicit QueryServer(const tpch::TpchDb& db,
                       ServerOptions options = ServerOptions{});
  /// \brief HTAP mode: queries run over pinned snapshots of `vdb` (one
  /// per request, released at completion) and update-batch requests are
  /// admitted alongside them (QueryRequest::updates).
  explicit QueryServer(txn::VersionedTpchDb& vdb,
                       ServerOptions options = ServerOptions{});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// \brief Enqueues a request; the future resolves when the query
  /// completes or is rejected. Never blocks on execution.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// \brief Stops admission, drains queued + in-flight work, joins the
  /// runners. Idempotent; the destructor calls it.
  void Shutdown();

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }

 private:
  void RunnerLoop();
  void Execute(AdmissionQueue::Ticket ticket);
  void StartRunners();

  // Exactly one of these is set: db_ for the read-only mode, vdb_ for
  // HTAP snapshot serving.
  const tpch::TpchDb* db_ = nullptr;
  txn::VersionedTpchDb* vdb_ = nullptr;
  ServerOptions options_;
  AdmissionQueue queue_;
  std::vector<std::thread> runners_;
  int saved_worker_cap_ = 0;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  bool shutdown_ = false;
};

}  // namespace sgxb::serve

#endif  // SGXB_SERVE_SERVE_H_
