// Persistent, placement-aware thread-pool executor.
//
// Every parallel operator in this repro (radix/PHT/CHT joins, scan scaling,
// the mutex avalanche, TPC-H) dispatches its workers through this pool.
// Before it existed, ParallelRun spawned and joined fresh std::threads on
// every call — inside every Repeat iteration of every benchmark — which
// pollutes small measurements with thread-creation cost and bears no
// resemblance to how enclave-resident engines run (a pool of enclave-bound
// threads entering once and processing morsels; see DuckDB-SGX2 in
// PAPERS.md). Workers here are created once and live for the process:
//
//  * pinned at birth: each worker pins *itself* to its core before it
//    reports ready, so no task can start on an arbitrary core (the old
//    ParallelRun raced pthread_setaffinity_np against the running thread);
//  * placement-aware: a worker carries a simulated NUMA node, overridden
//    per task by ThreadPlacement::node_of_thread and readable from inside
//    task bodies via CurrentNumaNode();
//  * failure-capturing: a task body that throws or returns a non-OK Status
//    surfaces as the gang's first error instead of std::terminate;
//  * enclave-aware: task bodies open their own ScopedEcall so transition
//    costs are charged on the worker that pays them on hardware, and the
//    pool checks after every task that the worker left enclave mode (a
//    leaked EnclaveEnter would silently bill every later task).
//
// Scheduling model: a "gang" of n tasks (tid 0..n-1) *leases* n free
// workers from the pool, one task per worker, and releases them when the
// gang completes. Leases are granted in request order (FIFO tickets), so
// a wide gang cannot be starved by a stream of narrow ones, and every
// gang's members run truly concurrently — barrier synchronization inside
// a gang cannot deadlock and cannot stall behind an unrelated gang.
//
// (Earlier versions anchored every gang at workers 0..n-1 and queued
// overlapping gangs FIFO on the same workers. With two concurrent
// queries that meant the first gang claimed every worker and the second
// either serialized wholesale behind it or — worse — had its high-tid
// members start on free workers and spin at an intra-gang barrier while
// its low-tid members were still queued behind the first gang: the
// shared-state starvation this leasing scheme exists to fix. The
// completion handoff is also race-free: slot release and the waiter
// wake-up happen under the single dispatch lock, so a gang waiting for
// workers cannot miss the notify of the release that would satisfy it.)
//
// Fairness: elastic callers (ParallelFor picking its lane count, the
// serving layer capping a query's threads at admission) consult
// GrantedGangSize(), which divides the pool among in-flight gangs and
// applies the serving layer's per-gang worker-share cap, so one heavy
// query cannot monopolize all workers against many cheap ones. Gang
// tasks are never stolen (a stolen gang member would deadlock its
// barrier); work stealing happens one level down, between the morsels of
// a ParallelFor (see ws_deque.h and common/parallel.h).
//
// Nested parallelism: a gang launched from inside a pool worker falls back
// to plain spawned threads (still pinned from inside, still
// failure-capturing), because dispatching to the pool from a pool worker
// could deadlock on pool capacity.

#ifndef SGXB_EXEC_EXECUTOR_H_
#define SGXB_EXEC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"

namespace sgxb::exec {

/// \brief How ParallelRun/ParallelFor dispatch their gangs. kSpawn restores
/// the legacy thread-per-call behaviour; it exists so the executor ablation
/// can measure exactly what the persistent pool buys.
enum class DispatchMode {
  kPool = 0,
  kSpawn = 1,
};

/// \brief Process-wide dispatch mode. Defaults to kPool; the executor
/// ablation switches it at runtime (takes effect for subsequent gangs).
DispatchMode dispatch_mode();
void SetDispatchMode(DispatchMode mode);

/// \brief Monotonic counters describing pool activity since process start.
struct ExecutorStats {
  /// Persistent workers currently alive (the pool grows lazily to the
  /// largest gang ever requested and never shrinks).
  int workers = 0;
  /// Threads ever created for the pool; stable across repeated dispatches
  /// once the pool is warm — the property the ablation demonstrates.
  uint64_t pool_threads_spawned = 0;
  /// Threads created by spawn-mode or nested (fallback) gangs.
  uint64_t fallback_threads_spawned = 0;
  /// Gangs dispatched through the pool (not counting fallbacks).
  uint64_t gangs = 0;
  /// Individual gang tasks executed by pool workers.
  uint64_t tasks = 0;
  /// ParallelFor morsels executed (pool and fallback alike).
  uint64_t morsels = 0;
  /// Morsels a lane took from another lane's deque.
  uint64_t morsel_steals = 0;
  /// Gangs that had to wait for workers to free up before dispatching —
  /// the pool was contended when they arrived.
  uint64_t gang_waits = 0;
  /// Gangs currently holding worker leases.
  int active_gangs = 0;
  /// Workers currently leased to a gang.
  int busy_workers = 0;
};

class Executor {
 public:
  /// \brief The process-wide pool used by ParallelRun/ParallelFor.
  static Executor& Default();

  Executor();
  ~Executor();  // stops and joins all workers
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// \brief Runs body(tid) for tid in [0, num_threads) concurrently, one
  /// task per leased pool worker, and waits for all of them. Blocks until
  /// num_threads workers are free (leases are granted in request order).
  /// Returns the first (lowest-tid) non-OK Status; a body that throws is
  /// captured as an Internal status. num_threads == 1 runs inline on the
  /// caller.
  ///
  /// Bodies of one gang may synchronize with each other (barriers,
  /// queues): all members of a gang hold their workers concurrently, so
  /// intra-gang barriers are deadlock-free even with overlapping gangs.
  Status RunGang(int num_threads, const std::function<Status(int)>& body,
                 const ThreadPlacement& placement = {});

  /// \brief Share-aware gang sizing for *elastic* callers (ParallelFor
  /// picking a lane count, the serving layer capping a query's threads):
  /// returns `want` when the pool is uncontended, else a fair fraction of
  /// the pool given the gangs currently active or waiting, always >= 1
  /// and never more than `want` or the per-gang cap. Rigid gangs (bodies
  /// with barriers sized to a fixed n) should pass their n to RunGang
  /// directly and rely on leasing for correctness.
  int GrantedGangSize(int want);

  /// \brief Hard cap applied by GrantedGangSize (0 = uncapped). Set by
  /// the serving layer from serve::ServerOptions::worker_share so no
  /// single query's elastic gangs exceed its worker share while serving.
  void SetMaxWorkersPerGang(int cap);
  int max_workers_per_gang() const;

  /// \brief Grows the pool to at least `n` workers now (the serving layer
  /// prewarms to the host's core count so concurrent queries do not
  /// serialize on a pool sized by the first, smallest gang).
  void EnsurePoolSize(int n);

  ExecutorStats stats() const;

  /// \brief True on a pool worker thread (used to reroute nested gangs).
  static bool OnWorkerThread();

  /// \brief Lanes ParallelFor uses when the caller does not say: the host's
  /// logical core count.
  static int DefaultParallelism();

  /// \brief Morsel accounting hook for ParallelFor.
  void NoteMorsels(uint64_t executed, uint64_t stolen);

 private:
  struct GangState;
  struct Task {
    GangState* gang;
    int tid;
  };
  struct Worker {
    int index = 0;
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> tasks;
    bool ready = false;
  };

  // Requires dispatch_mu_. Grows the pool to at least n workers, waiting
  // for each new worker to finish pinning itself before returning.
  void EnsureWorkersLocked(int n);
  void WorkerLoop(Worker* worker);
  void RunTask(const Task& task);
  Status SpawnGang(int num_threads, const std::function<Status(int)>& body,
                   const ThreadPlacement& placement);

  // Guards pool growth and all lease state (busy_, free_count_, tickets).
  // Slot release and waiter wake-up both happen under this lock, which is
  // what makes the gang handoff free of lost wakeups (see file comment).
  mutable std::mutex dispatch_mu_;
  std::condition_variable slots_cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<uint8_t> busy_;  // parallel to workers_: leased to a gang
  int free_count_ = 0;
  uint64_t lease_head_ = 0;  // next ticket to be granted
  uint64_t lease_tail_ = 0;  // next ticket to be issued
  int active_gangs_ = 0;
  std::atomic<int> max_workers_per_gang_{0};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> pool_threads_spawned_{0};
  std::atomic<uint64_t> fallback_threads_spawned_{0};
  std::atomic<uint64_t> gangs_{0};
  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> morsels_{0};
  std::atomic<uint64_t> morsel_steals_{0};
  std::atomic<uint64_t> gang_waits_{0};
};

}  // namespace sgxb::exec

#endif  // SGXB_EXEC_EXECUTOR_H_
