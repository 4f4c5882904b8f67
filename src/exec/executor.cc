#include "exec/executor.h"

#include <pthread.h>

#include <exception>
#include <string>

#include "common/cpu_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sgx/transition.h"

namespace sgxb::exec {

namespace {

// Thread-local identity of the current task: set for the duration of a gang
// task (pool or fallback thread), cleared afterwards.
thread_local bool t_on_pool_worker = false;
thread_local int t_numa_node = 0;

std::atomic<DispatchMode> g_dispatch_mode{DispatchMode::kPool};

// Scheduling activity mirrored into the obs registry so per-query reports
// can diff it over a query window. ExecutorStats keeps the per-instance
// view; these are process-global sums.
obs::Counter& CtrGangs() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrExecGangs);
  return *c;
}
obs::Counter& CtrTasks() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrExecTasks);
  return *c;
}
obs::Counter& CtrMorsels() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrExecMorsels);
  return *c;
}
obs::Counter& CtrMorselSteals() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrExecMorselSteals);
  return *c;
}

// Pins the calling thread. Unlike the old ParallelRun, which called
// pthread_setaffinity_np on an already-running thread (racing the body's
// first instructions onto an arbitrary core), this always runs *before* the
// worker reports ready / the fallback thread enters its body.
void PinSelfToCore(int core) {
  if (core >= CpuInfo::Host().logical_cores) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  // Best effort: pinning failures (e.g. restricted cpusets) are not fatal.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

Status InvokeBody(const std::function<Status(int)>& body, int tid) {
  try {
    return body(tid);
  } catch (const std::exception& e) {
    return Status::Internal("worker " + std::to_string(tid) +
                            " threw: " + e.what());
  } catch (...) {
    return Status::Internal("worker " + std::to_string(tid) +
                            " threw a non-standard exception");
  }
}

// After a task, the worker must be back outside the (simulated) enclave: a
// body that called EnclaveEnter without a matching exit would leave the
// thread-local enclave depth dirty, silently charging transition costs to
// every later task scheduled on this worker. Unwind and report.
Status CheckEnclaveHygiene(int tid, Status st) {
  int leaked = 0;
  while (sgx::InEnclaveMode()) {
    sgx::EnclaveExit();
    ++leaked;
  }
  if (leaked > 0 && st.ok()) {
    st = Status::Internal("worker " + std::to_string(tid) +
                          " left enclave mode dirty (depth " +
                          std::to_string(leaked) + ")");
  }
  return st;
}

}  // namespace

DispatchMode dispatch_mode() {
  return g_dispatch_mode.load(std::memory_order_relaxed);
}

void SetDispatchMode(DispatchMode mode) {
  g_dispatch_mode.store(mode, std::memory_order_relaxed);
}

struct Executor::GangState {
  const std::function<Status(int)>* body = nullptr;
  const ThreadPlacement* placement = nullptr;
  std::vector<Status> results;
  // Attribution domain of the dispatching thread; re-published inside
  // every task body so the query's parallel work lands in its own
  // QueryReport (obs/metrics.h).
  int domain = -1;
  std::vector<int> leased;  // worker index running each tid
  std::atomic<int> remaining{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

Executor& Executor::Default() {
  static Executor executor;
  return executor;
}

Executor::Executor() = default;

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    stop_.store(true, std::memory_order_release);
    slots_cv_.notify_all();
    for (auto& w : workers_) {
      std::lock_guard<std::mutex> wl(w->mu);
      w->cv.notify_all();
    }
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

int Executor::DefaultParallelism() {
  return std::max(1, CpuInfo::Host().logical_cores);
}

bool Executor::OnWorkerThread() { return t_on_pool_worker; }

void Executor::NoteMorsels(uint64_t executed, uint64_t stolen) {
  morsels_.fetch_add(executed, std::memory_order_relaxed);
  morsel_steals_.fetch_add(stolen, std::memory_order_relaxed);
  CtrMorsels().Add(executed);
  CtrMorselSteals().Add(stolen);
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    s.workers = static_cast<int>(workers_.size());
    s.active_gangs = active_gangs_;
    s.busy_workers = static_cast<int>(workers_.size()) - free_count_;
  }
  s.pool_threads_spawned =
      pool_threads_spawned_.load(std::memory_order_relaxed);
  s.fallback_threads_spawned =
      fallback_threads_spawned_.load(std::memory_order_relaxed);
  s.gangs = gangs_.load(std::memory_order_relaxed);
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.morsels = morsels_.load(std::memory_order_relaxed);
  s.morsel_steals = morsel_steals_.load(std::memory_order_relaxed);
  s.gang_waits = gang_waits_.load(std::memory_order_relaxed);
  return s;
}

void Executor::EnsureWorkersLocked(int n) {
  while (static_cast<int>(workers_.size()) < n) {
    auto worker = std::make_unique<Worker>();
    worker->index = static_cast<int>(workers_.size());
    Worker* w = worker.get();
    workers_.push_back(std::move(worker));
    busy_.push_back(0);
    ++free_count_;
    w->thread = std::thread([this, w] { WorkerLoop(w); });
    pool_threads_spawned_.fetch_add(1, std::memory_order_relaxed);
    // Gate dispatch on the worker having pinned itself: "pinned at birth"
    // means no task ever observes the thread on the wrong core.
    std::unique_lock<std::mutex> wl(w->mu);
    w->cv.wait(wl, [w] { return w->ready; });
  }
}

void Executor::EnsurePoolSize(int n) {
  std::lock_guard<std::mutex> lock(dispatch_mu_);
  EnsureWorkersLocked(std::max(0, n));
  slots_cv_.notify_all();
}

void Executor::SetMaxWorkersPerGang(int cap) {
  max_workers_per_gang_.store(std::max(0, cap), std::memory_order_relaxed);
}

int Executor::max_workers_per_gang() const {
  return max_workers_per_gang_.load(std::memory_order_relaxed);
}

int Executor::GrantedGangSize(int want) {
  want = std::max(1, want);
  int granted = want;
  const int cap = max_workers_per_gang_.load(std::memory_order_relaxed);
  if (cap > 0) granted = std::min(granted, cap);
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    const int contenders =
        active_gangs_ + static_cast<int>(lease_tail_ - lease_head_);
    if (contenders > 0) {
      // Others are running or queued: take a fair slice of the pool's
      // eventual capacity (the pool grows to the host's core count under
      // the serving layer, see EnsurePoolSize).
      const int capacity =
          std::max(static_cast<int>(workers_.size()), DefaultParallelism());
      granted = std::min(granted,
                         std::max(1, capacity / (contenders + 1)));
    }
  }
  return granted;
}

void Executor::WorkerLoop(Worker* worker) {
  PinSelfToCore(worker->index);
  t_on_pool_worker = true;
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->ready = true;
    worker->cv.notify_all();
  }
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               !worker->tasks.empty();
      });
      if (worker->tasks.empty()) return;  // stopped and drained
      task = worker->tasks.front();
      worker->tasks.pop_front();
    }
    RunTask(task);
  }
}

void Executor::RunTask(const Task& task) {
  GangState* gang = task.gang;
  const ThreadPlacement& placement = *gang->placement;
  // Re-publish the dispatching thread's attribution domain for the whole
  // task, counter bumps included, so a query's parallel work lands in its
  // own QueryReport no matter which worker ran it.
  obs::ScopedMetricDomain domain_scope(gang->domain);
  t_numa_node = placement.node_of_thread ? placement.node_of_thread(task.tid)
                                         : 0;
  Status st;
  {
    obs::ObsSpan span("task", "exec");
    st = InvokeBody(*gang->body, task.tid);
  }
  st = CheckEnclaveHygiene(task.tid, std::move(st));
  t_numa_node = 0;
  tasks_.fetch_add(1, std::memory_order_relaxed);
  CtrTasks().Increment();
  gang->results[task.tid] = std::move(st);
  if (gang->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(gang->mu);
    gang->done = true;
    gang->cv.notify_all();
  }
}

Status Executor::RunGang(int num_threads,
                         const std::function<Status(int)>& body,
                         const ThreadPlacement& placement) {
  if (num_threads <= 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (num_threads == 1) {
    // Inline, as ParallelRun always did for one thread; the thread-local
    // node is still published so CurrentNumaNode() works single-threaded.
    int saved_node = t_numa_node;
    t_numa_node = placement.node_of_thread ? placement.node_of_thread(0) : 0;
    Status st = InvokeBody(body, 0);
    t_numa_node = saved_node;
    return st;
  }
  if (OnWorkerThread() || dispatch_mode() == DispatchMode::kSpawn) {
    return SpawnGang(num_threads, body, placement);
  }

  GangState gang;
  gang.body = &body;
  gang.placement = &placement;
  gang.domain = obs::CurrentMetricDomain();
  gang.results.assign(num_threads, Status::OK());
  gang.remaining.store(num_threads, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(dispatch_mu_);
    EnsureWorkersLocked(num_threads);
    // Lease num_threads workers, FIFO by ticket: a wide gang cannot be
    // starved by a stream of narrow ones, and all members of a gang hold
    // their workers concurrently (intra-gang barriers stay deadlock-free
    // even with overlapping gangs — the bug this replaced: gangs anchored
    // at workers 0..n-1 let the first caller claim every worker).
    const uint64_t ticket = lease_tail_++;
    if (!(lease_head_ == ticket && free_count_ >= num_threads)) {
      gang_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    slots_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             (lease_head_ == ticket && free_count_ >= num_threads);
    });
    if (stop_.load(std::memory_order_acquire)) {
      ++lease_head_;  // retire the ticket so later waiters can observe stop
      slots_cv_.notify_all();
      return Status::Internal("executor stopped");
    }
    for (int i = 0;
         i < static_cast<int>(workers_.size()) &&
         static_cast<int>(gang.leased.size()) < num_threads;
         ++i) {
      if (!busy_[i]) {
        busy_[i] = 1;
        gang.leased.push_back(i);
      }
    }
    free_count_ -= num_threads;
    ++lease_head_;
    ++active_gangs_;
    // Wake the next ticket holder: it may already be satisfiable if the
    // pool is larger than both gangs combined.
    slots_cv_.notify_all();
    // Enqueue the whole gang in tid order under the dispatch lock; leased
    // workers are idle, so each takes exactly its one task.
    for (int tid = 0; tid < num_threads; ++tid) {
      Worker* w = workers_[gang.leased[tid]].get();
      std::lock_guard<std::mutex> wl(w->mu);
      w->tasks.push_back(Task{&gang, tid});
      w->cv.notify_one();
    }
  }
  gangs_.fetch_add(1, std::memory_order_relaxed);
  {
    obs::ScopedMetricDomain domain_scope(gang.domain);
    CtrGangs().Increment();
  }
  {
    std::unique_lock<std::mutex> lock(gang.mu);
    gang.cv.wait(lock, [&] { return gang.done; });
  }
  {
    // Release the lease. Slot release and waiter wake-up happen under the
    // single dispatch lock: a waiting gang cannot observe the free count
    // before the release yet miss the notify after it (the lost-wakeup
    // shape this handoff is designed against).
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    for (int idx : gang.leased) busy_[idx] = 0;
    free_count_ += num_threads;
    --active_gangs_;
    slots_cv_.notify_all();
  }
  for (Status& st : gang.results) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

Status Executor::SpawnGang(int num_threads,
                           const std::function<Status(int)>& body,
                           const ThreadPlacement& placement) {
  std::vector<Status> results(num_threads);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  // Fresh threads start with no attribution domain; carry the spawner's
  // over so nested/spawn-mode gangs attribute like pool gangs do.
  const int domain = obs::CurrentMetricDomain();
  for (int tid = 0; tid < num_threads; ++tid) {
    threads.emplace_back([&, tid, domain] {
      obs::ScopedMetricDomain domain_scope(domain);
      // Pin from inside the thread, before the body runs (the old
      // ParallelRun pinned from the spawner, racing an already-running
      // body).
      if (placement.pin_threads) PinSelfToCore(tid);
      t_numa_node =
          placement.node_of_thread ? placement.node_of_thread(tid) : 0;
      Status st;
      {
        obs::ObsSpan span("task", "exec");
        st = InvokeBody(body, tid);
      }
      results[tid] = CheckEnclaveHygiene(tid, std::move(st));
      t_numa_node = 0;
      CtrTasks().Increment();
    });
  }
  fallback_threads_spawned_.fetch_add(num_threads,
                                      std::memory_order_relaxed);
  CtrGangs().Increment();
  for (auto& t : threads) t.join();
  for (Status& st : results) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

}  // namespace sgxb::exec

namespace sgxb {

// Declared in common/parallel.h; defined here so the task-identity
// thread-locals stay private to this translation unit.
int CurrentNumaNode() { return exec::t_numa_node; }

}  // namespace sgxb
