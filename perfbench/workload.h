// The three serving workloads (README.md): their fixtures, the oracle
// every answer is checked against, the closed-loop query clients and the
// open-loop commit writer.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hostref.h"
#include "obs/query_report.h"
#include "serve/serve.h"
#include "sgx/enclave.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "txn/versioned_db.h"

namespace perfbench {

using namespace sgxb;

enum class Workload { kResident, kPaged, kHtap };

/// \brief Parses "resident" / "paged" / "htap"; false otherwise.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Load shape and writer settings shared by all workloads (README.md).
// Clients x gang width must not exceed the host's cores.
inline constexpr int kClients = 2;
inline constexpr int kGangThreads = 2;
/// The writer commits kCommitsPerTick single-row updates every tick.
inline constexpr int kCommitsPerTick = 10;
inline constexpr int kTickUs = 1000;
inline constexpr double kZipfTheta = 0.5;
/// The timed mix runs in windows of about this length; the host
/// reference runs before, between and after them. The solo commit burst
/// is cut into 1 s windows.
inline constexpr double kWindowSeconds = 2.0;
inline constexpr double kSoloWindowSeconds = 1.0;
/// The solo commit burst that gives resident and paged their commit
/// metrics after the query mix: a warm-up that gives the hot chunks
/// their first versions (logged, not timed), then the timed part.
inline constexpr double kSoloWarmupSeconds = 1.0;
inline constexpr double kSoloCommitSeconds = 5.0;
/// The paged workload's trusted pool as a share of the dataset's logical
/// bytes, with a floor for tiny scale factors.
inline constexpr double kPagedPoolShare = 0.25;
inline constexpr size_t kPagedPoolMinBytes = 4ull << 20;

struct BenchOptions {
  Workload workload = Workload::kResident;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  double scale_factor = 0.3;
  /// Set-ups per run; setup_s is their median and the last one serves.
  int setups = 3;
  /// Self-test switch: expect a wrong Q12 count so every Q12 answer
  /// mismatches and the run must fail.
  bool wrong_answer = false;
};

/// \brief Expected answers, computed once from the generated base.
struct Oracle {
  uint64_t q6_revenue = 0;
  uint64_t q12_count = 0;
  uint64_t q3_count = 0;
  std::vector<uint64_t> q1_counts;
};
Oracle ComputeOracle(const tpch::TpchDb& db);

/// \brief Everything one workload serves from: the static enclave, the
/// generated base, the paged or versioned front where the workload has
/// one, and the server over it.
class Fixture {
 public:
  /// \brief Generates the data and builds the workload's serving stack.
  static Result<std::unique_ptr<Fixture>> Build(const BenchOptions& opt);
  ~Fixture();

  serve::QueryServer& server() { return *server_; }
  tpch::TpchDb& db() { return db_; }
  sgx::Enclave* enclave() const { return enclave_; }
  /// The versioned front the server reads through (paged, htap), or the
  /// one made for the solo commit burst (resident, after the mix); null
  /// before that on resident.
  txn::VersionedTpchDb* vdb() const { return vdb_.get(); }
  /// \brief The base the workload's queries scan: the resident tables or
  /// the paged view.
  tpch::TpchDbView BaseView() const;

  /// \brief Per-request config: in-enclave setting, gang width request.
  tpch::QueryConfig RequestConfig() const;

  /// \brief Stops serving (drains the server). Required before the
  /// resident workload's commit burst and before replaying writes.
  void StopServing();
  /// \brief Resident only: wraps the base in a VersionedTpchDb for the
  /// solo commit burst.
  void AddVersioning();
  /// \brief Destroys the versioned front (after Drain) so the base may be
  /// mutated by a log replay.
  Status DropVersioning();

 private:
  Fixture() = default;

  sgx::Enclave* enclave_ = nullptr;
  tpch::TpchDb db_;
  std::unique_ptr<storage::BufferManager> bm_;
  std::optional<tpch::PagedTpchDb> paged_;
  std::unique_ptr<txn::VersionedTpchDb> vdb_;
  std::unique_ptr<serve::QueryServer> server_;
};

/// \brief One answered request of the mix.
struct Completion {
  int query = 0;
  int client = 0;
  double total_ns = 0;  ///< Submit -> response, measured by the client
  double queue_ns = 0;
  double exec_ns = 0;
  int granted_threads = 0;
  bool ok = false;  ///< status OK and the answer matched the oracle
  /// ModeledReferenceNs over the result's phases at 16 threads.
  double model_sgx_ns = 0;
  double model_plain_ns = 0;
  /// Phase host time grouped by kind: filter, join, aggregate.
  double phase_ns[3] = {0, 0, 0};
  obs::QueryReport report;  ///< phases dropped
  uint64_t end_ns = 0;      ///< NowNs() at the response
};

/// \brief One window of timed work: when it ran, the share of the
/// host's CPU time the hypervisor stole meanwhile, and the host
/// reference measured just before it (0 where none was).
struct Window {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  double steal = 0;
  double reference_ns = 0;
};

/// \brief {steal, total} CPU ticks of the host so far, from /proc/stat;
/// {0, 0} where it is unreadable.
std::pair<uint64_t, uint64_t> CpuTicks();

/// \brief Stolen share of the ticks between two CpuTicks() readings.
double StealShare(std::pair<uint64_t, uint64_t> before,
                  std::pair<uint64_t, uint64_t> after);

/// \brief Result of the benchmark's writer.
struct WriterResult {
  std::vector<double> commit_ns;  ///< per-call Commit latency
  std::vector<uint64_t> commit_end_ns;  ///< NowNs() after each timed call
  /// CommitReference steps, one per tick among the commits, timed and
  /// kept like them (solo only).
  std::vector<double> step_ns;
  std::vector<uint64_t> step_end_ns;
  std::vector<Window> windows;  ///< the solo burst's windows (solo only)
  std::vector<txn::UpdateOp> log;  ///< committed ops, in commit order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ticks = 0;
  uint64_t late_ticks = 0;  ///< ticks started more than one tick late
  txn::TxnStats stats;     ///< TxnStats when the writer stopped
};

struct MixResult {
  std::vector<Completion> completions;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< rejected, failed or wrong
  std::vector<Window> windows;  ///< the timed mix's windows (none in warm-up)
  std::optional<WriterResult> writer;
};

/// \brief Runs the closed-loop mix: kClients clients, each walking
/// seeded shuffles of the 9-slot cycle. With `cycles` > 0 every client
/// runs that many cycles in one window (the warm-up pass); otherwise the
/// clients serve for `seconds`, split into windows of about
/// kWindowSeconds. Between windows both clients wait with nothing in
/// flight while `ref` (when given) is measured. `with_writer` runs the
/// open-loop commit writer for the duration; it sleeps while the
/// reference runs. `stream` separates the RNG streams of successive calls
/// under one seed.
MixResult RunMix(Fixture& fx, const Oracle& oracle, const BenchOptions& opt,
                 double seconds, int cycles, bool with_writer,
                 uint64_t stream, HostReference* ref);

/// \brief Runs only the commit writer (no queries): kSoloWarmupSeconds
/// whose commits are logged but not timed, then kSoloCommitSeconds in
/// windows of kSoloWindowSeconds. The writer runs a CommitReference step
/// in every tick.
WriterResult RunSoloWriter(txn::VersionedTpchDb* vdb, const BenchOptions& opt,
                           uint64_t stream);

/// \brief After the writes: runs Q6 and Q3 on a fresh snapshot, stops the
/// versioned front, replays `log` into the base and compares against the
/// reference answers. Returns the number of mismatching or failed
/// queries (0..2) and adds the two attempts to *attempted.
uint64_t CheckAfterWrites(Fixture& fx, const std::vector<txn::UpdateOp>& log,
                          uint64_t* attempted);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
