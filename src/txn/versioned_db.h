// Live-update HTAP front of a TPC-H database (docs/htap.md).
//
// VersionedTpchDb wraps a (resident or paged) TpchDbView and makes the
// paper's four "transactionally hot" numeric columns updatable —
// l_quantity, l_extendedprice, l_discount, o_orderdate — through
// single-row serializable commits, while analytical queries keep running
// unchanged over TpchDbView snapshots:
//
//  * Commit(op) takes the commit latch — deliberately the paper-faithful
//    sgx::SgxSdkMutex, so HTAP write contention exercises the Figure 10
//    park/wake-OCALL avalanche and is counted per attribution domain —
//    COWs the row's version chunk, publishes the next commit epoch, and
//    retires the superseded chunk onto an epoch-ordered reclaim list.
//  * OpenSnapshot() pins the current epoch (txn::EpochRegistry) and hands
//    out a TpchDbView whose hot columns carry (VersionSource, epoch)
//    overlays; every query body, fused pipeline, and planner path reads a
//    consistent cut for the snapshot's lifetime.
//  * Reclamation is epoch-based: a retired chunk is freed (through the
//    configured mem::MemoryResource, so EDMM trim accounting sees the
//    churn) once the registry's minimum pinned epoch reaches its retiring
//    commit. Each commit frees at most two quiescent versions in-line;
//    ReclaimQuiescent() / Drain() free all of them (tests and teardown).
//
// All activity is published to the obs registry (txn.* counters,
// txn.commit_ns histogram) and surfaced per query in QueryReport.

#ifndef SGXB_TXN_VERSIONED_DB_H_
#define SGXB_TXN_VERSIONED_DB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"
#include "mem/memory_resource.h"
#include "sgx/sgx_mutex.h"
#include "tpch/db_view.h"
#include "txn/epoch.h"
#include "txn/versioned_column.h"

namespace sgxb::txn {

/// \brief The updatable columns. Only numeric measure/date columns are
/// writable: key columns stay immutable so join structure is stable and
/// snapshots differ only in values, never in cardinalities.
enum class UpdateColumn : uint8_t {
  kLQuantity = 0,
  kLExtendedPrice = 1,
  kLDiscount = 2,
  kOOrderDate = 3,
};
inline constexpr int kNumUpdateColumns = 4;

/// \brief One single-row write. `row` indexes lineitem for the l_*
/// columns and orders for kOOrderDate.
struct UpdateOp {
  UpdateColumn column = UpdateColumn::kLQuantity;
  uint64_t row = 0;
  uint32_t value = 0;
};

/// \brief Versioning configuration, set by the caller (the txn layer reads
/// no environment).
struct TxnOptions {
  /// Rows per version chunk: the COW granule. Smaller chunks mean less
  /// write amplification per commit but more chain walks per scan.
  size_t chunk_rows = 4096;
  /// Resource owning version-chunk memory (null = mem::SimulatedEnclave();
  /// pass mem::ForEnclave(e) to charge a live enclave and pay EDMM costs).
  mem::MemoryResource* resource = nullptr;
  /// Reclaim quiescent retired chunks inside each commit, at most two per
  /// commit (a commit retires at most one, so a backlog still drains).
  /// Disable for tests that want to stage reclamation explicitly.
  bool reclaim_on_commit = true;
};

/// \brief Monotonic write-path counters (process-lifetime totals for this
/// db; the obs registry carries the same series for report attribution).
struct TxnStats {
  uint64_t commits = 0;
  uint64_t versions_created = 0;
  uint64_t versions_retired = 0;
  uint64_t versions_reclaimed = 0;
  uint64_t cow_bytes = 0;        ///< bytes allocated for version chunks
  uint64_t reclaimed_bytes = 0;  ///< bytes returned through the resource
  uint64_t epoch = 0;            ///< current commit epoch
  int active_snapshots = 0;
  /// created - reclaimed: chunk bytes currently live (heads + pending).
  uint64_t live_version_bytes = 0;
  /// retired - reclaimed: versions waiting on pinned snapshots.
  uint64_t retired_pending = 0;
};

class VersionedTpchDb {
 public:
  /// \brief Wraps `base` (whose columns may be resident or paged; the
  /// underlying storage must outlive this object).
  explicit VersionedTpchDb(const tpch::TpchDbView& base,
                           TxnOptions options = {});
  /// \brief Convenience: all-resident base.
  explicit VersionedTpchDb(const tpch::TpchDb& db, TxnOptions options = {});

  /// Reclaims everything; requires no snapshot pinned (asserted).
  ~VersionedTpchDb();

  VersionedTpchDb(const VersionedTpchDb&) = delete;
  VersionedTpchDb& operator=(const VersionedTpchDb&) = delete;

  /// \brief A pinned, consistent cut: `view()` resolves every column to
  /// the state as of `epoch()` until the snapshot is destroyed.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&&) = default;
    Snapshot& operator=(Snapshot&&) = default;

    const tpch::TpchDbView& view() const { return view_; }
    uint64_t epoch() const { return pin_.epoch(); }

   private:
    friend class VersionedTpchDb;
    SnapshotHandle pin_;
    tpch::TpchDbView view_;
  };

  /// \brief Pins the current epoch. ResourceExhausted when all
  /// EpochRegistry::kMaxSnapshots slots are pinned.
  Result<Snapshot> OpenSnapshot();

  /// \brief View at an explicit epoch — the caller is responsible for
  /// keeping that epoch pinned (tests; OpenSnapshot is the safe API).
  tpch::TpchDbView ViewAt(uint64_t epoch) const;

  /// \brief Serializable single-row update: takes the commit latch, COWs
  /// the row's chunk at the next epoch, publishes, retires the
  /// superseded version. InvalidArgument on out-of-range rows.
  Status Commit(const UpdateOp& op);

  /// \brief Frees every retired version no pinned snapshot can reach;
  /// returns how many were reclaimed. Takes the commit latch.
  uint64_t ReclaimQuiescent();

  /// \brief Reclaims until the retire list is empty, waiting for pinned
  /// snapshots to release; ResourceExhausted after `timeout_ms`.
  Status Drain(uint64_t timeout_ms = 10000);

  TxnStats stats() const;
  EpochRegistry& epochs() { return epochs_; }
  const tpch::TpchDbView& base() const { return base_; }
  size_t lineitem_rows() const { return base_.lineitem.num_rows; }
  size_t orders_rows() const { return base_.orders.num_rows; }
  /// \brief Rows addressable by ops against `column`.
  size_t RowsFor(UpdateColumn column) const {
    return column == UpdateColumn::kOOrderDate ? orders_rows()
                                               : lineitem_rows();
  }

 private:
  /// Frees up to `limit` quiescent versions; under commit_mu_.
  uint64_t ReclaimLocked(uint64_t limit = UINT64_MAX);

  tpch::TpchDbView base_;
  TxnOptions options_;
  EpochRegistry epochs_;

  // The four hot columns. unique_ptr: VersionedColumn is neither movable
  // nor default-constructible (it owns atomics).
  std::unique_ptr<VersionedColumn<uint32_t>> l_quantity_;
  std::unique_ptr<VersionedColumn<uint32_t>> l_extendedprice_;
  std::unique_ptr<VersionedColumn<uint32_t>> l_discount_;
  std::unique_ptr<VersionedColumn<uint32_t>> o_orderdate_;

  // Commit latch: the paper-faithful SDK mutex, so write contention
  // parks/wakes exactly like Figure 10 and is counted per domain.
  sgx::SgxSdkMutex commit_mu_;
  // Epoch-ordered retire list (oldest first), guarded by commit_mu_.
  RetiredVersion* retired_head_ = nullptr;
  RetiredVersion* retired_tail_ = nullptr;

  // Stats (relaxed atomics: written under commit_mu_, read anywhere).
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> versions_created_{0};
  std::atomic<uint64_t> versions_retired_{0};
  std::atomic<uint64_t> versions_reclaimed_{0};
  std::atomic<uint64_t> cow_bytes_{0};
  std::atomic<uint64_t> reclaimed_bytes_{0};
};

}  // namespace sgxb::txn

#endif  // SGXB_TXN_VERSIONED_DB_H_
