#include "txn/versioned_db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/timer.h"
#include "obs/metrics.h"

namespace sgxb::txn {

namespace {

obs::Counter* CtrCommits() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTxnCommits);
  return c;
}
obs::Counter* CtrVersionsCreated() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTxnVersionsCreated);
  return c;
}
obs::Counter* CtrVersionsRetired() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTxnVersionsRetired);
  return c;
}
obs::Counter* CtrVersionsReclaimed() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTxnVersionsReclaimed);
  return c;
}
obs::Counter* CtrCowBytes() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTxnCowBytes);
  return c;
}
obs::Counter* CtrReclaimedBytes() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrTxnReclaimedBytes);
  return c;
}
obs::Histogram* HistCommitNs() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram(obs::kHistTxnCommitNs);
  return h;
}

}  // namespace

VersionedTpchDb::VersionedTpchDb(const tpch::TpchDbView& base,
                                 TxnOptions options)
    : base_(base), options_(options) {
  if (options_.resource == nullptr) {
    options_.resource = mem::SimulatedEnclave();
  }
  const size_t cr = options_.chunk_rows;
  mem::MemoryResource* res = options_.resource;
  l_quantity_ = std::make_unique<VersionedColumn<uint32_t>>(
      base_.lineitem.l_quantity, cr, res);
  l_extendedprice_ = std::make_unique<VersionedColumn<uint32_t>>(
      base_.lineitem.l_extendedprice, cr, res);
  l_discount_ = std::make_unique<VersionedColumn<uint32_t>>(
      base_.lineitem.l_discount, cr, res);
  o_orderdate_ = std::make_unique<VersionedColumn<uint32_t>>(
      base_.orders.o_orderdate, cr, res);
}

VersionedTpchDb::VersionedTpchDb(const tpch::TpchDb& db, TxnOptions options)
    : VersionedTpchDb(tpch::ViewOf(db), options) {}

VersionedTpchDb::~VersionedTpchDb() {
  assert(epochs_.active_snapshots() == 0 &&
         "snapshot still pinned at VersionedTpchDb destruction");
  ReclaimQuiescent();
  assert(retired_head_ == nullptr &&
         "retired versions leaked at destruction");
}

Result<VersionedTpchDb::Snapshot> VersionedTpchDb::OpenSnapshot() {
  Snapshot snap;
  snap.pin_ = SnapshotHandle(&epochs_);
  if (!snap.pin_.ok()) {
    return Status::ResourceExhausted(
        "all " + std::to_string(EpochRegistry::kMaxSnapshots) +
        " snapshot slots are pinned");
  }
  snap.view_ = ViewAt(snap.pin_.epoch());
  return snap;
}

tpch::TpchDbView VersionedTpchDb::ViewAt(uint64_t epoch) const {
  tpch::TpchDbView v = base_;
  v.lineitem.l_quantity = l_quantity_->ViewAt(epoch);
  v.lineitem.l_extendedprice = l_extendedprice_->ViewAt(epoch);
  v.lineitem.l_discount = l_discount_->ViewAt(epoch);
  v.orders.o_orderdate = o_orderdate_->ViewAt(epoch);
  return v;
}

Status VersionedTpchDb::Commit(const UpdateOp& op) {
  WallTimer timer;  // includes the latch wait — that is the p99 exhibit
  std::lock_guard<sgx::SgxSdkMutex> latch(commit_mu_);
  VersionedColumn<uint32_t>* col = nullptr;
  switch (op.column) {
    case UpdateColumn::kLQuantity:
      col = l_quantity_.get();
      break;
    case UpdateColumn::kLExtendedPrice:
      col = l_extendedprice_.get();
      break;
    case UpdateColumn::kLDiscount:
      col = l_discount_.get();
      break;
    case UpdateColumn::kOOrderDate:
      col = o_orderdate_.get();
      break;
  }
  if (col == nullptr) {
    return Status::InvalidArgument("unknown update column");
  }

  const uint64_t epoch = epochs_.current() + 1;
  RetiredVersion* retired = nullptr;
  SGXB_RETURN_NOT_OK(col->Apply(op.row, op.value, epoch, &retired));
  epochs_.Publish(epoch);

  const size_t cbegin = (op.row / col->chunk_rows()) * col->chunk_rows();
  const size_t cow =
      (std::min(col->num_values(), cbegin + col->chunk_rows()) - cbegin) *
      sizeof(uint32_t);
  commits_.fetch_add(1, std::memory_order_relaxed);
  versions_created_.fetch_add(1, std::memory_order_relaxed);
  cow_bytes_.fetch_add(cow, std::memory_order_relaxed);
  CtrCommits()->Increment();
  CtrVersionsCreated()->Increment();
  CtrCowBytes()->Add(cow);

  if (retired != nullptr) {
    retired->retire_next = nullptr;
    if (retired_tail_ == nullptr) {
      retired_head_ = retired_tail_ = retired;
    } else {
      retired_tail_->retire_next = retired;
      retired_tail_ = retired;
    }
    versions_retired_.fetch_add(1, std::memory_order_relaxed);
    CtrVersionsRetired()->Increment();
  }

  // A commit retires at most one version, so freeing up to two works a
  // backlog off while no single commit pays for all of it: the first
  // commit after a long snapshot unpins would otherwise free every
  // version retired while it was pinned.
  constexpr uint64_t kMaxReclaimPerCommit = 2;
  if (options_.reclaim_on_commit) ReclaimLocked(kMaxReclaimPerCommit);
  HistCommitNs()->Record(timer.ElapsedNanos());
  return Status::OK();
}

uint64_t VersionedTpchDb::ReclaimLocked(uint64_t limit) {
  // The retire list is epoch-ordered (commits append under the latch), so
  // reclamation pops from the head until it hits the first version some
  // pinned snapshot can still reach, or has freed `limit` versions.
  const uint64_t min_pinned = epochs_.MinPinned();
  uint64_t n = 0;
  while (n < limit && retired_head_ != nullptr &&
         retired_head_->retire_epoch <= min_pinned) {
    RetiredVersion* r = retired_head_;
    retired_head_ = r->retire_next;
    if (retired_head_ == nullptr) retired_tail_ = nullptr;
    r->Unlink();
    versions_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    reclaimed_bytes_.fetch_add(r->bytes, std::memory_order_relaxed);
    CtrVersionsReclaimed()->Increment();
    CtrReclaimedBytes()->Add(r->bytes);
    delete r;  // typed dtor frees the chunk through the MemoryResource
    ++n;
  }
  return n;
}

uint64_t VersionedTpchDb::ReclaimQuiescent() {
  std::lock_guard<sgx::SgxSdkMutex> latch(commit_mu_);
  return ReclaimLocked();
}

Status VersionedTpchDb::Drain(uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    {
      std::lock_guard<sgx::SgxSdkMutex> latch(commit_mu_);
      ReclaimLocked();
      if (retired_head_ == nullptr) return Status::OK();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::ResourceExhausted(
          "retired versions still reachable after " +
          std::to_string(timeout_ms) + " ms (snapshot left pinned?)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TxnStats VersionedTpchDb::stats() const {
  TxnStats s;
  s.commits = commits_.load(std::memory_order_relaxed);
  s.versions_created = versions_created_.load(std::memory_order_relaxed);
  s.versions_retired = versions_retired_.load(std::memory_order_relaxed);
  s.versions_reclaimed =
      versions_reclaimed_.load(std::memory_order_relaxed);
  s.cow_bytes = cow_bytes_.load(std::memory_order_relaxed);
  s.reclaimed_bytes = reclaimed_bytes_.load(std::memory_order_relaxed);
  s.epoch = epochs_.current();
  s.active_snapshots = epochs_.active_snapshots();
  s.live_version_bytes = s.cow_bytes - s.reclaimed_bytes;
  s.retired_pending = s.versions_retired - s.versions_reclaimed;
  return s;
}

}  // namespace sgxb::txn
