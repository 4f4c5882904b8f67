#include "storage/buffer_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"

namespace sgxb::storage {

namespace {

// MEE keystream positions are assigned per partition, 64-byte aligned, so
// every image owns a disjoint keystream range.
constexpr uint64_t kMeeAlign = 64;

obs::Counter* CtrEvicted() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrStoragePartitionsEvicted);
  return c;
}
obs::Counter* CtrReloaded() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrStoragePartitionsReloaded);
  return c;
}
obs::Counter* CtrPrefetchLoads() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrStoragePrefetchLoads);
  return c;
}
obs::Counter* CtrDecryptBytes() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrStorageDecryptBytes);
  return c;
}
obs::Counter* CtrPinWaits() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter(obs::kCtrStoragePinWaits);
  return c;
}

}  // namespace

size_t PagedColumnBase::PartitionValues(size_t p) const {
  return std::min(partition_rows_, num_values_ - p * partition_rows_);
}

BufferManager::BufferManager(const Config& config)
    : config_(config),
      trusted_(config.trusted != nullptr ? config.trusted
                                         : mem::SimulatedEnclave()),
      untrusted_(config.untrusted != nullptr ? config.untrusted
                                             : mem::Untrusted()),
      mee_(config.mee_key) {}

BufferManager::~BufferManager() {
  {
    std::lock_guard<std::mutex> lk(pf_mu_);
    pf_stop_ = true;
  }
  pf_cv_.notify_all();
  if (pf_thread_.joinable()) pf_thread_.join();
#ifndef NDEBUG
  std::lock_guard<std::mutex> lk(mu_);
  for (Partition* p : clock_) {
    assert(p->pins == 0 && "column partition still pinned at destruction");
  }
#endif
}

Status BufferManager::RegisterColumn(std::unique_ptr<PagedColumnBase> column,
                                     std::string name, const void* values,
                                     size_t num_values, size_t elem_size) {
  if (num_values == 0) {
    return Status::InvalidArgument("cannot register an empty column");
  }
  PagedColumnBase* col = column.get();
  col->bm_ = this;
  col->name_ = std::move(name);
  col->num_values_ = num_values;
  col->partition_rows_ = config_.partition_rows;
  col->elem_size_ = elem_size;

  const size_t pr = config_.partition_rows;
  const size_t nparts = (num_values + pr - 1) / pr;
  col->parts_.resize(nparts);
  const auto* base = static_cast<const uint8_t*>(values);
  uint64_t logical = 0;
  uint64_t payload = 0;
  for (size_t p = 0; p < nparts; ++p) {
    const size_t begin = p * pr;
    const size_t n = std::min(pr, num_values - begin);
    auto image = EncodePartition(base + begin * elem_size, n, elem_size,
                                 config_.compress, untrusted_);
    if (!image.ok()) return image.status();
    Partition& part = col->parts_[p];
    part.column = col;
    part.index = static_cast<uint32_t>(p);
    part.image = std::move(image).value();
    logical += part.image.decoded_bytes();
    payload += part.image.payload_bytes();
  }

  // Seal the images: assign disjoint keystream ranges and encrypt. From
  // here on the payloads are ciphertext at rest in untrusted memory.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t p = 0; p < nparts; ++p) {
      Partition& part = col->parts_[p];
      part.mee_offset = next_mee_offset_;
      next_mee_offset_ +=
          (part.image.payload_bytes() + kMeeAlign - 1) & ~(kMeeAlign - 1);
      mee_.Encrypt(part.image.payload.data(), part.image.payload_bytes(),
                   part.mee_offset);
      clock_.push_back(&part);
    }
    columns_.push_back(std::move(column));
  }
  n_registered_.fetch_add(nparts, std::memory_order_relaxed);
  logical_bytes_.fetch_add(logical, std::memory_order_relaxed);
  spill_payload_bytes_.fetch_add(payload, std::memory_order_relaxed);
  return Status::OK();
}

Result<const void*> BufferManager::Pin(PagedColumnBase* column, size_t p) {
  if (p >= column->num_partitions()) {
    return Status::InvalidArgument("partition index out of range");
  }
  Partition& part = column->parts_[p];
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (part.state == Partition::State::kResident) {
      ++part.pins;
      part.ref = true;
      return static_cast<const void*>(part.resident.data());
    }
    if (part.state == Partition::State::kLoading) {
      n_pin_waits_.fetch_add(1, std::memory_order_relaxed);
      CtrPinWaits()->Increment();
      cv_.wait(lk);
      continue;
    }
    // kEvicted: this thread performs the load.
    const size_t need = part.image.decoded_bytes();
    SGXB_RETURN_NOT_OK(ReserveBudgetLocked(need, lk));
    if (part.state != Partition::State::kEvicted) {
      // Loaded by someone else while we waited for capacity: hand the
      // reservation back and re-examine.
      resident_bytes_ -= need;
      cv_.notify_all();
      continue;
    }
    part.state = Partition::State::kLoading;
    lk.unlock();
    AlignedBuffer buf;
    Status s = LoadPartition(part, &buf);
    lk.lock();
    if (!s.ok()) {
      part.state = Partition::State::kEvicted;
      resident_bytes_ -= need;
      cv_.notify_all();
      return s;
    }
    part.resident = std::move(buf);
    part.state = Partition::State::kResident;
    ++part.pins;
    part.ref = true;
    n_reloaded_.fetch_add(1, std::memory_order_relaxed);
    CtrReloaded()->Increment();
    cv_.notify_all();
    return static_cast<const void*>(part.resident.data());
  }
}

void BufferManager::Unpin(PagedColumnBase* column, size_t p) {
  Partition& part = column->parts_[p];
  std::lock_guard<std::mutex> lk(mu_);
  assert(part.pins > 0 && "unbalanced Unpin");
  ++unpin_seq_;
  // Wake capacity waiters on *every* unpin, not just the one that drops a
  // partition's pin count to zero: under pin churn (txn COW reads, mixed
  // HTAP load) a partition's count rarely rests at zero, yet each unpin
  // is a fresh eviction opportunity the waiter must race for.
  if (--part.pins == 0 || capacity_waiters_ > 0) cv_.notify_all();
}

void BufferManager::Prefetch(PagedColumnBase* column, size_t p) {
  if (!config_.prefetch || p >= column->num_partitions()) return;
  Partition& part = column->parts_[p];
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (part.state != Partition::State::kEvicted || part.prefetch_queued) {
      return;
    }
    part.prefetch_queued = true;
  }
  {
    std::lock_guard<std::mutex> lk(pf_mu_);
    if (pf_stop_) return;
    if (!pf_started_) {
      pf_started_ = true;
      pf_thread_ = std::thread([this] { PrefetchWorker(); });
    }
    pf_queue_.push_back(&part);
  }
  pf_cv_.notify_one();
}

Status BufferManager::ReserveBudgetLocked(size_t need,
                                          std::unique_lock<std::mutex>& lk) {
  if (need > config_.buffer_bytes) {
    return Status::InvalidArgument(
        "partition of " + std::to_string(need) +
        " bytes exceeds the buffer pool (" +
        std::to_string(config_.buffer_bytes) +
        " bytes); raise Config::buffer_bytes or lower "
        "Config::partition_rows");
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(config_.pin_wait_timeout_ms);
  uint64_t progress = unpin_seq_;
  while (resident_bytes_ + need > config_.buffer_bytes) {
    if (TryEvictOneLocked()) continue;
    // Everything resident is pinned or loading: wait for an unpin.
    n_pin_waits_.fetch_add(1, std::memory_order_relaxed);
    CtrPinWaits()->Increment();
    ++capacity_waiters_;
    const bool timed_out =
        cv_.wait_until(lk, deadline) == std::cv_status::timeout;
    --capacity_waiters_;
    if (unpin_seq_ != progress) {
      // Pins are churning: every unpin is a fresh eviction chance, so the
      // deadline measures time since the pool last *moved*, not time in
      // the loop. A one-shot deadline here reported spurious
      // ResourceExhausted whenever churning pinners kept beating the
      // waiter to the mutex for the whole window — and a timeout that
      // raced a concurrent unpin gave up without even re-checking.
      progress = unpin_seq_;
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(config_.pin_wait_timeout_ms);
      continue;
    }
    if (timed_out) {
      return Status::ResourceExhausted(
          "buffer pool (" + std::to_string(config_.buffer_bytes) +
          " bytes) cannot fit another partition: all resident partitions "
          "stayed pinned for " +
          std::to_string(config_.pin_wait_timeout_ms) + " ms");
    }
  }
  resident_bytes_ += need;
  return Status::OK();
}

bool BufferManager::TryEvictOneLocked() {
  const size_t n = clock_.size();
  if (n == 0) return false;
  // Two sweeps: the first pass may only strip reference bits.
  for (size_t step = 0; step < 2 * n; ++step) {
    Partition& p = *clock_[hand_];
    hand_ = (hand_ + 1) % n;
    if (p.state != Partition::State::kResident || p.pins > 0) continue;
    if (p.ref) {
      p.ref = false;
      continue;
    }
    EvictLocked(p);
    return true;
  }
  return false;
}

void BufferManager::EvictLocked(Partition& p) {
  assert(p.state == Partition::State::kResident && p.pins == 0 &&
         "eviction must never reclaim a pinned partition");
  p.resident.Reset();
  p.state = Partition::State::kEvicted;
  resident_bytes_ -= p.image.decoded_bytes();
  n_evicted_.fetch_add(1, std::memory_order_relaxed);
  CtrEvicted()->Increment();
}

Status BufferManager::LoadPartition(Partition& p, AlignedBuffer* out) {
  auto buf = trusted_->Allocate(p.image.decoded_bytes());
  if (!buf.ok()) return buf.status();
  // Enclave-side load: copy the ciphertext across the boundary, decrypt
  // in transient scratch, decode into the trusted resident buffer. The
  // at-rest image is never mutated, so concurrent future reloads decrypt
  // the same bytes.
  const size_t bytes = p.image.payload_bytes();
  thread_local std::vector<uint8_t> scratch;
  scratch.resize(bytes);
  std::memcpy(scratch.data(), p.image.payload.data(), bytes);
  mee_.Decrypt(scratch.data(), bytes, p.mee_offset);
  SGXB_RETURN_NOT_OK(
      DecodePartition(p.image, scratch.data(), buf.value().data()));
  n_decrypt_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  CtrDecryptBytes()->Add(bytes);
  *out = std::move(buf).value();
  return Status::OK();
}

void BufferManager::PrefetchWorker() {
  for (;;) {
    Partition* p = nullptr;
    {
      std::unique_lock<std::mutex> lk(pf_mu_);
      pf_cv_.wait(lk, [&] { return pf_stop_ || !pf_queue_.empty(); });
      if (pf_stop_) return;
      p = pf_queue_.front();
      pf_queue_.pop_front();
    }
    std::unique_lock<std::mutex> lk(mu_);
    p->prefetch_queued = false;
    if (p->state != Partition::State::kEvicted) continue;
    const size_t need = p->image.decoded_bytes();
    if (need > config_.buffer_bytes) continue;
    // Opportunistic: a prefetch may evict cold partitions but never waits
    // on pins — demand pins own that contention.
    bool fits = true;
    while (resident_bytes_ + need > config_.buffer_bytes) {
      if (!TryEvictOneLocked()) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    resident_bytes_ += need;
    p->state = Partition::State::kLoading;
    lk.unlock();
    AlignedBuffer buf;
    Status s = LoadPartition(*p, &buf);
    lk.lock();
    if (!s.ok()) {
      p->state = Partition::State::kEvicted;
      resident_bytes_ -= need;
      cv_.notify_all();
      continue;
    }
    p->resident = std::move(buf);
    p->state = Partition::State::kResident;
    p->ref = true;
    n_prefetch_loads_.fetch_add(1, std::memory_order_relaxed);
    CtrPrefetchLoads()->Increment();
    cv_.notify_all();
  }
}

BufferManagerStats BufferManager::stats() const {
  BufferManagerStats s;
  s.partitions_registered = n_registered_.load(std::memory_order_relaxed);
  s.partitions_evicted = n_evicted_.load(std::memory_order_relaxed);
  s.partitions_reloaded = n_reloaded_.load(std::memory_order_relaxed);
  s.prefetch_loads = n_prefetch_loads_.load(std::memory_order_relaxed);
  s.decrypt_bytes = n_decrypt_bytes_.load(std::memory_order_relaxed);
  s.pin_waits = n_pin_waits_.load(std::memory_order_relaxed);
  s.logical_bytes = logical_bytes_.load(std::memory_order_relaxed);
  s.spill_payload_bytes =
      spill_payload_bytes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace sgxb::storage
