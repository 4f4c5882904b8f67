// Out-of-EPC columnar buffer manager: hot partitions pinned in trusted
// memory, cold partitions spilled to untrusted memory compressed and
// encrypted (docs/storage.md).
//
// Columns registered with the manager are split into fixed-size
// partitions. At registration each partition is encoded (partition_codec)
// and encrypted (sgx::MemoryEncryptionEngine) into a permanent untrusted
// spill image — the data is read-only, so eviction never writes back: it
// just drops the decoded trusted-resident buffer. Reload copies the
// encrypted image across the enclave boundary, decrypts it into transient
// scratch, and decodes into a fresh trusted allocation charged against the
// pool budget (and, through the trusted MemoryResource, against the
// simulated enclave's EPC accounting).
//
// Concurrency: one mutex guards partition states, the clock hand, and the
// residency budget; loads (decrypt+decode) run outside the lock in a
// kLoading state so concurrent pins of *other* partitions proceed. Pins
// are counted per partition; the clock sweep skips pinned and loading
// partitions, and eviction of a pinned partition is impossible by
// construction (asserted). When nothing is evictable the pinning thread
// waits on a condvar, re-checking after every unpin (each one is a fresh
// eviction opportunity under pin churn); it fails with ResourceExhausted
// only after Config::pin_wait_timeout_ms passes with no unpin at all — a
// pool smaller than one thread's simultaneously pinned working set is a
// configuration error, not a hang.

#ifndef SGXB_STORAGE_BUFFER_MANAGER_H_
#define SGXB_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/relation.h"
#include "common/status.h"
#include "mem/memory_resource.h"
#include "sgx/mee.h"
#include "storage/partition_codec.h"

namespace sgxb::storage {

class BufferManager;
template <typename T>
class PagedColumn;

/// \brief Point-in-time view of one manager's activity. Counters are also
/// mirrored into the obs registry (storage.* names in obs/metrics.h);
/// these per-manager copies back the bench gates, which compare two
/// managers in one process.
struct BufferManagerStats {
  uint64_t partitions_registered = 0;
  uint64_t partitions_evicted = 0;   ///< resident copies dropped (spills)
  uint64_t partitions_reloaded = 0;  ///< demand loads (decrypt + decode)
  uint64_t prefetch_loads = 0;       ///< loads issued ahead of the scan
  uint64_t decrypt_bytes = 0;  ///< untrusted-tier bytes moved through the MEE
  uint64_t pin_waits = 0;            ///< condvar waits in Pin
  size_t logical_bytes = 0;          ///< decoded size of registered columns
  size_t spill_payload_bytes = 0;    ///< encoded+encrypted image size
  size_t resident_bytes = 0;         ///< currently held in the trusted pool

  /// \brief logical / spill-image size; > 1 when compression helps.
  double CompressionRatio() const {
    return spill_payload_bytes == 0
               ? 0.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(spill_payload_bytes);
  }
};

/// \brief Type-erased registered column; PagedColumn<T> adds the typed
/// accessors. Instances are owned by the BufferManager and live until it
/// is destroyed.
class PagedColumnBase {
 public:
  virtual ~PagedColumnBase() = default;

  const std::string& name() const { return name_; }
  size_t num_values() const { return num_values_; }
  size_t partition_rows() const { return partition_rows_; }
  size_t num_partitions() const { return parts_.size(); }
  size_t PartitionOf(size_t row) const { return row / partition_rows_; }
  /// First row of partition p.
  size_t PartitionBegin(size_t p) const { return p * partition_rows_; }
  size_t PartitionValues(size_t p) const;

 protected:
  friend class BufferManager;

  /// \brief One partition's spill image plus residency state. State
  /// fields are guarded by the owning manager's mutex.
  struct Partition {
    PagedColumnBase* column = nullptr;
    uint32_t index = 0;
    uint64_t mee_offset = 0;  ///< absolute MEE keystream position
    PartitionImage image;     ///< encrypted at rest in untrusted memory

    enum class State : uint8_t { kEvicted, kLoading, kResident };
    State state = State::kEvicted;
    bool ref = false;             ///< clock second-chance bit
    bool prefetch_queued = false;
    uint32_t pins = 0;
    AlignedBuffer resident;       ///< decoded values, trusted pool
  };

  BufferManager* bm_ = nullptr;
  std::string name_;
  size_t num_values_ = 0;
  size_t partition_rows_ = 0;
  size_t elem_size_ = 0;
  std::vector<Partition> parts_;
};

class BufferManager {
 public:
  /// \brief Pool configuration, set by the caller (the storage layer
  /// reads no environment).
  struct Config {
    /// Trusted pool budget for decoded resident partitions, in bytes.
    size_t buffer_bytes = 256ull << 20;
    /// Rows per partition (the pin/evict/prefetch granule).
    size_t partition_rows = 64 * 1024;
    /// Compress spill images (frame-of-reference / dictionary); false
    /// spills raw encrypted bytes — the bench baseline.
    bool compress = true;
    /// Prefetch partition p+1 while a sequential scan works on p.
    bool prefetch = true;
    /// How long Pin may wait for capacity before ResourceExhausted.
    uint64_t pin_wait_timeout_ms = 10000;
    /// Resource for decoded resident buffers (null = SimulatedEnclave();
    /// pass mem::ForEnclave(e) to charge a live enclave's EPC budget).
    mem::MemoryResource* trusted = nullptr;
    /// Resource for spill images (null = Untrusted()).
    mem::MemoryResource* untrusted = nullptr;
    /// MEE key sealing the spill images.
    uint64_t mee_key = 0x5367785632204d45ull;
  };

  explicit BufferManager(const Config& config);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// \brief Registers a column: splits it into partitions, encodes and
  /// encrypts the spill images, and returns a handle owned by this
  /// manager. Nothing is resident until first pin. T is uint8_t or
  /// uint32_t.
  template <typename T>
  Result<PagedColumn<T>*> AddColumn(std::string name, const T* values,
                                    size_t num_values) {
    static_assert(std::is_same_v<T, uint8_t> || std::is_same_v<T, uint32_t>,
                  "buffer manager stores u8 / u32 columns");
    auto col = std::make_unique<PagedColumn<T>>();
    PagedColumn<T>* handle = col.get();
    SGXB_RETURN_NOT_OK(RegisterColumn(std::move(col), std::move(name),
                                      values, num_values, sizeof(T)));
    return handle;
  }
  template <typename T>
  Result<PagedColumn<T>*> AddColumn(std::string name,
                                    const Column<T>& source) {
    return AddColumn(std::move(name), source.data(), source.num_values());
  }

  /// \brief Pins partition `p` of `column` resident and returns its
  /// decoded values; the partition cannot be evicted until the matching
  /// Unpin. Loads (and possibly evicts other partitions) on miss.
  Result<const void*> Pin(PagedColumnBase* column, size_t p);
  void Unpin(PagedColumnBase* column, size_t p);

  /// \brief Hints that partition `p` is about to be scanned: enqueues an
  /// asynchronous load if it is evicted and capacity is available without
  /// waiting. No-op when prefetch is disabled.
  void Prefetch(PagedColumnBase* column, size_t p);

  BufferManagerStats stats() const;
  const Config& config() const { return config_; }

 private:
  using Partition = PagedColumnBase::Partition;

  Status RegisterColumn(std::unique_ptr<PagedColumnBase> column,
                        std::string name, const void* values,
                        size_t num_values, size_t elem_size);
  /// Frees budget until `need` fits; may wait on unpins. Called with
  /// `lk` held; returns with it held and the bytes reserved.
  Status ReserveBudgetLocked(size_t need, std::unique_lock<std::mutex>& lk);
  /// One clock sweep; true if a partition was evicted.
  bool TryEvictOneLocked();
  void EvictLocked(Partition& p);
  /// Decrypt + decode `p`'s image into a trusted buffer (no lock held).
  Status LoadPartition(Partition& p, AlignedBuffer* out);
  void PrefetchWorker();

  const Config config_;
  mem::MemoryResource* trusted_;
  mem::MemoryResource* untrusted_;
  sgx::MemoryEncryptionEngine mee_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<PagedColumnBase>> columns_;
  std::vector<Partition*> clock_;
  size_t hand_ = 0;
  size_t resident_bytes_ = 0;
  uint64_t next_mee_offset_ = 0;
  /// Bumped on every Unpin: capacity waiters use it to tell "the pool is
  /// churning, keep retrying" from "nothing has moved, time out".
  uint64_t unpin_seq_ = 0;
  /// Threads parked in ReserveBudgetLocked; Unpin broadcasts while any
  /// are waiting even if the partition's pin count stays above zero.
  int capacity_waiters_ = 0;

  // Stats (atomics: read without mu_, some bumped from the load path).
  std::atomic<uint64_t> n_registered_{0};
  std::atomic<uint64_t> n_evicted_{0};
  std::atomic<uint64_t> n_reloaded_{0};
  std::atomic<uint64_t> n_prefetch_loads_{0};
  std::atomic<uint64_t> n_decrypt_bytes_{0};
  std::atomic<uint64_t> n_pin_waits_{0};
  std::atomic<uint64_t> logical_bytes_{0};
  std::atomic<uint64_t> spill_payload_bytes_{0};

  // Prefetch worker (started lazily on first Prefetch call).
  std::mutex pf_mu_;
  std::condition_variable pf_cv_;
  std::deque<Partition*> pf_queue_;
  std::thread pf_thread_;
  bool pf_started_ = false;
  bool pf_stop_ = false;
};

/// \brief Typed handle to a registered column.
template <typename T>
class PagedColumn : public PagedColumnBase {
 public:
  Result<const T*> PinPartition(size_t p) {
    auto r = bm_->Pin(this, p);
    if (!r.ok()) return r.status();
    return static_cast<const T*>(r.value());
  }
  void UnpinPartition(size_t p) { bm_->Unpin(this, p); }
  void PrefetchPartition(size_t p) { bm_->Prefetch(this, p); }
};

}  // namespace sgxb::storage

#endif  // SGXB_STORAGE_BUFFER_MANAGER_H_
