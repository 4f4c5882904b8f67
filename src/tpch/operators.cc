#include "tpch/operators.h"

#include <atomic>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "join/materializer.h"
#include "obs/metrics.h"
#include "scan/scan_kernels.h"

namespace sgxb::tpch {

namespace {

Result<AlignedBuffer> AllocForSetting(size_t bytes,
                                      const QueryConfig& config) {
  return EffectiveResource(config)->Allocate(bytes);
}

join::JoinConfig ToJoinConfig(const QueryConfig& config, bool materialize) {
  join::JoinConfig jc;
  jc.num_threads = config.num_threads;
  jc.flavor = config.flavor;
  jc.setting = config.setting;
  jc.enclave = config.enclave;
  jc.materialize = materialize;
  jc.radix_bits = config.radix_bits;
  jc.radix_passes = 2;
  jc.resource = config.resource;
  jc.arena_pool = config.arena_pool;
  return jc;
}

}  // namespace

mem::MemoryResource* EffectiveResource(const QueryConfig& config) {
  if (config.resource != nullptr) return config.resource;
  return mem::ResourceFor(config.setting, config.enclave);
}

void ChargeBytesMaterialized(uint64_t bytes) {
  if (bytes == 0) return;
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter(obs::kCtrBytesMaterialized);
  counter->Add(bytes);
}

Result<RowIdList> RowIdList::Allocate(size_t capacity,
                                      const QueryConfig& config) {
  RowIdList list;
  if (capacity == 0) capacity = 1;
  // capacity * sizeof(uint64_t) must not wrap: a silently-short buffer
  // would turn the operators' "worst case fits" writes into corruption.
  if (capacity > std::numeric_limits<size_t>::max() / sizeof(uint64_t)) {
    return Status::InvalidArgument(
        "RowIdList capacity overflows size_t: " +
        std::to_string(capacity));
  }
  auto buf = AllocForSetting(capacity * sizeof(uint64_t), config);
  if (!buf.ok()) return buf.status();
  list.buf_ = std::move(buf).value();
  return list;
}

void OpRecorder::Absorb(const std::string& prefix,
                        const perf::PhaseBreakdown& other) {
  for (const auto& phase : other.phases) {
    perf::PhaseStats s = phase;
    s.name = prefix + "." + phase.name;
    breakdown_.Add(std::move(s));
  }
}

namespace {

// The skeleton of the filters and RefineRows. `slice` writes the ids it
// keeps from one thread's slice r of [0, n) to `out`, the slice's own
// place in the result (room for r.size() ids), and returns how many; the
// slices are then compacted in order, so the list is the same for every
// thread count and view kind. `profile(kept)` labels the phase.
Result<RowIdList> RunSlices(
    size_t n, const std::function<Result<size_t>(Range, uint64_t*)>& slice,
    const std::function<perf::AccessProfile(uint64_t)>& profile,
    const QueryConfig& config, OpRecorder* rec, const std::string& name) {
  auto out = RowIdList::Allocate(n, config);
  if (!out.ok()) return out.status();
  RowIdList result = std::move(out).value();

  const int threads = config.num_threads;
  std::vector<uint64_t> counts(threads, 0);
  std::vector<Status> thread_status(threads);
  WallTimer timer;
  Status run_status = ParallelRun(threads, [&](int tid) {
    const Range r = SplitRange(n, threads, tid);
    Result<size_t> kept = slice(r, result.ids() + r.begin);
    if (kept.ok()) {
      counts[tid] = kept.value();
    } else {
      thread_status[tid] = kept.status();
    }
  });
  SGXB_RETURN_NOT_OK(run_status);
  for (const Status& s : thread_status) SGXB_RETURN_NOT_OK(s);
  uint64_t total = counts[0];
  for (int t = 1; t < threads; ++t) {
    const Range r = SplitRange(n, threads, t);
    if (counts[t] > 0 && r.begin != total) {
      std::move(result.ids() + r.begin, result.ids() + r.begin + counts[t],
                result.ids() + total);
    }
    total += counts[t];
  }
  result.set_count(total);
  ChargeBytesMaterialized(total * sizeof(uint64_t));

  if (rec != nullptr) {
    rec->Record(name, static_cast<double>(timer.ElapsedNanos()),
                profile(total), threads);
  }
  return result;
}

// sigma(lo <= col <= hi) over any view kind: each thread scans its slice
// of the rows with ScanMorsel.
template <typename T>
Result<RowIdList> FilterRuns(storage::ColumnView<T> col, T lo, T hi,
                             uint64_t (*kernel)(const T*, size_t, T, T,
                                                uint64_t, uint64_t*),
                             const QueryConfig& config, OpRecorder* rec,
                             const std::string& name) {
  return RunSlices(
      col.num_values(),
      [&](Range r, uint64_t* out) {
        return ScanMorsel(col, r, lo, hi, out, kernel);
      },
      [&](uint64_t kept) {
        perf::AccessProfile p;
        p.seq_read_bytes = col.size_bytes();
        p.seq_write_bytes = kept * sizeof(uint64_t);
        p.loop_iterations = col.num_values();
        p.ilp = perf::IlpClass::kStreaming;
        return p;
      },
      config, rec, name);
}

}  // namespace

Result<RowIdList> FilterU8Range(storage::ColumnView<uint8_t> col,
                                uint8_t lo, uint8_t hi,
                                const QueryConfig& config, OpRecorder* rec,
                                const std::string& name) {
  return FilterRuns(col, lo, hi, scan::PickRowIdKernel(SimdLevel::kAvx512),
                    config, rec, name);
}

Result<RowIdList> FilterU32Range(storage::ColumnView<uint32_t> col,
                                 uint32_t lo, uint32_t hi,
                                 const QueryConfig& config, OpRecorder* rec,
                                 const std::string& name) {
  return FilterRuns(col, lo, hi,
                    scan::PickRowIdKernelU32(SimdLevel::kAvx512), config,
                    rec, name);
}

Result<RowIdList> RefineRows(const RowIdList& in, const SliceRefiner& refine,
                             size_t gather_bytes, const QueryConfig& config,
                             OpRecorder* rec, const std::string& name) {
  return RunSlices(
      in.count(),
      [&](Range r, uint64_t* out) {
        return refine(in.ids() + r.begin, r.size(), out);
      },
      [&](uint64_t kept) {
        perf::AccessProfile p;
        p.seq_read_bytes = in.count() * sizeof(uint64_t);
        p.rand_reads = in.count();
        p.rand_read_working_set = gather_bytes;
        p.seq_write_bytes = kept * sizeof(uint64_t);
        p.loop_iterations = in.count();
        p.ilp = perf::IlpClass::kUnrolledReordered;
        return p;
      },
      config, rec, name);
}

Result<Relation> GatherKeys(storage::ColumnView<uint32_t> keys,
                            const RowIdList* rows,
                            const QueryConfig& config, OpRecorder* rec,
                            const std::string& name) {
  const size_t n = rows != nullptr ? rows->count() : keys.num_values();
  // An empty selection yields a genuinely empty relation (never pad with
  // uninitialized tuples — downstream joins would "match" garbage). The
  // resource's placement tag replaces the old setting-derived region
  // guess, so the cost model sees where the gather output actually lives.
  auto rel = Relation::AllocateFrom(EffectiveResource(config), n);
  if (!rel.ok()) return rel.status();
  Relation result = std::move(rel).value();
  if (n == 0) {
    if (rec != nullptr) {
      rec->Record(name, 0.0, perf::AccessProfile{}, config.num_threads);
    }
    return result;
  }

  // Morsel-driven: every output row lands at its own index, so ranges can
  // be scheduled freely and the row-id gather (random reads into the key
  // column) re-balances across lanes when ids cluster on hot pages.
  WallTimer timer;
  const int threads = config.num_threads;
  ParallelForOptions opts;
  opts.num_threads = threads;
  // A reader per morsel invocation: free for resident views, and for
  // paged views the ascending ids make nearly every access hit the
  // reader's cached pin. Lanes run their morsels serially, so the
  // per-lane status slot has no race.
  std::vector<Status> lane_status(threads);
  Status run_status = ParallelFor(
      n, /*grain=*/64 * 1024,
      [&](Range r, int lane) {
        Tuple* out = result.tuples();
        storage::ColumnReader<uint32_t> key(keys);
        if (rows != nullptr) {
          const uint64_t* ids = rows->ids();
          for (size_t i = r.begin; i < r.end; ++i) {
            out[i].key = key[ids[i]];
            out[i].payload = static_cast<uint32_t>(ids[i]);
          }
        } else {
          for (size_t i = r.begin; i < r.end; ++i) {
            out[i].key = key[i];
            out[i].payload = static_cast<uint32_t>(i);
          }
        }
        if (!key.status().ok()) lane_status[lane] = key.status();
      },
      opts);
  SGXB_RETURN_NOT_OK(run_status);
  for (const Status& s : lane_status) SGXB_RETURN_NOT_OK(s);
  ChargeBytesMaterialized(n * sizeof(Tuple));

  if (rec != nullptr) {
    perf::AccessProfile p;
    p.seq_read_bytes = n * sizeof(uint64_t);
    p.rand_reads = rows != nullptr ? n : 0;
    p.rand_read_working_set = keys.size_bytes();
    p.seq_write_bytes = n * sizeof(Tuple);
    p.loop_iterations = n;
    p.ilp = perf::IlpClass::kUnrolledReordered;
    rec->Record(name, static_cast<double>(timer.ElapsedNanos()), p,
                threads);
  }
  return result;
}

Result<JoinStepResult> MaterializingJoin(const Relation& build,
                                         const Relation& probe,
                                         const QueryConfig& config,
                                         OpRecorder* rec,
                                         const std::string& name,
                                         join::JoinAlgorithm algo) {
  // The join's own materializer produces JoinOutputTuples; the probe-side
  // payload is the probe row id, which is what the next operator needs.
  // Empty inputs short-circuit (a filter can legitimately select nothing).
  JoinStepResult step;
  if (build.empty() || probe.empty()) {
    auto empty = RowIdList::Allocate(1, config);
    if (!empty.ok()) return empty.status();
    step.probe_rows = std::move(empty).value();
    return step;
  }

  join::JoinConfig jc = ToJoinConfig(config, /*materialize=*/true);
  join::Materializer sink(config.num_threads, EffectiveResource(config),
                          join::Materializer::kDefaultChunkTuples,
                          config.arena_pool);
  jc.output = &sink;
  auto jr = join::RunJoin(algo, build, probe, jc);
  if (!jr.ok()) return jr.status();
  step.matches = jr.value().matches;
  if (rec != nullptr) rec->Absorb(name, jr.value().phases);

  // Project the probe-side row ids out of the materialized output; this
  // is the input selection vector of the next operator.
  auto rows = RowIdList::Allocate(step.matches, config);
  if (!rows.ok()) return rows.status();
  step.probe_rows = std::move(rows).value();
  uint64_t k = 0;
  uint64_t* ids = step.probe_rows.ids();
  sink.ForEachChunk([&](const JoinOutputTuple* chunk, size_t n) {
    for (size_t i = 0; i < n; ++i) ids[k++] = chunk[i].probe_payload;
  });
  step.probe_rows.set_count(k);
  // The materialized join output plus the row-id projection of it; both
  // are written here and re-read by the next operator.
  ChargeBytesMaterialized(step.matches * sizeof(JoinOutputTuple) +
                          k * sizeof(uint64_t));
  return step;
}

Result<uint64_t> CountingJoin(const Relation& build, const Relation& probe,
                              const QueryConfig& config, OpRecorder* rec,
                              const std::string& name,
                              join::JoinAlgorithm algo) {
  if (build.empty() || probe.empty()) return uint64_t{0};
  join::JoinConfig jc = ToJoinConfig(config, /*materialize=*/false);
  auto jr = join::RunJoin(algo, build, probe, jc);
  if (!jr.ok()) return jr.status();
  if (rec != nullptr) rec->Absorb(name, jr.value().phases);
  return jr.value().matches;
}

namespace {

// Per-thread partial rows are padded to a whole cache line so lanes
// never false-share, and the padded table is the unit the aggregation
// operators allocate from the query's resource.
constexpr size_t PartialStride(size_t groups, size_t elem_bytes) {
  const size_t per_line = kCacheLineSize / elem_bytes;
  return (groups + per_line - 1) / per_line * per_line;
}

}  // namespace

Result<std::vector<uint64_t>> GroupCountU8ViaFk(
    storage::ColumnView<uint8_t> values, storage::ColumnView<uint32_t> fk,
    const RowIdList& rows, int num_groups, const QueryConfig& config,
    OpRecorder* rec, const std::string& name) {
  if (num_groups <= 0 || num_groups > 4096) {
    return Status::InvalidArgument("num_groups must be in [1, 4096]");
  }
  const int threads = config.num_threads;
  // The per-thread partial tables are the operator's only substantive
  // allocation, so they come from the query's resource (enclave-charged
  // under SGX settings) like every other operator intermediate; only the
  // num_groups-sized result copy-out below leaves through the host heap.
  const size_t stride = PartialStride(num_groups, sizeof(uint64_t));
  auto partial_buf = EffectiveResource(config)->AllocateZeroed(
      static_cast<size_t>(threads) * stride * sizeof(uint64_t));
  if (!partial_buf.ok()) return partial_buf.status();
  AlignedBuffer partials = std::move(partial_buf).value();
  uint64_t* const partial_rows = partials.As<uint64_t>();
  std::vector<Status> thread_status(threads);

  const size_t n = rows.count();
  WallTimer timer;
  Status run_status = ParallelRun(threads, [&](int tid) {
    const Range r = SplitRange(n, threads, tid);
    thread_status[tid] = CountGroupsViaFk(
        values, fk, rows.ids() + r.begin, r.size(), num_groups,
        partial_rows + static_cast<size_t>(tid) * stride);
  });
  SGXB_RETURN_NOT_OK(run_status);
  for (const Status& s : thread_status) SGXB_RETURN_NOT_OK(s);

  std::vector<uint64_t> counts(num_groups, 0);
  for (int t = 0; t < threads; ++t) {
    const uint64_t* local = partial_rows + static_cast<size_t>(t) * stride;
    for (int g = 0; g < num_groups; ++g) counts[g] += local[g];
  }
  if (rec != nullptr) {
    perf::AccessProfile p;
    p.seq_read_bytes = n * sizeof(uint64_t);
    p.rand_reads = n;
    p.rand_read_working_set = values.size_bytes() + fk.size_bytes();
    p.rand_writes = n;
    p.rand_write_working_set = num_groups * sizeof(uint64_t);
    p.loop_iterations = n;
    p.ilp = perf::IlpClass::kReferenceLoop;
    rec->Record(name, static_cast<double>(timer.ElapsedNanos()), p,
                threads);
  }
  return counts;
}

Status CountGroupsViaFk(storage::ColumnView<uint8_t> values,
                        storage::ColumnView<uint32_t> fk,
                        const uint64_t* ids, size_t n, int num_groups,
                        uint64_t* counts) {
  storage::ColumnReader<uint8_t> value_r(values);
  storage::ColumnReader<uint32_t> fk_r(fk);
  size_t i = 0;
  for (; i < n; ++i) {
    const int g = value_r[fk_r[ids[i]]];
    if (g >= num_groups) break;
    ++counts[g];
  }
  // Pin failures first: a failed read yields 0, which is a valid group,
  // so a code out of range may be a symptom rather than the cause.
  SGXB_RETURN_NOT_OK(fk_r.status());
  SGXB_RETURN_NOT_OK(value_r.status());
  if (i < n) {
    return Status::Internal("group code out of range [0, " +
                            std::to_string(num_groups) + ")");
  }
  return Status::OK();
}

Result<std::vector<GroupAgg>> GroupSumU32By2U8(
    storage::ColumnView<uint32_t> value, storage::ColumnView<uint8_t> g1,
    int num_g1, storage::ColumnView<uint8_t> g2, int num_g2,
    const RowIdList* rows, const QueryConfig& config, OpRecorder* rec,
    const std::string& name) {
  if (num_g1 <= 0 || num_g2 <= 0 || num_g1 * num_g2 > 4096) {
    return Status::InvalidArgument("bad group dimensions");
  }
  const int groups = num_g1 * num_g2;
  const size_t n = rows != nullptr ? rows->count() : value.num_values();
  const uint64_t* ids = rows != nullptr ? rows->ids() : nullptr;

  const int threads = config.num_threads;
  // Resource-routed like GroupCountImpl: padded per-thread rows from the
  // query's resource, with only the groups-sized result copied out.
  static_assert(std::is_trivially_destructible_v<GroupAgg>);
  const size_t stride = PartialStride(groups, sizeof(GroupAgg));
  auto partial_buf = EffectiveResource(config)->AllocateZeroed(
      static_cast<size_t>(threads) * stride * sizeof(GroupAgg));
  if (!partial_buf.ok()) return partial_buf.status();
  AlignedBuffer partials = std::move(partial_buf).value();
  GroupAgg* const partial_rows = partials.As<GroupAgg>();
  std::atomic<bool> out_of_range{false};
  std::vector<Status> thread_status(threads);

  WallTimer timer;
  Status run_status = ParallelRun(threads, [&](int tid) {
    Range r = SplitRange(n, threads, tid);
    storage::ColumnReader<uint32_t> vals(value);
    storage::ColumnReader<uint8_t> d1(g1);
    storage::ColumnReader<uint8_t> d2(g2);
    GroupAgg* local = partial_rows + static_cast<size_t>(tid) * stride;
    for (size_t i = r.begin; i < r.end; ++i) {
      const size_t id = ids != nullptr ? ids[i] : i;
      const int c1 = d1[id];
      const int c2 = d2[id];
      if (c1 >= num_g1 || c2 >= num_g2) {
        out_of_range.store(true, std::memory_order_relaxed);
        break;
      }
      const int g = c1 * num_g2 + c2;
      ++local[g].count;
      local[g].sum += vals[id];
    }
    if (!vals.status().ok()) {
      thread_status[tid] = vals.status();
    } else if (!d1.status().ok()) {
      thread_status[tid] = d1.status();
    } else {
      thread_status[tid] = d2.status();
    }
  });
  SGXB_RETURN_NOT_OK(run_status);
  for (const Status& s : thread_status) SGXB_RETURN_NOT_OK(s);
  if (out_of_range.load()) {
    return Status::Internal("group code out of range in " + name);
  }

  std::vector<GroupAgg> result(groups);
  for (int t = 0; t < threads; ++t) {
    const GroupAgg* local = partial_rows + static_cast<size_t>(t) * stride;
    for (int g = 0; g < groups; ++g) {
      result[g].count += local[g].count;
      result[g].sum += local[g].sum;
    }
  }
  if (rec != nullptr) {
    perf::AccessProfile p;
    p.seq_read_bytes = n * (sizeof(uint64_t) + sizeof(uint32_t) + 2);
    p.rand_writes = n;
    p.rand_write_working_set = groups * sizeof(GroupAgg);
    p.loop_iterations = n;
    p.ilp = perf::IlpClass::kReferenceLoop;
    rec->Record(name, static_cast<double>(timer.ElapsedNanos()), p,
                threads);
  }
  return result;
}

Result<uint64_t> SumProductU32(storage::ColumnView<uint32_t> a,
                               storage::ColumnView<uint32_t> b,
                               const RowIdList& rows,
                               const QueryConfig& config, OpRecorder* rec,
                               const std::string& name) {
  const uint64_t* ids = rows.ids();
  const int threads = config.num_threads;
  // Morsel-driven reduction: lanes accumulate into per-lane slots (a lane
  // runs many morsels, so slots are indexed by lane, not morsel) and the
  // slots are summed after the gang completes.
  std::vector<uint64_t> partials(threads, 0);
  std::vector<Status> lane_status(threads);
  ParallelForOptions opts;
  opts.num_threads = threads;

  WallTimer timer;
  Status run_status = ParallelFor(
      rows.count(), /*grain=*/64 * 1024,
      [&](Range r, int lane) {
        storage::ColumnReader<uint32_t> da(a);
        storage::ColumnReader<uint32_t> db(b);
        uint64_t local = 0;
        for (size_t i = r.begin; i < r.end; ++i) {
          const size_t id = ids[i];
          local += static_cast<uint64_t>(da[id]) * db[id];
        }
        partials[lane] += local;
        if (!da.status().ok()) {
          lane_status[lane] = da.status();
        } else if (!db.status().ok()) {
          lane_status[lane] = db.status();
        }
      },
      opts);
  SGXB_RETURN_NOT_OK(run_status);
  for (const Status& s : lane_status) SGXB_RETURN_NOT_OK(s);
  uint64_t total = 0;
  for (uint64_t v : partials) total += v;

  if (rec != nullptr) {
    perf::AccessProfile p;
    p.seq_read_bytes = rows.count() * sizeof(uint64_t);
    p.rand_reads = rows.count() * 2;
    p.rand_read_working_set = a.size_bytes() + b.size_bytes();
    p.loop_iterations = rows.count();
    p.ilp = perf::IlpClass::kStreaming;
    rec->Record(name, static_cast<double>(timer.ElapsedNanos()), p,
                threads);
  }
  return total;
}

}  // namespace sgxb::tpch
