#include "join/pht_join.h"

#include <atomic>
#include <cassert>
#include <new>
#include <optional>
#include <vector>

#include "common/barrier.h"
#include "common/parallel.h"
#include "exec/probe_pipeline.h"
#include "join/hash_table.h"
#include "join/materializer.h"
#include "sync/spinlock.h"

namespace sgxb::join {

namespace {

// The table itself (latched build, latch-free snapshot probe, batched
// probe cursor) lives in join/hash_table.h.
using HashTable = BucketChainTable;

// PHT's build and probe loops walk latched bucket chains: they are
// latency-bound, not ILP-bound, so enclave mode does not add the tight-
// loop compute penalty the histogram suffers (the paper measures 95%
// relative performance for the cache-resident case, Fig. 4). What the
// unroll-and-reorder optimization restores for PHT is memory-level
// parallelism on the out-of-cache accesses (software_mlp).

perf::AccessProfile BuildProfile(size_t build_n, size_t table_bytes,
                                 KernelFlavor flavor) {
  perf::AccessProfile p;
  p.seq_read_bytes = build_n * sizeof(Tuple);
  p.rand_writes = build_n;
  p.rand_write_working_set = table_bytes;
  p.loop_iterations = build_n;
  p.ilp = perf::IlpClass::kStreaming;
  p.cpi_hint = 3.0;  // latch + chain maintenance
  p.software_mlp = flavor == KernelFlavor::kUnrolledReordered;
  return p;
}

perf::AccessProfile ProbeProfile(size_t probe_n, size_t table_bytes,
                                 KernelFlavor flavor, bool batched) {
  perf::AccessProfile p;
  p.seq_read_bytes = probe_n * sizeof(Tuple);
  p.rand_reads = probe_n;
  p.rand_read_working_set = table_bytes;
  p.rand_reads_dependent = false;  // independent probes overlap
  p.loop_iterations = probe_n;
  p.ilp = perf::IlpClass::kStreaming;
  p.cpi_hint = 2.0;
  p.software_mlp = flavor == KernelFlavor::kUnrolledReordered || batched;
  // Batched drivers keep every bucket fetch behind a software prefetch.
  if (batched) p.hidden_random_reads = probe_n;
  return p;
}

}  // namespace

size_t PhtHashTableBytes(size_t build_tuples) {
  return BucketChainTable::BytesFor(build_tuples);
}

Result<JoinResult> PhtJoin(const Relation& build, const Relation& probe,
                           const JoinConfig& config) {
  SGXB_RETURN_NOT_OK(ValidateJoinInputs(build, probe, config));

  const size_t table_bytes = BucketChainTable::BytesFor(build.num_tuples());

  JoinScratch scratch(config);
  auto table_buf = scratch.Allocate(table_bytes);
  if (!table_buf.ok()) return table_buf.status();

  HashTable table;
  table.Bind(table_buf.value(), build.num_tuples());
  const size_t num_buckets = table.num_buckets;

  const int threads = config.num_threads;
  Barrier barrier(threads);
  PhaseRecorder recorder;
  std::vector<uint64_t> matches(threads, 0);
  std::optional<Materializer> own_mat;
  Materializer* mat = config.output;
  if (config.materialize && mat == nullptr) {
    own_mat.emplace(threads, EffectiveResource(config),
                    Materializer::kDefaultChunkTuples, config.arena_pool);
    mat = &*own_mat;
  }
  const bool in_enclave = config.setting != ExecutionSetting::kPlainCpu;
  const KernelFlavor flavor = config.flavor;
  const exec::ProbeMode probe_mode = EffectiveProbeMode(config);
  const int probe_width = EffectiveProbeWidth(config, probe_mode);
  const bool batched = probe_mode != exec::ProbeMode::kTupleAtATime;

  Status run_status = ParallelRun(threads, [&](int tid) {
    std::optional<sgx::ScopedEcall> ecall;
    if (in_enclave) ecall.emplace();

    // Initialize bucket headers in parallel (part of setup, measured as
    // its own phase like the original code's allocation step).
    Range init = SplitRange(num_buckets, threads, tid);
    table.InitBuckets(init.begin, init.end);
    barrier.WaitThen([&] { recorder.Begin(); });

    // --- Build phase ---
    Range r = SplitRange(build.num_tuples(), threads, tid);
    const Tuple* bt = build.tuples();
    if (flavor == KernelFlavor::kReference) {
      for (size_t i = r.begin; i < r.end; ++i) table.Insert(bt[i]);
    } else {
      // Unrolled + reordered: compute the next 8 hashes up front, then
      // issue the inserts (same structure as Listing 2).
      size_t i = r.begin;
      for (; i + 8 <= r.end; i += 8) {
        uint32_t h[8];
        for (int k = 0; k < 8; ++k) {
          h[k] = HashKey(bt[i + k].key, table.hash_bits);
        }
        asm volatile("" ::: "memory");
        for (int k = 0; k < 8; ++k) {
          (void)h[k];
          table.Insert(bt[i + k]);
        }
      }
      for (; i < r.end; ++i) table.Insert(bt[i]);
    }
    barrier.WaitThen([&] {
      recorder.End("build",
                   BuildProfile(build.num_tuples(), table_bytes, flavor),
                   threads);
    });

    // --- Probe phase ---
    Range s = SplitRange(probe.num_tuples(), threads, tid);
    const Tuple* pt = probe.tuples();
    uint64_t local = 0;
    auto run_probe = [&](auto on_match) {
      if (!batched) {
        for (size_t j = s.begin; j < s.end; ++j) {
          local += table.ProbeBucket(HashKey(pt[j].key, table.hash_bits),
                                     pt[j], on_match);
        }
        return;
      }
      std::vector<BucketChainCursor<decltype(on_match)>> cursors(
          static_cast<size_t>(probe_width));
      for (auto& c : cursors) {
        c.table = &table;
        c.on_match = &on_match;
      }
      exec::BatchedProbe(probe_mode, pt + s.begin, s.end - s.begin,
                         probe_width, cursors.data());
      for (const auto& c : cursors) local += c.matches;
    };
    if (config.materialize) {
      Materializer* m = mat;
      run_probe([&, m](const Tuple& b, const Tuple& p) {
        m->Append(tid, JoinOutputTuple{b.key, b.payload, p.payload});
      });
    } else {
      run_probe([](const Tuple&, const Tuple&) {});
    }
    matches[tid] = local;
    barrier.WaitThen([&] {
      recorder.End("probe",
                   ProbeProfile(probe.num_tuples(), table_bytes, flavor,
                                batched),
                   threads);
    });
  });
  SGXB_RETURN_NOT_OK(run_status);

  if (mat != nullptr) {
    SGXB_RETURN_NOT_OK(mat->status());
  }

  JoinResult result;
  result.phases = recorder.Take();
  result.host_ns = result.phases.TotalHostNs();
  result.threads = threads;
  for (uint64_t m : matches) result.matches += m;
  // `scratch` releases the hash table (and credits enclave accounting)
  // on scope exit.
  return result;
}

}  // namespace sgxb::join
