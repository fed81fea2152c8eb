// Experiment E2 (EXPERIMENTS.md): the maintenance-cost landscape.
//
// Paper claims reproduced:
//  * Theorem 3.3: split-free key-equivalent schemes are ctm — Algorithm 5's
//    per-insert cost is flat in the state size.
//  * Theorem 3.2: key-equivalent schemes are algebraic-maintainable —
//    Algorithm 2's cost is flat in the state size (given the maintained
//    representative-instance index).
//  * The naive baseline (re-chase the whole state tableau) grows linearly+
//    with the state — this is the cost the paper's algorithms remove.
//
// Series: per-CheckInsert time vs state size (number of entities), for
//  - ctm/chain:       Algorithm 5 on the split-free chain scheme (one
//                     split-free block of a ShardedMaintainer)
//  - alg2/chain:      Algorithm 2 forced onto the same scheme (the kernel
//                     on a representative instance)
//  - alg2/split:      Algorithm 2 on the split scheme (Example 5 family;
//                     one split block of a ShardedMaintainer)
//  - naive/chain, naive/split: full re-chase baseline
//  - sharded/*:       the multi-block router (ShardedMaintainer); pass
//                     --shards=N to size its validation pool (default 1)

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "core/key_equivalent_maintainer.h"
#include "core/sharded_maintainer.h"
#include "obs/export.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace ird {

// Worker-pool width for the sharded benchmarks (--shards=N; default 1,
// i.e. the serial single-thread profile). Set by main() below.
size_t g_shard_jobs = 1;

namespace {

constexpr size_t kStreamLength = 256;
constexpr double kConflictRate = 0.25;

DatabaseState MakeState(const DatabaseScheme& scheme, size_t entities) {
  StateGenOptions opt;
  opt.entities = entities;
  opt.coverage = 0.7;
  opt.seed = 1234;
  return MakeConsistentState(scheme, opt);
}

void BM_CtmCheckInsert_Chain(benchmark::State& bench) {
  DatabaseScheme scheme = MakeChainScheme(4);
  DatabaseState state = MakeState(scheme, bench.range(0));
  auto stream =
      MakeInsertStream(scheme, state, kStreamLength, kConflictRate, 42);
  auto m = ShardedMaintainer::Create(std::move(state), 1, /*verify=*/false);
  IRD_CHECK(m.ok());
  size_t i = 0;
  size_t probes = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    // On a split-free block, lookups tallies Algorithm 5's index probes.
    MaintenanceStats stats;
    auto verdict = m->CheckInsert(ins.rel, ins.tuple, &stats);
    benchmark::DoNotOptimize(verdict);
    probes += stats.lookups;
  }
  bench.counters["tuples"] =
      static_cast<double>(m->sharded_state().TupleCount());
  bench.counters["probes/op"] =
      static_cast<double>(probes) / static_cast<double>(bench.iterations());
}
BENCHMARK(BM_CtmCheckInsert_Chain)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

// Algorithm 2 forced onto the split-free chain, which the maintainer would
// route to Algorithm 5: the kernel on the state's representative instance.
void BM_Alg2CheckInsert_Chain(benchmark::State& bench) {
  DatabaseScheme scheme = MakeChainScheme(4);
  DatabaseState state = MakeState(scheme, bench.range(0));
  auto index = RepresentativeIndex::Build(state);
  IRD_CHECK(index.ok());
  auto stream =
      MakeInsertStream(scheme, state, kStreamLength, kConflictRate, 42);
  size_t i = 0;
  size_t lookups = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    MaintenanceStats stats;
    auto verdict = CheckInsertKeyEquivalent(scheme, *index, ins.rel,
                                            ins.tuple, &stats);
    benchmark::DoNotOptimize(verdict);
    lookups += stats.lookups;
  }
  bench.counters["tuples"] = static_cast<double>(state.TupleCount());
  bench.counters["lookups/op"] =
      static_cast<double>(lookups) / static_cast<double>(bench.iterations());
}
BENCHMARK(BM_Alg2CheckInsert_Chain)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

void BM_Alg2CheckInsert_Split(benchmark::State& bench) {
  DatabaseScheme scheme = MakeSplitScheme(3);
  DatabaseState state = MakeState(scheme, bench.range(0));
  auto stream =
      MakeInsertStream(scheme, state, kStreamLength, kConflictRate, 42);
  auto m = ShardedMaintainer::Create(std::move(state), 1, /*verify=*/false);
  IRD_CHECK(m.ok());
  size_t i = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    auto verdict = m->CheckInsert(ins.rel, ins.tuple);
    benchmark::DoNotOptimize(verdict);
  }
  bench.counters["tuples"] =
      static_cast<double>(m->sharded_state().TupleCount());
}
BENCHMARK(BM_Alg2CheckInsert_Split)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

// The multi-block router: a three-block scheme, each insert routed to its
// block's Algorithm 5/2 check through ShardedMaintainer::CheckInsert.
void BM_ShardedCheckInsert(benchmark::State& bench) {
  DatabaseScheme scheme = MakeBlockScheme(3, 3);
  DatabaseState state = MakeState(scheme, bench.range(0));
  auto m = ShardedMaintainer::Create(std::move(state), g_shard_jobs,
                                     /*verify=*/false);
  IRD_CHECK(m.ok());
  auto stream = MakeInsertStream(scheme, m->Materialize(),
                                 kStreamLength, kConflictRate, 42);
  size_t i = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    auto verdict = m->CheckInsert(ins.rel, ins.tuple);
    benchmark::DoNotOptimize(verdict);
  }
  bench.counters["blocks"] = static_cast<double>(m->sharded_state().shard_count());
  bench.counters["jobs"] = static_cast<double>(m->jobs());
}
BENCHMARK(BM_ShardedCheckInsert)->Arg(100)->Arg(1000)->Arg(10000);

// Batched validation across shards: each iteration pushes a 64-op slice of
// the stream through InsertBatch, so distinct blocks validate on the pool
// (--shards=N workers). Applied inserts grow the state, as in
// BM_CtmApplyInsert, and a batch's time is check plus apply: the relation
// dedup and index updates included, so the series is flat only if the
// applied path is.
void BM_ShardedInsertBatch(benchmark::State& bench) {
  DatabaseScheme scheme = MakeBlockScheme(4, 3);
  DatabaseState state = MakeState(scheme, bench.range(0));
  auto m = ShardedMaintainer::Create(std::move(state), g_shard_jobs,
                                     /*verify=*/false);
  IRD_CHECK(m.ok());
  auto stream = MakeInsertStream(scheme, m->Materialize(), 4096,
                                 kConflictRate, 42);
  constexpr size_t kBatch = 64;
  size_t i = 0;
  size_t accepted = 0;
  for (auto _ : bench) {
    std::vector<InsertOp> ops;
    ops.reserve(kBatch);
    for (size_t k = 0; k < kBatch; ++k) {
      const InsertInstance& ins = stream[i++ % stream.size()];
      ops.push_back({ins.rel, ins.tuple});
    }
    std::vector<Status> verdicts = m->InsertBatch(ops);
    for (const Status& s : verdicts) accepted += s.ok() ? 1 : 0;
    benchmark::DoNotOptimize(verdicts);
  }
  bench.counters["blocks"] = static_cast<double>(m->sharded_state().shard_count());
  bench.counters["jobs"] = static_cast<double>(m->jobs());
  bench.counters["accepted/batch"] =
      static_cast<double>(accepted) / static_cast<double>(bench.iterations());
}
BENCHMARK(BM_ShardedInsertBatch)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

void NaiveCheckInsert(benchmark::State& bench, DatabaseScheme scheme) {
  DatabaseState state = MakeState(scheme, bench.range(0));
  auto stream =
      MakeInsertStream(scheme, state, kStreamLength, kConflictRate, 42);
  size_t i = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    bool verdict = WouldRemainConsistent(state, ins.rel, ins.tuple);
    benchmark::DoNotOptimize(verdict);
  }
  bench.counters["tuples"] = static_cast<double>(state.TupleCount());
}

void BM_NaiveCheckInsert_Chain(benchmark::State& bench) {
  NaiveCheckInsert(bench, MakeChainScheme(4));
}
BENCHMARK(BM_NaiveCheckInsert_Chain)->Arg(100)->Arg(1000)->Arg(10000);

void BM_NaiveCheckInsert_Split(benchmark::State& bench) {
  NaiveCheckInsert(bench, MakeSplitScheme(3));
}
BENCHMARK(BM_NaiveCheckInsert_Split)->Arg(100)->Arg(1000)->Arg(10000);

// Amortized cost of *applied* inserts (index maintenance included): builds
// the state through the maintainer itself (one split-free block, so
// Algorithm 5 plus the relation's key-table update).
void BM_CtmApplyInsert(benchmark::State& bench) {
  DatabaseScheme scheme = MakeChainScheme(4);
  DatabaseState empty(scheme);
  auto stream = MakeInsertStream(scheme, empty, 100000,
                                 /*conflict_rate=*/0.0, 77);
  auto m = ShardedMaintainer::Create(std::move(empty));
  IRD_CHECK(m.ok());
  size_t i = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    benchmark::DoNotOptimize(m->Insert(ins.rel, ins.tuple));
  }
  bench.counters["final_tuples"] =
      static_cast<double>(m->sharded_state().TupleCount());
}
BENCHMARK(BM_CtmApplyInsert)->Iterations(100000);

}  // namespace
}  // namespace ird

// IRD_BENCHMARK_MAIN plus one extra flag: --shards=N (or --shards N) sizes
// the sharded benchmarks' validation pool. It must be stripped before
// benchmark::Initialize — ReportUnrecognizedArguments rejects flags the
// library doesn't know.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      ird::g_shard_jobs = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      ird::g_shard_jobs = std::strtoull(argv[++i], nullptr, 10);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (ird::g_shard_jobs == 0) ird::g_shard_jobs = 1;

  ird::obs::InitFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ird::obs::ExportFromEnv(argv[0]);
}
