// Ablation experiments for the design choices DESIGN.md calls out:
//  A1  attribute-set closure: one ClosureEngine per query (a one-off
//      FdSet::Closure) vs one engine reused across the loop, as the
//      recognition pipeline and every many-closure loop do.
//  A2  Algorithm 2's lookup source: maintained representative-instance
//      index vs the §3.2 pure-expression evaluation (same verdicts, very
//      different constants).
//  A3  building the representative instance: Algorithm 1's merge engine vs
//      the generic tableau chase.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "core/expression_maintenance.h"
#include "hypergraph/gamma_cycle.h"
#include "core/representative_index.h"
#include "core/sharded_maintainer.h"
#include "fd/closure_engine.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace ird {
namespace {

// --- A1: closure computation --------------------------------------------

DatabaseScheme ClosureScheme(size_t blocks) {
  return MakeBlockScheme(blocks, 4);
}

void BM_Closure_EnginePerQuery(benchmark::State& bench) {
  DatabaseScheme scheme = ClosureScheme(static_cast<size_t>(bench.range(0)));
  const FdSet& f = scheme.key_dependencies();
  size_t i = 0;
  for (auto _ : bench) {
    const AttributeSet& x = scheme.relation(i++ % scheme.size()).attrs;
    benchmark::DoNotOptimize(f.Closure(x));
  }
  bench.counters["fds"] = static_cast<double>(f.size());
}
BENCHMARK(BM_Closure_EnginePerQuery)->Arg(2)->Arg(8)->Arg(16);

void BM_Closure_Engine(benchmark::State& bench) {
  DatabaseScheme scheme = ClosureScheme(static_cast<size_t>(bench.range(0)));
  ClosureEngine engine(scheme.key_dependencies());
  size_t i = 0;
  for (auto _ : bench) {
    const AttributeSet& x = scheme.relation(i++ % scheme.size()).attrs;
    benchmark::DoNotOptimize(engine.Closure(x));
  }
}
BENCHMARK(BM_Closure_Engine)->Arg(2)->Arg(8)->Arg(16);

// --- A2: Algorithm 2's lookup source --------------------------------------

void BM_Alg2_IndexedLookups(benchmark::State& bench) {
  DatabaseScheme scheme = MakeSplitScheme(2);
  StateGenOptions opt;
  opt.entities = static_cast<size_t>(bench.range(0));
  opt.seed = 3;
  DatabaseState state = MakeConsistentState(scheme, opt);
  auto stream = MakeInsertStream(scheme, state, 128, 0.3, 5);
  // One split block: the maintainer runs Algorithm 2 on its index.
  auto m = ShardedMaintainer::Create(std::move(state));
  IRD_CHECK(m.ok());
  size_t i = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    benchmark::DoNotOptimize(m->CheckInsert(ins.rel, ins.tuple));
  }
}
BENCHMARK(BM_Alg2_IndexedLookups)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Alg2_ExpressionLookups(benchmark::State& bench) {
  DatabaseScheme scheme = MakeSplitScheme(2);
  StateGenOptions opt;
  opt.entities = static_cast<size_t>(bench.range(0));
  opt.seed = 3;
  DatabaseState state = MakeConsistentState(scheme, opt);
  ExpressionLookupPlan plan = ExpressionLookupPlan::Build(scheme);
  auto stream = MakeInsertStream(scheme, state, 128, 0.3, 5);
  size_t i = 0;
  for (auto _ : bench) {
    const InsertInstance& ins = stream[i++ % stream.size()];
    benchmark::DoNotOptimize(
        CheckInsertByExpressions(scheme, plan, state, ins.rel, ins.tuple));
  }
  bench.counters["tuples"] = static_cast<double>(state.TupleCount());
}
BENCHMARK(BM_Alg2_ExpressionLookups)->Arg(100)->Arg(1000);

// --- A3: representative-instance construction -----------------------------

void BM_RepInstance_Algorithm1(benchmark::State& bench) {
  DatabaseScheme scheme = MakeSplitScheme(3);
  StateGenOptions opt;
  opt.entities = static_cast<size_t>(bench.range(0));
  opt.seed = 7;
  DatabaseState state = MakeConsistentState(scheme, opt);
  for (auto _ : bench) {
    auto index = RepresentativeIndex::Build(state);
    benchmark::DoNotOptimize(index);
    IRD_CHECK(index.ok());
  }
  bench.counters["tuples"] = static_cast<double>(state.TupleCount());
}
BENCHMARK(BM_RepInstance_Algorithm1)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RepInstance_GenericChase(benchmark::State& bench) {
  DatabaseScheme scheme = MakeSplitScheme(3);
  StateGenOptions opt;
  opt.entities = static_cast<size_t>(bench.range(0));
  opt.seed = 7;
  DatabaseState state = MakeConsistentState(scheme, opt);
  for (auto _ : bench) {
    auto tableau = RepresentativeInstance(state);
    benchmark::DoNotOptimize(tableau);
    IRD_CHECK(tableau.ok());
  }
  bench.counters["tuples"] = static_cast<double>(state.TupleCount());
}
BENCHMARK(BM_RepInstance_GenericChase)->Arg(100)->Arg(1000);

// --- A4: γ-acyclicity recognizers ------------------------------------------

void BM_Gamma_CycleSearch(benchmark::State& bench) {
  DatabaseScheme scheme = MakeTreeScheme(
      static_cast<size_t>(bench.range(0)), 0.5, 9);
  Hypergraph h = Hypergraph::Of(scheme);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(FindGammaCycle(h));
  }
  bench.counters["edges"] = static_cast<double>(h.edge_count());
}
BENCHMARK(BM_Gamma_CycleSearch)->Arg(5)->Arg(9)->Arg(15);

void BM_Gamma_UmcPairwise(benchmark::State& bench) {
  // The Theorem 2.1 form: already 30ms at 8 edges, and its Bachman-closure
  // guard refuses the 14-edge tree the cycle search handles in 80µs —
  // which is why ClassifyScheme runs on the cycle search.
  DatabaseScheme scheme = MakeTreeScheme(
      static_cast<size_t>(bench.range(0)), 0.5, 9);
  Hypergraph h = Hypergraph::Of(scheme);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(IsGammaAcyclic(h));
  }
  bench.counters["edges"] = static_cast<double>(h.edge_count());
}
BENCHMARK(BM_Gamma_UmcPairwise)->Arg(5)->Arg(7)->Arg(9);

}  // namespace
}  // namespace ird

IRD_BENCHMARK_MAIN();
