// Experiment E6 (EXPERIMENTS.md): Example 2 made quantitative. The scheme
// {R1(AB), R2(BC), R3(AC)} with F = {A -> C, B -> C} is NOT
// algebraic-maintainable: rejecting the insert <a_n, c'> requires walking
// the entire zig-zag chain in r1, so the only correct maintenance procedure
// (the chase) pays time proportional to the state. For contrast, the same
// adversarial growth on the independence-reducible Example 4 scheme leaves
// Algorithm 2's per-insert cost flat.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "core/sharded_maintainer.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"

namespace ird {
namespace {

// The Example 2 adversarial state: r3 = {<a_0, c_0>} plus a zig-zag
// a_0 -b_0- a_1 -b_1- ... -b_{n-1}- a_n in r1. The insert <a_n, c'> is
// inconsistent, and every zig-zag tuple is needed to see it.
DatabaseState Example2ZigZag(const DatabaseScheme& scheme, size_t n) {
  DatabaseState state(scheme);
  state.Insert("R3", {1000, 1});
  for (size_t i = 0; i < n; ++i) {
    state.Insert("R1", {static_cast<Value>(1000 + i),
                        static_cast<Value>(500000 + i)});
    state.Insert("R1", {static_cast<Value>(1000 + i + 1),
                        static_cast<Value>(500000 + i)});
  }
  return state;
}

void BM_Example2_RejectInsert(benchmark::State& bench) {
  DatabaseScheme scheme = test::Example2();
  size_t n = static_cast<size_t>(bench.range(0));
  DatabaseState state = Example2ZigZag(scheme, n);
  PartialTuple insert =
      test::Tuple(scheme, "AC", {static_cast<Value>(1000 + n), 2});
  for (auto _ : bench) {
    bool verdict = WouldRemainConsistent(state, 2, insert);
    benchmark::DoNotOptimize(verdict);
    IRD_CHECK(!verdict);
  }
  bench.counters["chain"] = static_cast<double>(n);
  bench.counters["tuples"] = static_cast<double>(state.TupleCount());
}
BENCHMARK(BM_Example2_RejectInsert)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

// Contrast: Example 4's scheme under the same kind of growth (many EB
// tuples sharing B, as in Example 5's state). Algorithm 2 rejects the
// Example 7 insert in flat time because the representative-instance index
// absorbs the state.
void BM_Example4_Alg2RejectInsert(benchmark::State& bench) {
  DatabaseScheme scheme = test::Example4();
  size_t n = static_cast<size_t>(bench.range(0));
  constexpr Value a = 1, b = 2, c = 3;
  DatabaseState state(scheme);
  state.mutable_relation(0).Add(test::Tuple(scheme, "AB", {a, b}));
  state.mutable_relation(1).Add(test::Tuple(scheme, "AC", {a, c}));
  for (size_t i = 0; i < n; ++i) {
    state.mutable_relation(3).Add(
        test::Tuple(scheme, "EB", {static_cast<Value>(100 + i), b}));
  }
  // e1 = 100 links through EC.
  state.mutable_relation(4).Add(test::Tuple(scheme, "EC", {100, c}));
  const size_t tuples = state.TupleCount();
  // Example 4's scheme is one split block: the maintainer runs Algorithm 2.
  auto m = ShardedMaintainer::Create(std::move(state));
  IRD_CHECK(m.ok());
  PartialTuple insert = test::Tuple(scheme, "AE", {a, 999999});
  for (auto _ : bench) {
    auto verdict = m->CheckInsert(2, insert);
    benchmark::DoNotOptimize(verdict);
    IRD_CHECK(!verdict.ok());
  }
  bench.counters["chain"] = static_cast<double>(n);
  bench.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_Example4_Alg2RejectInsert)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

// The naive chase on the same Example 4 state, to complete the picture.
void BM_Example4_NaiveRejectInsert(benchmark::State& bench) {
  DatabaseScheme scheme = test::Example4();
  size_t n = static_cast<size_t>(bench.range(0));
  constexpr Value a = 1, b = 2, c = 3;
  DatabaseState state(scheme);
  state.mutable_relation(0).Add(test::Tuple(scheme, "AB", {a, b}));
  state.mutable_relation(1).Add(test::Tuple(scheme, "AC", {a, c}));
  for (size_t i = 0; i < n; ++i) {
    state.mutable_relation(3).Add(
        test::Tuple(scheme, "EB", {static_cast<Value>(100 + i), b}));
  }
  state.mutable_relation(4).Add(test::Tuple(scheme, "EC", {100, c}));
  PartialTuple insert = test::Tuple(scheme, "AE", {a, 999999});
  for (auto _ : bench) {
    bool verdict = WouldRemainConsistent(state, 2, insert);
    benchmark::DoNotOptimize(verdict);
    IRD_CHECK(!verdict);
  }
  bench.counters["chain"] = static_cast<double>(n);
}
BENCHMARK(BM_Example4_NaiveRejectInsert)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace ird

IRD_BENCHMARK_MAIN();
