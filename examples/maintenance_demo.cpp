// The paper's performance story in one program: per-insert validation cost
// as the database grows, for
//   - Algorithm 5 (ctm)       on a split-free key-equivalent scheme,
//   - Algorithm 2 (algebraic) on a split key-equivalent scheme,
//   - the naive full re-chase on both,
//   - and Example 2's scheme, where *no* bounded procedure exists.
// Run without arguments; prints a table of nanoseconds per CheckInsert.

#include <chrono>
#include <cstdio>

#include "core/key_equivalent_maintainer.h"
#include "core/sharded_maintainer.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

using namespace ird;

namespace {

using Clock = std::chrono::steady_clock;

double NanosPerCall(size_t calls, Clock::time_point start,
                    Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(calls);
}

template <typename CheckFn>
double Measure(const std::vector<InsertInstance>& stream, size_t rounds,
               CheckFn&& check) {
  auto start = Clock::now();
  size_t calls = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (const InsertInstance& ins : stream) {
      check(ins);
      ++calls;
    }
  }
  return NanosPerCall(calls, start, Clock::now());
}

void Row(const char* label, size_t entities, double ctm, double alg2,
         double naive) {
  std::printf("%-18s %10zu %14.0f %14.0f %16.0f\n", label, entities, ctm,
              alg2, naive);
}

}  // namespace

int main() {
  std::printf(
      "Per-CheckInsert cost (ns). ctm = Algorithm 5, alg2 = Algorithm 2,\n"
      "naive = full state-tableau chase. '-' = not applicable.\n\n");
  std::printf("%-18s %10s %14s %14s %16s\n", "scheme", "entities",
              "ctm (ns)", "alg2 (ns)", "naive chase (ns)");

  for (size_t entities : {100u, 1000u, 10000u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 0.7;
    opt.seed = 11;

    {  // Split-free chain: all three procedures apply.
      DatabaseScheme scheme = MakeChainScheme(4);
      DatabaseState state = MakeConsistentState(scheme, opt);
      auto stream = MakeInsertStream(scheme, state, 64, 0.25, 17);
      // One split-free block: the maintainer runs Algorithm 5. Algorithm 2
      // is forced through its kernel on the representative instance.
      auto ctm = ShardedMaintainer::Create(state, 1, /*verify=*/false);
      auto rep = RepresentativeIndex::Build(state);
      IRD_CHECK(ctm.ok() && rep.ok());
      size_t naive_rounds = 1;
      double t_ctm = Measure(stream, 50, [&](const InsertInstance& ins) {
        (void)ctm->CheckInsert(ins.rel, ins.tuple);
      });
      double t_alg2 = Measure(stream, 50, [&](const InsertInstance& ins) {
        (void)CheckInsertKeyEquivalent(scheme, *rep, ins.rel, ins.tuple);
      });
      double t_naive =
          Measure(stream, naive_rounds, [&](const InsertInstance& ins) {
            (void)WouldRemainConsistent(state, ins.rel, ins.tuple);
          });
      Row("chain (ctm)", entities, t_ctm, t_alg2, t_naive);
    }

    {  // Split scheme: Algorithm 5 is inapplicable (Corollary 3.3).
      DatabaseScheme scheme = MakeSplitScheme(3);
      DatabaseState state = MakeConsistentState(scheme, opt);
      auto stream = MakeInsertStream(scheme, state, 64, 0.25, 19);
      // One split block: the maintainer runs Algorithm 2.
      auto alg2 = ShardedMaintainer::Create(state, 1, /*verify=*/false);
      IRD_CHECK(alg2.ok());
      double t_alg2 = Measure(stream, 50, [&](const InsertInstance& ins) {
        (void)alg2->CheckInsert(ins.rel, ins.tuple);
      });
      double t_naive = Measure(stream, 1, [&](const InsertInstance& ins) {
        (void)WouldRemainConsistent(state, ins.rel, ins.tuple);
      });
      std::printf("%-18s %10zu %14s %14.0f %16.0f\n", "split (not ctm)",
                  entities, "-", t_alg2, t_naive);
    }
  }

  std::printf(
      "\nExample 2 (outside the class): rejecting <a_n, c'> needs the whole\n"
      "zig-zag chain — the chase is the only correct procedure and its cost\n"
      "grows with the chain:\n\n");
  std::printf("%-18s %10s %16s\n", "scheme", "chain n", "naive chase (ns)");
  DatabaseScheme ex2 = DatabaseScheme::Create();
  ex2.AddRelation("R1", "AB", {"AB"});
  ex2.AddRelation("R2", "BC", {"B"});
  ex2.AddRelation("R3", "AC", {"A"});
  for (size_t n : {64u, 256u, 1024u}) {
    DatabaseState state(ex2);
    state.Insert("R3", {1000, 1});
    for (size_t i = 0; i < n; ++i) {
      state.Insert("R1", {static_cast<Value>(1000 + i),
                          static_cast<Value>(500000 + i)});
      state.Insert("R1", {static_cast<Value>(1000 + i + 1),
                          static_cast<Value>(500000 + i)});
    }
    AttributeSet ac = ex2.universe_ptr()->Chars("AC");
    PartialTuple insert(ac, {static_cast<Value>(1000 + n), 2});
    auto start = Clock::now();
    constexpr size_t kCalls = 5;
    for (size_t i = 0; i < kCalls; ++i) {
      IRD_CHECK(!WouldRemainConsistent(state, 2, insert));
    }
    std::printf("%-18s %10zu %16.0f\n", "example 2", n,
                NanosPerCall(kCalls, start, Clock::now()));
  }
  return 0;
}
