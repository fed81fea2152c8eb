// Counter-backed complexity invariants on the paper's worked examples:
// the obs counters are not just monotone gauges, they carry executable
// bounds from the paper's analysis. Each test runs an engine entry point
// between two registry snapshots and checks the counter delta against the
// bound. With IRD_OBS=OFF every delta is zero and the lower-bound
// assertions are vacuous, so the whole file skips.

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/expression.h"
#include "core/classify.h"
#include "core/kep.h"
#include "core/key_equivalent_maintainer.h"
#include "core/recognition.h"
#include "core/sharded_maintainer.h"
#include "core/total_projection.h"
#include "engine/scheme_analysis.h"
#include "obs/export.h"
#include "tableau/chase.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

struct NamedScheme {
  const char* name;
  DatabaseScheme scheme;
};

// Every worked-example fixture the suite defines (Examples 5, 7 and 10
// reuse the schemes of 4 and 3; see tests/test_util.h).
std::vector<NamedScheme> PaperExamples() {
  std::vector<NamedScheme> out;
  out.push_back({"Example1R", test::Example1R()});
  out.push_back({"Example1S", test::Example1S()});
  out.push_back({"Example2", test::Example2()});
  out.push_back({"Example3", test::Example3()});
  out.push_back({"Example4", test::Example4()});
  out.push_back({"Example6", test::Example6()});
  out.push_back({"Example8", test::Example8()});
  out.push_back({"Example9", test::Example9()});
  out.push_back({"Example11", test::Example11()});
  out.push_back({"Example12", test::Example12()});
  out.push_back({"Example13", test::Example13()});
  return out;
}

uint64_t DeltaOf(const obs::Snapshot& delta, std::string_view name) {
  for (const auto& [counter, value] : delta.counters) {
    if (counter == name) return value;
  }
  return 0;
}

template <typename Body>
obs::Snapshot Measure(Body body) {
  obs::Snapshot before = obs::TakeSnapshot();
  body();
  return obs::DeltaSince(before);
}

#ifdef IRD_OBS_DISABLED
#define IRD_REQUIRE_OBS() \
  GTEST_SKIP() << "instrumentation compiled out (IRD_OBS=OFF)"
#else
#define IRD_REQUIRE_OBS() \
  do {                    \
  } while (false)
#endif

// The closure engine fires each FD at most once per computation. Every
// closure of recognition and classification runs against a subset of the
// scheme's key dependencies F (Validate and IsBcnf against all of F) or
// against the induced scheme's, which holds no more keys than F, so
//   delta(closure.iterations) <= |F| * delta(closure.computations).
TEST(ObsInvariantsTest, ClosureIterationsBoundedByFdCount) {
  IRD_REQUIRE_OBS();
  for (const NamedScheme& example : PaperExamples()) {
    const uint64_t fd_count = example.scheme.key_dependencies().size();
    obs::Snapshot delta = Measure([&] {
      (void)RecognizeIndependenceReducible(example.scheme);
      (void)ClassifyScheme(example.scheme, true);
    });
    const uint64_t computations = DeltaOf(delta, "closure.computations");
    const uint64_t iterations = DeltaOf(delta, "closure.iterations");
    EXPECT_GT(computations, 0u) << example.name;
    EXPECT_LE(iterations, fd_count * computations) << example.name;
  }
}

// KEP's recursion tree on n schemes has at most 2n-1 nodes (every split
// produces at least two nonempty groups), and at least one: the root.
TEST(ObsInvariantsTest, KepRoundsWithinRecursionTreeBound) {
  IRD_REQUIRE_OBS();
  for (const NamedScheme& example : PaperExamples()) {
    const uint64_t n = example.scheme.size();
    obs::Snapshot delta =
        Measure([&] { (void)KeyEquivalentPartition(example.scheme); });
    const uint64_t rounds = DeltaOf(delta, "kep.rounds");
    EXPECT_GE(rounds, 1u) << example.name;
    EXPECT_LE(rounds, 2 * n - 1) << example.name;
  }
}

// The uniqueness test tries ordered pairs of distinct relations of the
// induced scheme D, so at most |D|(|D|-1) <= n(n-1) independence tests per
// recognition run.
TEST(ObsInvariantsTest, IndependenceTestsQuadraticallyBounded) {
  IRD_REQUIRE_OBS();
  for (const NamedScheme& example : PaperExamples()) {
    const uint64_t n = example.scheme.size();
    obs::Snapshot delta = Measure(
        [&] { (void)RecognizeIndependenceReducible(example.scheme); });
    EXPECT_LE(DeltaOf(delta, "recognition.independence_tests"), n * (n - 1))
        << example.name;
  }
}

// The engine layer's tentpole invariant: recognizing one scheme through a
// shared SchemeAnalysis constructs each ClosureEngine at most once. The
// cold run builds at least the full-cover engine; the warm repeat on the
// same analysis builds nothing, misses no memo entry and recomputes no
// closure — every answer is served from the caches.
TEST(ObsInvariantsTest, RepeatRecognitionBuildsNoEngine) {
  IRD_REQUIRE_OBS();
  for (const NamedScheme& example : PaperExamples()) {
    SchemeAnalysis analysis(example.scheme);
    obs::Snapshot cold = Measure(
        [&] { (void)RecognizeIndependenceReducible(analysis); });
    EXPECT_GT(DeltaOf(cold, "engine.closure_engine.builds"), 0u)
        << example.name;
    obs::Snapshot warm = Measure(
        [&] { (void)RecognizeIndependenceReducible(analysis); });
    EXPECT_EQ(DeltaOf(warm, "engine.closure_engine.builds"), 0u)
        << example.name;
    EXPECT_EQ(DeltaOf(warm, "engine.closure_memo.misses"), 0u)
        << example.name;
    EXPECT_EQ(DeltaOf(warm, "closure.computations"), 0u) << example.name;
    EXPECT_EQ(DeltaOf(warm, "engine.invalidations"), 0u) << example.name;
  }
}

// The delta-driven chase's unit of work is the bucket probe, split into the
// one-time seed scan (chase.seed_probes) and merge-driven worklist re-probes
// (chase.reprobes): every merge is discovered by a probe and every merge
// repairs the indexes exactly once, so per chase
//   seed_probes + reprobes >= equates  and  index_repairs == equates,
// and on the chain schemes — whose lossless-join chase genuinely merges —
// the total probe count grows monotonically with chain length.
TEST(ObsInvariantsTest, ChaseProbesMonotoneInChainLength) {
  IRD_REQUIRE_OBS();
  uint64_t previous_probes = 0;
  for (size_t n = 2; n <= 8; ++n) {
    DatabaseScheme scheme = MakeChainScheme(n);
    obs::Snapshot delta = Measure([&] { (void)IsLosslessByChase(scheme); });
    const uint64_t probes = DeltaOf(delta, "chase.seed_probes") +
                            DeltaOf(delta, "chase.reprobes");
    const uint64_t equates = DeltaOf(delta, "chase.equates");
    const uint64_t rows = DeltaOf(delta, "tableau.rows_materialized");
    EXPECT_GE(rows, n) << "chain n=" << n
                       << ": the chase tableau starts with one row per "
                          "relation";
    EXPECT_GT(equates, 0u) << "chain n=" << n
                           << ": joining the chain must merge symbols";
    EXPECT_GE(probes, equates) << "chain n=" << n;
    EXPECT_EQ(DeltaOf(delta, "chase.index_repairs"), equates)
        << "chain n=" << n;
    EXPECT_GE(probes, previous_probes) << "chain n=" << n;
    previous_probes = probes;
  }
}

// A clashing tuple on relation 0 of a chain-scheme maintainer state:
// same A1 value as an existing tuple, contradicting A2 — rejected under
// the FD A1 -> A2.
PartialTuple ChainClashTuple(const DatabaseScheme& scheme,
                             const DatabaseState& state) {
  const PartialTuple& existing = state.relation(0).tuples()[0];
  const AttributeId a1 = *scheme.universe().Find("A1");
  const AttributeId a2 = *scheme.universe().Find("A2");
  return PartialTuple(existing.attrs(),
                      {existing.At(a1), existing.At(a2) + 1000000});
}

// Theorem 5.5 made counter-executable, on the rejection path: one
// rejecting Algorithm 5 check bumps maintain.alg5.checks and
// maintain.alg5.rejects exactly once, and its probe tally is identical on
// a 20-entity and a 1000-entity state (coverage 1.0 keeps the extension
// structure fixed) — the "constant" in constant-time maintenance.
TEST(ObsInvariantsTest, Alg5RejectionConstantTimeCounters) {
  IRD_REQUIRE_OBS();
  DatabaseScheme scheme = MakeChainScheme(4);
  std::vector<uint64_t> probes;
  for (size_t entities : {20u, 1000u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 1.0;
    opt.seed = 53;
    DatabaseState state = MakeConsistentState(scheme, opt);
    PartialTuple clash = ChainClashTuple(scheme, state);
    // The chain is one split-free block: the maintainer runs Algorithm 5.
    Result<ShardedMaintainer> m =
        ShardedMaintainer::Create(std::move(state), 1, false);
    ASSERT_TRUE(m.ok());
    obs::Snapshot delta =
        Measure([&] { EXPECT_FALSE(m->CheckInsert(0, clash).ok()); });
    EXPECT_EQ(DeltaOf(delta, "maintain.alg5.checks"), 1u)
        << "entities=" << entities;
    EXPECT_EQ(DeltaOf(delta, "maintain.alg5.rejects"), 1u)
        << "entities=" << entities;
    probes.push_back(DeltaOf(delta, "maintain.alg5.probes"));
  }
  EXPECT_GT(probes[0], 0u);
  EXPECT_EQ(probes[0], probes[1]);
}

// The applied half of the constant: BlockShard::Apply enters each accepted
// insert through AddUnique, whose dedup index inspects a few table slots
// whatever the relation's size. A stream of half re-inserts (duplicates
// under set semantics) and half fresh tuples is applied to a one-relation
// scheme holding 10^3 and then 10^5 tuples; the mean relation.dedup_probes
// per Apply stays small and moves by under 2x across the 100x spread.
TEST(ObsInvariantsTest, ApplyDedupProbesFlatInRelationSize) {
  IRD_REQUIRE_OBS();
  DatabaseScheme scheme = DatabaseScheme::Create();
  scheme.AddRelation("R", "AB", {"A"});
  constexpr Value kOps = 2000;
  std::vector<double> per_apply;
  for (Value tuples : {Value{1000}, Value{100000}}) {
    DatabaseState state(scheme);
    for (Value i = 0; i < tuples; ++i) state.Insert(0, {i, 3 * i});
    Result<ShardedMaintainer> m =
        ShardedMaintainer::Create(std::move(state), 1, false);
    ASSERT_TRUE(m.ok());
    obs::Snapshot delta = Measure([&] {
      for (Value k = 0; k < kOps; ++k) {
        Value a = k % 2 == 0 ? (k * 7919) % tuples : tuples + k;
        PartialTuple t(scheme.relation(0).attrs, {a, 3 * a});
        EXPECT_TRUE(m->Insert(0, t).ok());
      }
    });
    per_apply.push_back(
        static_cast<double>(DeltaOf(delta, "relation.dedup_probes")) /
        static_cast<double>(kOps));
    EXPECT_GE(per_apply.back(), 1.0) << "tuples=" << tuples;
    EXPECT_LE(per_apply.back(), 4.0) << "tuples=" << tuples;
  }
  double hi = std::max(per_apply[0], per_apply[1]);
  double lo = std::min(per_apply[0], per_apply[1]);
  EXPECT_LT(hi, 2.0 * lo) << per_apply[0] << " vs " << per_apply[1];
}

// Evaluate reads base relations in place: π_AC(R1 ⋈ R2) materializes only
// the join's and the projection's rows, and the join hashes the smaller
// relation (3 rows) and probes with the larger (5 rows).
TEST(ObsInvariantsTest, EvaluateMaterializesOnlyNonBaseNodes) {
  IRD_REQUIRE_OBS();
  DatabaseScheme scheme = test::Example9();
  DatabaseState state(scheme);
  for (Value i = 0; i < 3; ++i) state.Insert("R1", {i, i});
  for (Value i = 0; i < 5; ++i) state.Insert("R2", {i, 10 + i});
  ExprPtr plan = Expression::Project(
      test::Attrs(scheme, "AC"),
      Expression::Join({Expression::Base(0, scheme.relation(0).attrs),
                        Expression::Base(1, scheme.relation(1).attrs)}));
  PartialRelation answer;
  obs::Snapshot delta = Measure([&] { answer = Evaluate(*plan, state); });
  EXPECT_EQ(answer.size(), 3u);
  EXPECT_EQ(DeltaOf(delta, "algebra.join.build_rows"), 3u);
  EXPECT_EQ(DeltaOf(delta, "algebra.join.probe_rows"), 5u);
  EXPECT_EQ(DeltaOf(delta, "algebra.rows_materialized"), 6u);
}

// A k-member join materializes k-1 results; the last is the node's own
// output, and the ones before it count too. R1 ⋈ R2 ⋈ R3 on a chain
// builds R1 ⋈ R2 (3 rows), then the answer (2 rows).
TEST(ObsInvariantsTest, EvaluateCountsIntermediateJoinRows) {
  IRD_REQUIRE_OBS();
  DatabaseScheme scheme = test::Example9();
  DatabaseState state(scheme);
  for (Value i = 0; i < 3; ++i) state.Insert("R1", {i, i});
  for (Value i = 0; i < 3; ++i) state.Insert("R2", {i, 10 + i});
  for (Value i = 0; i < 2; ++i) state.Insert("R3", {10 + i, 20 + i});
  ExprPtr plan =
      Expression::Join({Expression::Base(0, scheme.relation(0).attrs),
                        Expression::Base(1, scheme.relation(1).attrs),
                        Expression::Base(2, scheme.relation(2).attrs)});
  PartialRelation answer;
  obs::Snapshot delta = Measure([&] { answer = Evaluate(*plan, state); });
  EXPECT_EQ(answer.size(), 2u);
  EXPECT_EQ(DeltaOf(delta, "algebra.rows_materialized"), 5u);
}

// A join node counts the rows of every intermediate step as well as its
// output. [E,B1] on the split scheme takes the branch RAE ⋈ RDA ⋈ RBD,
// each step keyed on an attribute the joined members share, so the rows
// its evaluation materializes stay within twice the state's tuples and
// grow with the state. Joined in relation-index order, RAE met RBD first:
// their cross product alone was 76,140 rows at 400 entities.
TEST(ObsInvariantsTest, SplitSchemeQueryRowsTrackTheState) {
  IRD_REQUIRE_OBS();
  DatabaseScheme scheme = MakeSplitScheme(2);
  RecognitionResult recognition = RecognizeIndependenceReducible(scheme);
  ASSERT_TRUE(recognition.accepted);
  const AttributeSet x = {*scheme.universe().Find("E"),
                          *scheme.universe().Find("B1")};
  ExprPtr plan = BuildBoundedProjectionExpr(scheme, recognition, x);
  ASSERT_NE(plan, nullptr);
  std::vector<uint64_t> rows;
  for (size_t entities : {200u, 400u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.seed = 61;
    DatabaseState state = MakeConsistentState(scheme, opt);
    obs::Snapshot delta = Measure([&] { (void)Evaluate(*plan, state); });
    rows.push_back(DeltaOf(delta, "algebra.rows_materialized"));
    EXPECT_GT(rows.back(), 0u) << "entities=" << entities;
    EXPECT_LE(rows.back(), 2 * state.TupleCount())
        << "entities=" << entities;
  }
  EXPECT_LT(rows[1], 3 * rows[0]) << rows[0] << " -> " << rows[1];
}

// Algorithm 2's rejection cost is bounded by the distinct pool keys (the
// chain of length 4 has 5) and is state-size independent: every processed
// key does exactly one representative-instance lookup.
TEST(ObsInvariantsTest, Alg2RejectionBoundedByPoolKeys) {
  IRD_REQUIRE_OBS();
  DatabaseScheme scheme = MakeChainScheme(4);
  std::vector<uint64_t> lookups;
  for (size_t entities : {20u, 1000u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 1.0;
    opt.seed = 53;
    DatabaseState state = MakeConsistentState(scheme, opt);
    PartialTuple clash = ChainClashTuple(scheme, state);
    // Algorithm 2 forced onto the split-free chain: the kernel on the
    // representative instance, the whole scheme as its pool.
    Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
    ASSERT_TRUE(index.ok());
    obs::Snapshot delta = Measure([&] {
      EXPECT_FALSE(CheckInsertKeyEquivalent(scheme, *index, 0, clash).ok());
    });
    EXPECT_EQ(DeltaOf(delta, "maintain.alg2.checks"), 1u)
        << "entities=" << entities;
    EXPECT_EQ(DeltaOf(delta, "maintain.alg2.rejects"), 1u)
        << "entities=" << entities;
    EXPECT_EQ(DeltaOf(delta, "maintain.alg2.lookups"),
              DeltaOf(delta, "maintain.alg2.keys_processed"))
        << "entities=" << entities;
    EXPECT_LE(DeltaOf(delta, "maintain.alg2.lookups"), 5u)
        << "entities=" << entities;
    lookups.push_back(DeltaOf(delta, "maintain.alg2.lookups"));
  }
  EXPECT_GT(lookups[0], 0u);
  EXPECT_EQ(lookups[0], lookups[1]);
}

// Recognition on the paper's flagship examples must drive every phase the
// pipeline owns: KEP rounds, closure computations and (once the partition
// is merged) independence tests on the induced scheme.
TEST(ObsInvariantsTest, RecognitionTouchesAllPhases) {
  IRD_REQUIRE_OBS();
  for (const char* name : {"Example1R", "Example11", "Example12"}) {
    DatabaseScheme scheme = name == std::string_view("Example1R")
                                ? test::Example1R()
                                : name == std::string_view("Example11")
                                      ? test::Example11()
                                      : test::Example12();
    obs::Snapshot delta =
        Measure([&] { EXPECT_TRUE(IsIndependenceReducible(scheme)) << name; });
    EXPECT_GT(DeltaOf(delta, "kep.rounds"), 0u) << name;
    EXPECT_GT(DeltaOf(delta, "closure.computations"), 0u) << name;
    EXPECT_GT(DeltaOf(delta, "recognition.independence_tests"), 0u) << name;
    EXPECT_GT(DeltaOf(delta, "recognition.runs"), 0u) << name;
  }
}

}  // namespace
}  // namespace ird
