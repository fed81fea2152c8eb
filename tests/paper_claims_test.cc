// Tests for the paper's headline claims that cut across modules — the
// "shape" results that the benchmark experiments then quantify.

#include <gtest/gtest.h>

#include "core/augmentation.h"
#include "core/classify.h"
#include "core/ctm_maintainer.h"
#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "core/total_projection.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

// Example 5 / Theorem 3.4: on a split key-equivalent scheme, the raw-state
// key-probe procedure of Algorithm 5 is WRONG — it accepts an insert the
// chase rejects. (This is exactly why BlockShard runs split blocks on
// Algorithm 2's representative instance, as the paper does.)
TEST(PaperClaimsTest, Example5SplitDefeatsRawKeyProbes) {
  DatabaseScheme s = test::Example4();
  constexpr Value a = 1, b = 2, c = 3, e = 10, e2 = 11, eprime = 20;
  DatabaseState state(s);
  state.mutable_relation(0).Add(Tuple(s, "AB", {a, b}));
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e, b}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e2, b}));
  state.mutable_relation(4).Add(Tuple(s, "EC", {e, c}));
  ASSERT_TRUE(IsConsistent(state));
  PartialTuple insert = Tuple(s, "AE", {a, eprime});
  // Ground truth: inconsistent (the representative instance has
  // <a,b,c,e> via E -> B/C, BC -> D, D -> A, and A -> E forces e).
  EXPECT_FALSE(WouldRemainConsistent(state, 2, insert));
  // The maintainer runs Algorithm 2 (representative-instance lookups) on
  // the split block: correct.
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  ASSERT_TRUE(m.ok());
  ASSERT_FALSE(m->IsCtm());
  EXPECT_FALSE(m->CheckInsert(2, insert).ok());
  // Algorithm 5's probes applied anyway (the scheme is split, so this is
  // outside its precondition): wrongly accepts.
  const std::vector<size_t> pool = test::AllRelations(s);
  ASSERT_TRUE(state.IndexKeys(pool).ok());
  Result<PartialTuple> q = CheckInsertCtm(state, pool, 2, insert);
  EXPECT_TRUE(q.ok()) << "raw key probes cannot see through the split key";
}

// On split-FREE schemes the same two procedures agree everywhere — the
// if-direction of Corollary 3.3 made executable.
TEST(PaperClaimsTest, SplitFreeMakesRawKeyProbesExact) {
  std::vector<DatabaseScheme> schemes = {MakeChainScheme(4),
                                         MakeStarScheme(3), test::Example3()};
  for (const DatabaseScheme& s : schemes) {
    ASSERT_TRUE(IsSplitFree(s));
    StateGenOptions opt;
    opt.entities = 20;
    opt.seed = 83;
    DatabaseState state = MakeConsistentState(s, opt);
    const std::vector<size_t> pool = test::AllRelations(s);
    ASSERT_TRUE(state.IndexKeys(pool).ok());
    std::vector<InsertInstance> stream =
        MakeInsertStream(s, state, 30, 0.5, 87);
    for (const InsertInstance& ins : stream) {
      EXPECT_EQ(CheckInsertCtm(state, pool, ins.rel, ins.tuple).ok(),
                WouldRemainConsistent(state, ins.rel, ins.tuple));
    }
  }
}

// Example 2 / §2.7: the scheme {AB, BC, AC} with F = {A->C, B->C} needs
// unboundedly many tuples to reject an insert: the inconsistency of
// <a_n, c'> into r3 vanishes when ANY tuple of the B-chain is removed.
TEST(PaperClaimsTest, Example2RejectionNeedsTheWholeChain) {
  DatabaseScheme s = test::Example2();
  const size_t n = 6;
  // State: r3 = {<a0, c0>}; r1 = {<a0,b0>, <a1,b0>, <a1,b1>, <a2,b1>,...}
  // a "zig-zag" connecting a0 to an; r2 empty... r2 = {} — C values flow
  // through A -> C and B -> C? In Example 2, the chain forces all the
  // C-values of the zigzag equal, so <a_n, c'> with c' ≠ c0 clashes.
  DatabaseState state(s);
  state.Insert("R3", {1000, 1});  // A=a0, C=c0
  for (size_t i = 0; i < n; ++i) {
    // <a_i, b_i> and <a_{i+1}, b_i>.
    state.Insert("R1", {static_cast<Value>(1000 + i),
                        static_cast<Value>(2000 + i)});
    state.Insert("R1", {static_cast<Value>(1000 + i + 1),
                        static_cast<Value>(2000 + i)});
  }
  ASSERT_TRUE(IsConsistent(state));
  PartialTuple insert =
      Tuple(s, "AC", {static_cast<Value>(1000 + n), 2});  // c' = 2 ≠ c0
  EXPECT_FALSE(WouldRemainConsistent(state, 2, insert));
  // Removing any single zig-zag tuple makes the insert consistent: the
  // rejection genuinely depends on the whole chain (state-size-dependent
  // maintenance — R is not algebraic-maintainable).
  for (size_t victim = 0; victim < state.relation(0).size(); ++victim) {
    DatabaseState smaller(s);
    smaller.Insert("R3", {1000, 1});
    for (size_t i = 0; i < state.relation(0).size(); ++i) {
      if (i != victim) {
        smaller.mutable_relation(0).Add(state.relation(0).tuples()[i]);
      }
    }
    EXPECT_TRUE(WouldRemainConsistent(smaller, 2, insert))
        << "victim " << victim;
  }
}

// Boundedness in action: the number of chase rule applications to answer a
// query grows with the state, while the bounded expression's *size* does
// not (its evaluation is one indexed pass).
TEST(PaperClaimsTest, BoundedExpressionSizeVsChaseWork) {
  DatabaseScheme s = test::Example4();
  RecognitionResult r = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(r.accepted);
  ExprPtr expr = BuildBoundedProjectionExpr(s, r, Attrs(s, "AE"));
  ASSERT_NE(expr, nullptr);
  size_t expr_nodes = expr->NodeCount();
  size_t chase_small = 0;
  size_t chase_large = 0;
  for (size_t entities : {10u, 100u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 0.8;
    opt.seed = 91;
    DatabaseState state = MakeConsistentState(s, opt);
    Tableau t = StateTableau(state);
    ChaseStats stats = ChaseFds(&t, s.key_dependencies());
    ASSERT_TRUE(stats.consistent);
    (entities == 10u ? chase_small : chase_large) = stats.rule_applications;
    // The expression is the same object regardless of the state.
    EXPECT_EQ(BuildBoundedProjectionExpr(s, r, Attrs(s, "AE"))->NodeCount(),
              expr_nodes);
  }
  EXPECT_GT(chase_large, chase_small);
}

// Theorem 5.4: AUG of independent and AUG of γ-acyclic BCNF schemes are
// accepted. (Random augmentations of the generated families.)
TEST(PaperClaimsTest, Theorem54AugmentedClassesAccepted) {
  std::mt19937_64 rng(5);
  std::vector<DatabaseScheme> bases = {MakeIndependentScheme(3),
                                       MakeStarScheme(4), MakeChainScheme(3),
                                       test::Example1S()};
  for (DatabaseScheme s : bases) {
    ASSERT_TRUE(IsIndependenceReducible(s));
    for (int round = 0; round < 4; ++round) {
      const RelationScheme& base = s.relation(rng() % s.size());
      std::vector<AttributeId> attrs = base.attrs.ToVector();
      AttributeSet sub;
      for (AttributeId a : attrs) {
        if (rng() % 2 == 0) sub.Add(a);
      }
      if (sub.Empty() || sub == base.attrs) continue;
      bool duplicate = false;
      for (const RelationScheme& r : s.relations()) {
        if (r.attrs == sub) duplicate = true;
      }
      if (duplicate) continue;
      ASSERT_TRUE(Augment(&s, "Aug" + std::to_string(round), sub).ok());
      EXPECT_TRUE(IsIndependenceReducible(s))
          << "augmented with " << s.universe().Format(sub) << "\n"
          << s.ToString();
    }
  }
}

// The class landscape on the paper's own examples, in one table.
TEST(PaperClaimsTest, ClassLandscapeOfThePaperExamples) {
  struct Row {
    DatabaseScheme scheme;
    bool independent;
    bool key_equivalent;
    bool reducible;
    bool ctm;
  };
  std::vector<Row> rows;
  rows.push_back({test::Example1R(), false, false, true, true});
  rows.push_back({test::Example1S(), true, false, true, true});
  rows.push_back({test::Example2(), false, false, false, false});
  rows.push_back({test::Example3(), false, true, true, true});
  rows.push_back({test::Example4(), false, true, true, false});
  // Example 6 is split: CD is completed by {AC, AD} (neither contains CD),
  // which is exactly why its maintenance needs Algorithm 2's CD step.
  rows.push_back({test::Example6(), false, true, true, false});
  // The bidirectional chain satisfies the uniqueness condition.
  rows.push_back({test::Example9(), true, true, true, true});
  rows.push_back({test::Example11(), false, false, true, true});
  for (const Row& row : rows) {
    SchemeClassification c = ClassifyScheme(row.scheme);
    EXPECT_EQ(c.independent, row.independent) << row.scheme.ToString();
    EXPECT_EQ(c.key_equivalent, row.key_equivalent) << row.scheme.ToString();
    EXPECT_EQ(c.independence_reducible, row.reducible)
        << row.scheme.ToString();
    EXPECT_EQ(c.ctm, row.ctm) << row.scheme.ToString();
  }
}

}  // namespace
}  // namespace ird
