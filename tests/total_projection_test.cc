#include <gtest/gtest.h>

#include "core/total_projection.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

// The bounded expression's answer must equal the chase ground truth.
void ExpectBoundedMatchesChase(const DatabaseState& state,
                               const RecognitionResult& recognition,
                               const AttributeSet& x) {
  Result<PartialRelation> expected = TotalProjectionByChase(state, x);
  ASSERT_TRUE(expected.ok());
  PartialRelation actual = TotalProjection(state, recognition, x);
  EXPECT_TRUE(actual.SetEquals(*expected))
      << "X=" << state.universe().Format(x)
      << "\n  bounded: " << actual.ToString(state.universe())
      << "\n  chase:   " << expected->ToString(state.universe());
}

TEST(TotalProjectionTest, Example4AEExpression) {
  // Example 4: [AE] = R3 ∪ π_AE(R1 ⋈ R2 ⋈ (R4 ⋈ R5)).
  DatabaseScheme s = test::Example4();
  std::vector<size_t> pool = {0, 1, 2, 3, 4, 5, 6};
  ExprPtr expr = BuildKeyEquivalentProjectionExpr(s, pool, Attrs(s, "AE"));
  ASSERT_NE(expr, nullptr);
  // Evaluate on Example 7's state: the AE-total tuples are (a, e1) via the
  // deep derivation.
  constexpr Value a = 1, b = 2, c = 3, e1 = 11, e2 = 12;
  DatabaseState state(s);
  state.mutable_relation(0).Add(Tuple(s, "AB", {a, b}));
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e1, b}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e2, b}));
  state.mutable_relation(4).Add(Tuple(s, "EC", {e1, c}));
  PartialRelation result = Evaluate(*expr, state);
  Result<PartialRelation> expected =
      TotalProjectionByChase(state, Attrs(s, "AE"));
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(result.SetEquals(*expected));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.tuples()[0], Tuple(s, "AE", {a, e1}));
}

TEST(TotalProjectionTest, NoCoverMeansEmpty) {
  // Two disconnected relations: {A,C} has no lossless covering subset, and
  // the chase indeed never produces AC-total tuples.
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "CD", {"C"});
  RecognitionResult r = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(r.accepted);
  ExprPtr expr = BuildBoundedProjectionExpr(s, r, Attrs(s, "AC"));
  EXPECT_EQ(expr, nullptr);
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {3, 4});
  Result<PartialRelation> chase =
      TotalProjectionByChase(state, Attrs(s, "AC"));
  ASSERT_TRUE(chase.ok());
  EXPECT_TRUE(chase->empty());
  PartialRelation bounded = TotalProjection(state, r, Attrs(s, "AC"));
  EXPECT_TRUE(bounded.empty());
}

TEST(TotalProjectionTest, CrossBlockExtensionThroughBridgeKey) {
  // On Example 11, [GA] IS computable: block-1 tuples total on D extend
  // through D2's key D into G (the D1 ⋈ D2 join is lossless because D is a
  // key of D2).
  DatabaseScheme s = test::Example11();
  RecognitionResult r = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(r.accepted);
  ExprPtr expr = BuildBoundedProjectionExpr(s, r, Attrs(s, "GA"));
  ASSERT_NE(expr, nullptr);
  DatabaseState state(s);
  state.Insert("R4", {1, 2});  // A=1 D=2
  state.mutable_relation(5).Add(Tuple(s, "DEG", {2, 3, 4}));
  PartialRelation bounded = Evaluate(*expr, state);
  ASSERT_EQ(bounded.size(), 1u);
  ExpectBoundedMatchesChase(state, r, Attrs(s, "GA"));
}

TEST(TotalProjectionTest, Example12ACGProjection) {
  // Example 12: the ACG-total projection on the Example 11 scheme shape.
  // (Example 12 uses one-way keys; Example 11's bidirectional triangle
  // only makes the block richer — the construction is the same.)
  DatabaseScheme s = test::Example11();
  RecognitionResult r = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(r.accepted);
  ExprPtr expr = BuildBoundedProjectionExpr(s, r, Attrs(s, "ACG"));
  ASSERT_NE(expr, nullptr);
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  state.Insert("R4", {a, d});
  state.mutable_relation(4).Add(Tuple(s, "DEF", {d, e, f}));
  state.mutable_relation(5).Add(Tuple(s, "DEG", {d, e, g}));
  PartialRelation result = Evaluate(*expr, state);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.tuples()[0], Tuple(s, "ACG", {a, c, g}));
  ExpectBoundedMatchesChase(state, r, Attrs(s, "ACG"));
}

TEST(TotalProjectionTest, Example12VerbatimYSets) {
  // Example 12, line by line: D = {D1(ABCD), D2(DEFG)}; for the ACG-total
  // projection the paper computes Y1 = D1 ∩ (D2 ∪ ACG) = ACD and
  // Y2 = D2 ∩ (D1 ∪ ACG) = DG, and the expression
  // π_ACG([Y1] ⋈ [Y2]) with [Y1] = π_ACD(R1 ⋈ R2 ⋈ R4) ∪ π_ACD(R3 ⋈ R4)
  // and [Y2] = π_DG(R6).
  DatabaseScheme s = test::Example12();
  RecognitionResult r = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(r.accepted);
  ASSERT_EQ(r.partition.size(), 2u);
  EXPECT_EQ(r.partition[0], (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.induced->relation(0).attrs, Attrs(s, "ABCD"));
  EXPECT_EQ(r.induced->relation(1).attrs, Attrs(s, "DEFG"));
  // The paper's Y sets, recomputed the way the builder does.
  AttributeSet acg = Attrs(s, "ACG");
  AttributeSet y1 =
      r.induced->relation(0).attrs.Intersect(
          r.induced->relation(1).attrs.Union(acg));
  AttributeSet y2 =
      r.induced->relation(1).attrs.Intersect(
          r.induced->relation(0).attrs.Union(acg));
  EXPECT_EQ(y1, Attrs(s, "ACD"));
  EXPECT_EQ(y2, Attrs(s, "DG"));
  // Evaluate against the paper's derivation on a concrete state.
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  DatabaseState state(s);
  state.mutable_relation(0).Add(Tuple(s, "AB", {a, b}));
  state.mutable_relation(1).Add(Tuple(s, "BC", {b, c}));
  state.mutable_relation(3).Add(Tuple(s, "AD", {a, d}));
  state.mutable_relation(4).Add(Tuple(s, "DEF", {d, e, f}));
  state.mutable_relation(5).Add(Tuple(s, "DEG", {d, e, g}));
  ExprPtr expr = BuildBoundedProjectionExpr(s, r, acg);
  ASSERT_NE(expr, nullptr);
  PartialRelation result = Evaluate(*expr, state);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.tuples()[0], Tuple(s, "ACG", {a, c, g}));
  ExpectBoundedMatchesChase(state, r, acg);
  // The second branch of [Y1] (through R3 ⋈ R4) also works alone.
  DatabaseState state2(s);
  state2.mutable_relation(2).Add(Tuple(s, "AC", {a, c}));
  state2.mutable_relation(3).Add(Tuple(s, "AD", {a, d}));
  state2.mutable_relation(5).Add(Tuple(s, "DEG", {d, e, g}));
  ExpectBoundedMatchesChase(state2, r, acg);
}

TEST(TotalProjectionTest, EndToEndApiRejectsBadSchemes) {
  DatabaseState state(test::Example2());
  Result<PartialRelation> r =
      TotalProjection(state, Attrs(state.scheme(), "AB"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TotalProjectionTest, MatchesChaseOnGeneratedStatesAndTargets) {
  // The central boundedness property test: for accepted schemes, random
  // consistent states and assorted X, the Theorem 4.1 expression computes
  // exactly [X].
  std::vector<DatabaseScheme> schemes = {
      test::Example1R(), test::Example4(), test::Example6(),
      test::Example11(), MakeChainScheme(3), MakeSplitScheme(2),
      MakeBlockScheme(2, 2), MakeIndependentScheme(3), MakeStarScheme(3)};
  std::mt19937_64 rng(7);
  for (const DatabaseScheme& s : schemes) {
    RecognitionResult r = RecognizeIndependenceReducible(s);
    ASSERT_TRUE(r.accepted) << s.ToString();
    StateGenOptions opt;
    opt.entities = 15;
    opt.coverage = 0.55;
    opt.seed = 21;
    DatabaseState state = MakeConsistentState(s, opt);
    // Targets: all relation schemes, all keys, and 6 random subsets.
    std::vector<AttributeSet> targets;
    for (const RelationScheme& rel : s.relations()) {
      targets.push_back(rel.attrs);
    }
    for (const auto& [rel, key] : s.AllKeys()) {
      targets.push_back(key);
    }
    std::vector<AttributeId> all = s.AllAttrs().ToVector();
    for (int i = 0; i < 6; ++i) {
      AttributeSet x;
      for (AttributeId attr : all) {
        if (rng() % 3 == 0) x.Add(attr);
      }
      if (x.Empty()) x.Add(all[rng() % all.size()]);
      targets.push_back(x);
    }
    for (const AttributeSet& x : targets) {
      ExpectBoundedMatchesChase(state, r, x);
    }
  }
}

// A lossless subset is connected: its chase cannot equate symbols across
// parts that share no attribute. So every join of a plan can take its
// members in an order where each shares an attribute with those before it,
// and Expression::Join stores them so. In relation-index order, the branch
// RAE ⋈ RBD ⋈ RDA of each [E,B_i] joined RAE with RBD, which share nothing.
TEST(TotalProjectionTest, TwoAttributePlansTakeNoCartesianStep) {
  for (size_t k : {2u, 3u}) {
    DatabaseScheme s = MakeSplitScheme(k);
    RecognitionResult r = RecognizeIndependenceReducible(s);
    ASSERT_TRUE(r.accepted);
    std::vector<AttributeId> all = s.AllAttrs().ToVector();
    for (size_t i = 0; i < all.size(); ++i) {
      for (size_t j = i + 1; j < all.size(); ++j) {
        ExprPtr plan = BuildBoundedProjectionExpr(s, r, {all[i], all[j]});
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(test::CartesianSteps(*plan), 0u)
            << "k=" << k << ": " << plan->ToString(s);
      }
    }
  }
}

TEST(TotalProjectionTest, ExpressionSizeIsStateIndependent) {
  // Boundedness: the expression depends only on R and F.
  DatabaseScheme s = test::Example11();
  RecognitionResult r = RecognizeIndependenceReducible(s);
  ExprPtr e1 = BuildBoundedProjectionExpr(s, r, Attrs(s, "ACG"));
  ASSERT_NE(e1, nullptr);
  size_t nodes = e1->NodeCount();
  // Rebuilt for any state (there is no state input at all): stable size.
  ExprPtr e2 = BuildBoundedProjectionExpr(s, r, Attrs(s, "ACG"));
  EXPECT_EQ(e2->NodeCount(), nodes);
}

}  // namespace
}  // namespace ird
