// §3.2 / Theorem 3.2: maintenance through predetermined relational
// expressions only (no representative-instance index). Validated against
// Algorithm 2 and the chase.

#include <gtest/gtest.h>

#include "core/expression_maintenance.h"
#include "core/representative_index.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

TEST(ExpressionLookupTest, PlanEnumeratesLosslessExpressions) {
  DatabaseScheme s = test::Example4();
  ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
  // Keys A, E, BC, D.
  ASSERT_EQ(plan.keys().size(), 4u);
  for (size_t k = 0; k < plan.keys().size(); ++k) {
    EXPECT_GT(plan.ExpressionCount(k), 0u)
        << s.universe().Format(plan.keys()[k]);
  }
}

TEST(ExpressionLookupTest, Example7GreatestExpressionWins) {
  // Example 7's point: the total tuple for A='a' comes from the *greatest*
  // lossless expression σ_{A=a}(R1 ⋈ R2 ⋈ (R4 ⋈ R5)), not from the small
  // ones like σ_{A=a}(R1).
  DatabaseScheme s = test::Example4();
  constexpr Value a = 1, b = 2, c = 3, e1 = 11, e2 = 12;
  DatabaseState state(s);
  state.mutable_relation(0).Add(Tuple(s, "AB", {a, b}));
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e1, b}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e2, b}));
  state.mutable_relation(4).Add(Tuple(s, "EC", {e1, c}));
  ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
  Result<std::optional<PartialTuple>> found =
      plan.LookupTotalTuple(state, Attrs(s, "A"), Tuple(s, "A", {a}));
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  // The full <a, b, c, e1> tuple, not just <a, b>.
  EXPECT_EQ((*found)->attrs(), Attrs(s, "ABCE"));
  EXPECT_EQ((*found)->At(s.universe().Find("E").value()), e1);
}

TEST(ExpressionLookupTest, MissingKeyValueReturnsNothing) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
  Result<std::optional<PartialTuple>> found =
      plan.LookupTotalTuple(state, Attrs(s, "C"), Tuple(s, "C", {42}));
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found->has_value());
}

TEST(ExpressionLookupTest, AgreesWithRepresentativeIndexOnGeneratedStates) {
  std::vector<DatabaseScheme> schemes = {MakeChainScheme(4),
                                         MakeSplitScheme(2), test::Example4(),
                                         test::Example6()};
  for (const DatabaseScheme& s : schemes) {
    StateGenOptions opt;
    opt.entities = 15;
    opt.coverage = 0.6;
    opt.seed = 9;
    DatabaseState state = MakeConsistentState(s, opt);
    ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
    Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
    ASSERT_TRUE(index.ok());
    for (const PartialTuple* row : index->Rows()) {
      for (const AttributeSet& key : plan.keys()) {
        if (!key.IsSubsetOf(row->attrs())) continue;
        Result<std::optional<PartialTuple>> found =
            plan.LookupTotalTuple(state, key, row->Restrict(key));
        ASSERT_TRUE(found.ok());
        ASSERT_TRUE(found->has_value());
        EXPECT_EQ(**found, *row)
            << "key " << s.universe().Format(key) << " of row "
            << row->ToString(s.universe());
      }
    }
  }
}

TEST(ExpressionMaintenanceTest, Example6RejectsTheInsert) {
  DatabaseScheme s = test::Example6();
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, e2 = 6;
  DatabaseState state(s);
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(4).Add(Tuple(s, "BD", {b, d}));
  state.mutable_relation(5).Add(Tuple(s, "CDE", {c, d, e}));
  ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
  EXPECT_FALSE(
      CheckInsertByExpressions(s, plan, state, 0, Tuple(s, "ABE", {a, b, e2}))
          .ok());
  EXPECT_TRUE(
      CheckInsertByExpressions(s, plan, state, 0, Tuple(s, "ABE", {a, b, e}))
          .ok());
}

TEST(ExpressionMaintenanceTest, AgreesWithAlgorithm2OnStreams) {
  std::vector<DatabaseScheme> schemes = {
      MakeChainScheme(3), MakeSplitScheme(2), MakeStarScheme(3),
      test::Example3(), test::Example4()};
  for (const DatabaseScheme& s : schemes) {
    StateGenOptions opt;
    opt.entities = 12;
    opt.coverage = 0.6;
    opt.seed = 31;
    DatabaseState state = MakeConsistentState(s, opt);
    ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
    // Algorithm 2 on the representative instance, forced even on the
    // split-free schemes of the list.
    Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
    ASSERT_TRUE(index.ok());
    std::vector<InsertInstance> stream =
        MakeInsertStream(s, state, 30, 0.4, 33);
    // Both lookups return the same total tuples, so the shared worklist
    // consumes the same keys in the same order: equal work, not just an
    // equal verdict and q. A lookup returning a smaller tuple than the
    // representative row grows the closure less and queues fewer keys.
    ASSERT_EQ(plan.keys(), index->keys());
    for (const InsertInstance& ins : stream) {
      MaintenanceStats expr_stats;
      MaintenanceStats index_stats;
      Result<PartialTuple> by_expr = CheckInsertByExpressions(
          s, plan, state, ins.rel, ins.tuple, &expr_stats);
      Result<PartialTuple> by_index = CheckInsertKeyEquivalent(
          s, *index, ins.rel, ins.tuple, &index_stats);
      ASSERT_EQ(by_expr.ok(), by_index.ok())
          << ins.tuple.ToString(s.universe());
      if (by_expr.ok()) {
        EXPECT_EQ(*by_expr, *by_index);
      }
      EXPECT_EQ(expr_stats.keys_processed, index_stats.keys_processed)
          << ins.tuple.ToString(s.universe());
      EXPECT_EQ(expr_stats.lookups, index_stats.lookups)
          << ins.tuple.ToString(s.universe());
      EXPECT_EQ(by_expr.ok(), ins.expected_consistent);
    }
  }
}

TEST(ExpressionMaintenanceTest, BoundedNumberOfLookups) {
  // Theorem 3.2's point: the number of selections depends only on R and F.
  DatabaseScheme s = MakeSplitScheme(2);
  size_t lookups_small = 0;
  size_t lookups_large = 0;
  for (size_t entities : {10u, 500u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.seed = 77;
    DatabaseState state = MakeConsistentState(s, opt);
    ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
    PartialTuple fresh = state.MakeTuple(0, {900001, 900002});
    MaintenanceStats stats;
    ASSERT_TRUE(CheckInsertByExpressions(s, plan, state, 0, fresh, &stats).ok());
    (entities == 10u ? lookups_small : lookups_large) = stats.lookups;
  }
  EXPECT_EQ(lookups_small, lookups_large);
  EXPECT_GT(lookups_small, 0u);
}

}  // namespace
}  // namespace ird
