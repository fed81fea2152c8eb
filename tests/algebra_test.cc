#include <gtest/gtest.h>

#include "algebra/expression.h"
#include "algebra/extension_join.h"
#include "tests/test_util.h"

namespace ird {
namespace {

using test::Attrs;

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() : scheme_(test::Example9()), state_(scheme_) {
    // Two chain entities: 1-2-3-4-5 and 6-7 (partial).
    state_.Insert("R1", {1, 2});
    state_.Insert("R2", {2, 3});
    state_.Insert("R3", {3, 4});
    state_.Insert("R4", {4, 5});
    state_.Insert("R1", {6, 7});
  }

  ExprPtr Base(size_t i) {
    return Expression::Base(i, scheme_.relation(i).attrs);
  }

  DatabaseScheme scheme_;
  DatabaseState state_;
};

TEST_F(AlgebraTest, EvaluateBase) {
  PartialRelation r = Evaluate(*Base(0), state_);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.attrs(), Attrs(scheme_, "AB"));
}

TEST_F(AlgebraTest, EvaluateJoin) {
  ExprPtr join = Expression::Join({Base(0), Base(1)});
  PartialRelation r = Evaluate(*join, state_);
  ASSERT_EQ(r.size(), 1u);  // only entity 1 joins through B
  EXPECT_EQ(r.tuples()[0].values(), (std::vector<Value>{1, 2, 3}));
  EXPECT_EQ(join->output_attrs(), Attrs(scheme_, "ABC"));
}

TEST_F(AlgebraTest, EvaluateThreeWayJoin) {
  ExprPtr join = Expression::Join({Base(0), Base(1), Base(2), Base(3)});
  PartialRelation r = Evaluate(*join, state_);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.tuples()[0].values(), (std::vector<Value>{1, 2, 3, 4, 5}));
}

TEST_F(AlgebraTest, EvaluateProjectDeduplicates) {
  // π_B over R1 ∪ rows with equal B collapse.
  DatabaseState state(scheme_);
  state.Insert("R1", {1, 5});
  state.Insert("R1", {2, 5});
  ExprPtr p = Expression::Project(Attrs(scheme_, "B"), Base(0));
  PartialRelation r = Evaluate(*p, state);
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(AlgebraTest, EvaluateSelect) {
  AttributeId a = scheme_.universe().Find("A").value();
  ExprPtr sel = Expression::Select({EqualityAtom{a, 6}}, Base(0));
  PartialRelation r = Evaluate(*sel, state_);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.tuples()[0].values(), (std::vector<Value>{6, 7}));
}

TEST_F(AlgebraTest, EvaluateUnion) {
  ExprPtr u = Expression::Union(
      {Expression::Project(Attrs(scheme_, "B"), Base(0)),
       Expression::Project(Attrs(scheme_, "B"), Base(1))});
  PartialRelation r = Evaluate(*u, state_);
  // B values: 2, 7 from R1; 2 from R2 (deduplicated).
  EXPECT_EQ(r.size(), 2u);
}

// The relations overload reads each base relation through its pointer and
// needs no other: a plan over R1 and R2 evaluates with every other entry
// null and answers as the DatabaseState overload does.
TEST_F(AlgebraTest, EvaluateReadsOnlyTheRelationsThePlanNames) {
  ExprPtr plan = Expression::Project(Attrs(scheme_, "AC"),
                                     Expression::Join({Base(0), Base(1)}));
  std::vector<const PartialRelation*> relations(scheme_.size(), nullptr);
  relations[0] = &state_.relation(0);
  relations[1] = &state_.relation(1);
  PartialRelation borrowed = Evaluate(*plan, relations);
  ASSERT_EQ(borrowed.size(), 1u);
  EXPECT_EQ(borrowed.tuples()[0].values(), (std::vector<Value>{1, 3}));
  EXPECT_TRUE(borrowed.SetEquals(Evaluate(*plan, state_)));
}

TEST_F(AlgebraTest, NodeCount) {
  ExprPtr e = Expression::Project(
      Attrs(scheme_, "A"), Expression::Join({Base(0), Base(1)}));
  EXPECT_EQ(e->NodeCount(), 4u);
}

TEST_F(AlgebraTest, JoinOfOneChildCollapses) {
  ExprPtr e = Expression::Join({Base(0)});
  EXPECT_EQ(e->kind(), Expression::Kind::kBase);
}

TEST_F(AlgebraTest, ToStringIsReadable) {
  ExprPtr e = Expression::Project(
      Attrs(scheme_, "A"), Expression::Join({Base(0), Base(1)}));
  EXPECT_EQ(e->ToString(scheme_), "π[A]((R1 ⋈ R2))");
}

TEST(NaturalJoinTest, DisjointSchemesGiveProduct) {
  PartialRelation left(AttributeSet{0});
  left.Add({1});
  left.Add({2});
  PartialRelation right(AttributeSet{1});
  right.Add({7});
  PartialRelation out = NaturalJoin(left, right);
  EXPECT_EQ(out.size(), 2u);
}

TEST(NaturalJoinTest, ManyToMany) {
  PartialRelation left(AttributeSet{0, 1});
  left.Add({1, 5});
  left.Add({2, 5});
  PartialRelation right(AttributeSet{1, 2});
  right.Add({5, 8});
  right.Add({5, 9});
  PartialRelation out = NaturalJoin(left, right);
  EXPECT_EQ(out.size(), 4u);
}

TEST(ExtensionJoinTest, ChainIsExtensionSequence) {
  DatabaseScheme s = test::Example9();
  const FdSet& f = s.key_dependencies();
  EXPECT_TRUE(IsExtensionJoinSequence(s, {0, 1, 2, 3}, f));
  EXPECT_TRUE(IsExtensionJoinSequence(s, {3, 2, 1, 0}, f));
  // A gap makes a cartesian step.
  EXPECT_FALSE(IsExtensionJoinSequence(s, {0, 2}, f));
}

TEST(ExtensionJoinTest, OneWayKeysRestrictDirection) {
  // A -> B chain with one-way keys: extension joins must follow the arrows.
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "BC", {"B"});
  const FdSet& f = s.key_dependencies();
  EXPECT_TRUE(IsExtensionJoinSequence(s, {0, 1}, f));
  EXPECT_FALSE(IsExtensionJoinSequence(s, {1, 0}, f));
  auto order = FindExtensionJoinOrder(s, {1, 0}, f);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<size_t>{0, 1}));
}

TEST(ExtensionJoinTest, NoOrderExists) {
  // Two relations sharing a non-determining attribute.
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"AB"});
  s.AddRelation("R2", "BC", {"BC"});
  EXPECT_FALSE(
      FindExtensionJoinOrder(s, {0, 1}, s.key_dependencies()).has_value());
}

TEST(ExtensionJoinTest, Example4ExpressionIsBushyExtensionJoin) {
  // Example 4: "the join expression is a union of projections of extension
  // joins" — AB ⋈ AC ⋈ (BE ⋈ CE). The subset admits NO sequential
  // (left-deep) extension order, but it does admit the paper's bushy tree:
  // (AB ⋈ AC) on ABC, (BE ⋈ CE) on BCE, then BC -> E closes the join.
  DatabaseScheme s = test::Example4();
  const FdSet& f = s.key_dependencies();
  EXPECT_FALSE(FindExtensionJoinOrder(s, {0, 1, 3, 4}, f).has_value());
  EXPECT_TRUE(AdmitsExtensionJoinTree(s, {0, 1, 3, 4}, f));
}

TEST(ExtensionJoinTest, TreeRejectsUndeterminedCombination) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"AB"});
  s.AddRelation("R2", "BC", {"BC"});
  EXPECT_FALSE(AdmitsExtensionJoinTree(s, {0, 1}, s.key_dependencies()));
}

TEST(ExtensionJoinTest, TreeAcceptsSingleRelation) {
  DatabaseScheme s = test::Example9();
  EXPECT_TRUE(AdmitsExtensionJoinTree(s, {2}, s.key_dependencies()));
}

TEST(ExtensionJoinTest, SequentialJoinExprShape) {
  DatabaseScheme s = test::Example9();
  ExprPtr e = SequentialJoinExpr(s, {0, 1, 2});
  EXPECT_EQ(e->kind(), Expression::Kind::kJoin);
  EXPECT_EQ(e->output_attrs(), Attrs(s, "ABCD"));
}

}  // namespace
}  // namespace ird
