#include <algorithm>

#include <gtest/gtest.h>

#include "algebra/expression.h"
#include "oracle/naive_extension_join.h"
#include "tests/test_util.h"

namespace ird {
namespace {

using oracle::AdmitsExtensionJoinTree;
using oracle::IsExtensionJoinSequence;
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

// A join fixes its members' order when it is built: each member after the
// first shares an attribute with those before it, so AE ⋈ BD ⋈ DA, whose
// first two members share nothing, is stored as AE ⋈ DA ⋈ BD.
TEST(JoinOrderTest, JoinStoresMembersInConnectedOrder) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("RAE", "AE", {"A"});
  s.AddRelation("RBD", "BD", {"D"});
  s.AddRelation("RDA", "DA", {"D"});
  ExprPtr join = Expression::Join({Expression::Base(0, s.relation(0).attrs),
                                   Expression::Base(1, s.relation(1).attrs),
                                   Expression::Base(2, s.relation(2).attrs)});
  ASSERT_EQ(join->children().size(), 3u);
  EXPECT_EQ(join->children()[0]->relation_index(), 0u);
  EXPECT_EQ(join->children()[1]->relation_index(), 2u);
  EXPECT_EQ(join->children()[2]->relation_index(), 1u);
  EXPECT_EQ(join->ToString(s), "(RAE ⋈ RDA ⋈ RBD)");
  EXPECT_EQ(join->output_attrs(), Attrs(s, "ABDE"));
}

TEST_F(AlgebraTest, ConnectedJoinKeepsItsOrder) {
  EXPECT_EQ(Expression::Join({Base(0), Base(1), Base(2), Base(3)})
                ->ToString(scheme_),
            "(R1 ⋈ R2 ⋈ R3 ⋈ R4)");
  EXPECT_EQ(Expression::Join({Base(2), Base(1), Base(3), Base(0)})
                ->ToString(scheme_),
            "(R3 ⋈ R2 ⋈ R4 ⋈ R1)");
}

// With no member sharing an attribute with those placed, the first
// remaining member comes next: disjoint members keep their given order.
TEST_F(AlgebraTest, DisjointMembersKeepTheirOrder) {
  EXPECT_EQ(Expression::Join({Base(0), Base(2)})->ToString(scheme_),
            "(R1 ⋈ R3)");
  EXPECT_EQ(Expression::Join({Base(2), Base(0)})->ToString(scheme_),
            "(R3 ⋈ R1)");
  // BE joins AB through B; CD shares nothing with either, so it comes
  // last, as the first (and only) remaining member.
  EXPECT_EQ(ConnectedJoinOrder({Attrs(scheme_, "AB"), Attrs(scheme_, "CD"),
                                Attrs(scheme_, "BE")}),
            (std::vector<size_t>{0, 2, 1}));
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
}

TEST(ExtensionJoinTest, Example4ExpressionIsBushyExtensionJoin) {
  // Example 4: "the join expression is a union of projections of extension
  // joins" — AB ⋈ AC ⋈ (BE ⋈ CE). The subset admits NO sequential
  // (left-deep) extension order, but it does admit the paper's bushy tree:
  // (AB ⋈ AC) on ABC, (BE ⋈ CE) on BCE, then BC -> E closes the join.
  DatabaseScheme s = test::Example4();
  const FdSet& f = s.key_dependencies();
  std::vector<size_t> order = {0, 1, 3, 4};
  do {
    EXPECT_FALSE(IsExtensionJoinSequence(s, order, f));
  } while (std::next_permutation(order.begin(), order.end()));
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

}  // namespace
}  // namespace ird
