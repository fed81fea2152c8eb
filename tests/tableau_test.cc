#include <gtest/gtest.h>

#include "engine/scheme_analysis.h"
#include "tableau/chase.h"
#include "tableau/tableau.h"
#include "tests/test_util.h"

namespace ird {
namespace {

using test::Attrs;

TEST(TableauTest, ConstantsDeduplicate) {
  Tableau t(3);
  EXPECT_EQ(t.Constant(7), t.Constant(7));
  EXPECT_NE(t.Constant(7), t.Constant(8));
  EXPECT_TRUE(t.IsConstant(t.Constant(7)));
  EXPECT_EQ(t.ValueOf(t.Constant(7)), 7);
}

TEST(TableauTest, DvPerColumn) {
  Tableau t(3);
  EXPECT_EQ(t.Dv(1), t.Dv(1));
  EXPECT_NE(t.Dv(0), t.Dv(1));
  EXPECT_EQ(t.KindOf(t.Dv(2)), SymbolKind::kDistinguished);
  EXPECT_EQ(t.ColumnOf(t.Dv(2)), 2u);
}

TEST(TableauTest, NdvAlwaysFresh) {
  Tableau t(3);
  EXPECT_NE(t.FreshNdv(), t.FreshNdv());
}

TEST(TableauTest, SchemeRowShape) {
  Tableau t(4);
  size_t row = t.AddSchemeRow(AttributeSet{0, 2});
  EXPECT_EQ(t.DvColumns(row), (AttributeSet{0, 2}));
  EXPECT_TRUE(t.ConstantColumns(row).Empty());
}

TEST(TableauTest, TupleRowShape) {
  Tableau t(4);
  size_t row = t.AddTupleRow(AttributeSet{1, 3}, {10, 30});
  EXPECT_EQ(t.ConstantColumns(row), (AttributeSet{1, 3}));
  EXPECT_TRUE(t.TotalOn(row, AttributeSet{1, 3}));
  EXPECT_FALSE(t.TotalOn(row, AttributeSet{0, 1}));
  EXPECT_EQ(t.ValuesOn(row, AttributeSet{1, 3}),
            (std::vector<Value>{10, 30}));
}

TEST(TableauTest, EquateConstantWinsOverVariables) {
  Tableau t(2);
  SymId c = t.Constant(5);
  SymId dv = t.Dv(0);
  SymId ndv = t.FreshNdv();
  EXPECT_TRUE(t.Equate(c, ndv));
  EXPECT_TRUE(t.IsConstant(ndv));
  EXPECT_EQ(t.ValueOf(ndv), 5);
  EXPECT_TRUE(t.Equate(dv, c));
  EXPECT_TRUE(t.IsConstant(dv));
}

TEST(TableauTest, EquateDistinctConstantsFails) {
  Tableau t(2);
  EXPECT_FALSE(t.Equate(t.Constant(1), t.Constant(2)));
  EXPECT_TRUE(t.Equate(t.Constant(1), t.Constant(1)));
}

TEST(TableauTest, EquateDvBeatsNdv) {
  Tableau t(2);
  SymId dv = t.Dv(1);
  SymId ndv = t.FreshNdv();
  EXPECT_TRUE(t.Equate(ndv, dv));
  EXPECT_EQ(t.KindOf(ndv), SymbolKind::kDistinguished);
}

TEST(TableauTest, EquateNdvLowerIdWins) {
  Tableau t(2);
  SymId n1 = t.FreshNdv();
  SymId n2 = t.FreshNdv();
  EXPECT_TRUE(t.Equate(n2, n1));
  EXPECT_EQ(t.Canonical(n2), t.Canonical(n1));
  EXPECT_EQ(t.Canonical(n2), n1);
}

TEST(ChaseTest, SimpleMerge) {
  // Two rows agreeing on A with A -> B must agree on B afterwards.
  Tableau t(2);
  t.AddTupleRow(AttributeSet{0}, {1});
  size_t r2 = t.AddTupleRow(AttributeSet{0, 1}, {1, 9});
  FdSet f;
  f.Add(AttributeSet{0}, AttributeSet{1});
  ChaseStats stats = ChaseFds(&t, f);
  EXPECT_TRUE(stats.consistent);
  EXPECT_GE(stats.rule_applications, 1u);
  EXPECT_TRUE(t.TotalOn(0, AttributeSet{1}));
  EXPECT_EQ(t.ValueOf(t.Cell(0, 1)), 9);
  EXPECT_EQ(t.ValueOf(t.Cell(r2, 1)), 9);
}

TEST(ChaseTest, DetectsInconsistency) {
  // <1, 5> and <1, 6> violate A -> B.
  Tableau t(2);
  t.AddTupleRow(AttributeSet{0, 1}, {1, 5});
  t.AddTupleRow(AttributeSet{0, 1}, {1, 6});
  FdSet f;
  f.Add(AttributeSet{0}, AttributeSet{1});
  EXPECT_FALSE(ChaseFds(&t, f).consistent);
}

TEST(ChaseTest, TransitiveCascade) {
  // A -> B, B -> C: a row with only A must pick up B then C from others.
  Tableau t(3);
  t.AddTupleRow(AttributeSet{0}, {1});
  t.AddTupleRow(AttributeSet{0, 1}, {1, 2});
  t.AddTupleRow(AttributeSet{1, 2}, {2, 3});
  FdSet f;
  f.Add(AttributeSet{0}, AttributeSet{1});
  f.Add(AttributeSet{1}, AttributeSet{2});
  EXPECT_TRUE(ChaseFds(&t, f).consistent);
  EXPECT_TRUE(t.TotalOn(0, AttributeSet{0, 1, 2}));
  EXPECT_EQ(t.ValuesOn(0, AttributeSet{0, 1, 2}),
            (std::vector<Value>{1, 2, 3}));
}

TEST(ChaseTest, NoFdsNoChange) {
  Tableau t(2);
  t.AddTupleRow(AttributeSet{0}, {1});
  ChaseStats stats = ChaseFds(&t, FdSet());
  EXPECT_TRUE(stats.consistent);
  EXPECT_EQ(stats.rule_applications, 0u);
}

TEST(ChaseTest, CompositeLeftSides) {
  // AB -> C fires only when both columns agree.
  Tableau t(3);
  t.AddTupleRow(AttributeSet{0, 1, 2}, {1, 2, 7});
  t.AddTupleRow(AttributeSet{0, 1}, {1, 2});
  t.AddTupleRow(AttributeSet{0, 1}, {1, 3});  // differs on B
  FdSet f;
  f.Add(AttributeSet{0, 1}, AttributeSet{2});
  EXPECT_TRUE(ChaseFds(&t, f).consistent);
  EXPECT_TRUE(t.TotalOn(1, AttributeSet{2}));
  EXPECT_EQ(t.ValueOf(t.Cell(1, 2)), 7);
  EXPECT_FALSE(t.TotalOn(2, AttributeSet{2}));
}

TEST(ChaseTest, SchemeTableauOfExample1) {
  DatabaseScheme s = test::Example1R();
  Tableau t = SchemeTableau(s);
  EXPECT_EQ(t.row_count(), 5u);
  EXPECT_EQ(t.width(), s.universe().size());
  // Row 0 is R1(HRC): dv exactly there.
  EXPECT_EQ(t.DvColumns(0), Attrs(s, "HRC"));
}

TEST(ChaseTest, LosslessnessOfPaperSchemes) {
  // All key-equivalent schemes are lossless (any key determines ∪S).
  EXPECT_TRUE(IsLosslessByChase(test::Example3()));
  EXPECT_TRUE(IsLosslessByChase(test::Example4()));
  EXPECT_TRUE(IsLosslessByChase(test::Example6()));
  EXPECT_TRUE(IsLosslessByChase(test::Example9()));
  // Example 2's scheme is lossless too (A -> C and the trivial AB row:
  // chase row AB gains C via... it does not; check the real value).
  DatabaseScheme example2 = test::Example2();
  SchemeAnalysis analysis(example2);
  EXPECT_EQ(IsLosslessByChase(example2), IsLossless(analysis));
}

TEST(TableauTest, RowRefViewsContiguousStrip) {
  Tableau t(3);
  t.AddTupleRow(AttributeSet{0, 1, 2}, {10, 20, 30});
  t.AddTupleRow(AttributeSet{0, 2}, {40, 50});
  Tableau::RowRef r0 = t.Row(0);
  EXPECT_EQ(r0.size(), 3u);
  for (uint32_t c = 0; c < 3; ++c) EXPECT_EQ(r0[c], t.Cell(0, c));
  // The view iterates the raw strip; resolved cells match Cell().
  size_t c = 0;
  for (SymId s : t.Row(1)) {
    EXPECT_EQ(t.Canonical(s), t.Cell(1, c++));
  }
  EXPECT_EQ(c, 3u);
}

TEST(TableauTest, ScratchOverloadsMatchAllocatingForms) {
  Tableau t(4);
  t.AddTupleRow(AttributeSet{0, 1, 3}, {7, 8, 9});
  t.AddSchemeRow(AttributeSet{1, 2});
  for (size_t row = 0; row < t.row_count(); ++row) {
    AttributeSet cols;
    t.ConstantColumns(row, &cols);
    EXPECT_EQ(cols, t.ConstantColumns(row));
  }
  std::vector<Value> vals = {99, 99, 99};  // stale contents must be cleared
  t.ValuesOn(0, AttributeSet{0, 3}, &vals);
  EXPECT_EQ(vals, t.ValuesOn(0, AttributeSet{0, 3}));
}

TEST(TableauTest, DeepCopyIsIndependent) {
  Tableau t(2);
  t.AddTupleRow(AttributeSet{0, 1}, {1, 2});
  size_t row = t.AddSchemeRow(AttributeSet{0});
  Tableau copy = t;
  // Mutating the copy (merge + new row) must not leak into the original.
  ASSERT_TRUE(copy.Equate(copy.Cell(row, 1), copy.Constant(5)));
  copy.AddTupleRow(AttributeSet{0, 1}, {3, 4});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(copy.row_count(), 3u);
  EXPECT_FALSE(t.IsConstant(t.Cell(row, 1)));
  EXPECT_TRUE(copy.IsConstant(copy.Cell(row, 1)));
  EXPECT_EQ(t.merge_log().size(), 0u);
  EXPECT_EQ(copy.merge_log().size(), 1u);
  // Copy-assignment over an already-populated tableau.
  Tableau reassigned(2);
  reassigned.AddTupleRow(AttributeSet{0, 1}, {8, 8});
  reassigned = t;
  EXPECT_EQ(reassigned.row_count(), 2u);
  EXPECT_EQ(reassigned.Cell(0, 0), t.Cell(0, 0));
}

TEST(ChaseTest, MinimizeByConstantSubsumption) {
  Tableau t(3);
  t.AddTupleRow(AttributeSet{0, 1}, {1, 2});        // subsumed by row 2
  t.AddTupleRow(AttributeSet{0, 1, 2}, {1, 2, 3});  // maximal
  t.AddTupleRow(AttributeSet{0, 1}, {1, 2});        // duplicate of row 0
  t.AddTupleRow(AttributeSet{0, 1}, {9, 9});        // unrelated
  EXPECT_EQ(MinimizeByConstantSubsumption(&t), 2u);
  EXPECT_EQ(t.row_count(), 2u);
}

}  // namespace
}  // namespace ird
