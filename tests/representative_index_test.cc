#include <algorithm>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "core/representative_index.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

// Compares the index's total projections with the chase ground truth on a
// collection of attribute sets.
void ExpectMatchesChase(const DatabaseState& state,
                        const RepresentativeIndex& index,
                        const std::vector<AttributeSet>& targets) {
  for (const AttributeSet& x : targets) {
    Result<PartialRelation> expected = TotalProjectionByChase(state, x);
    ASSERT_TRUE(expected.ok());
    PartialRelation actual = index.TotalProjection(x);
    EXPECT_TRUE(actual.SetEquals(*expected))
        << "X=" << state.universe().Format(x) << "\n  index: "
        << actual.ToString(state.universe())
        << "\n  chase: " << expected->ToString(state.universe());
  }
}

TEST(RepresentativeIndexTest, EmptyState) {
  DatabaseState state(test::Example9());
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->RowCount(), 0u);
}

TEST(RepresentativeIndexTest, ChainMergesIntoOneRow) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {2, 3});
  state.Insert("R3", {3, 4});
  state.Insert("R4", {4, 5});
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->RowCount(), 1u);
  const PartialTuple* row = idx->Rows()[0];
  EXPECT_EQ(row->attrs(), Attrs(s, "ABCDE"));
  EXPECT_EQ(row->values(), (std::vector<Value>{1, 2, 3, 4, 5}));
}

TEST(RepresentativeIndexTest, SeparateEntitiesStaySeparate) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R1", {6, 7});
  state.Insert("R3", {8, 9});
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->RowCount(), 3u);
}

TEST(RepresentativeIndexTest, DetectsInconsistency) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R1", {1, 3});  // A -> B violated
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kInconsistent);
}

TEST(RepresentativeIndexTest, DetectsTransitiveInconsistency) {
  // Fragments agree on keys pairwise but clash after merging.
  DatabaseScheme s = test::Example3();  // triangle, all singleton keys
  DatabaseState state(s);
  state.Insert("R1", {1, 2});  // A=1 B=2
  state.Insert("R2", {2, 3});  // B=2 C=3
  state.Insert("R3", {1, 4});  // A=1 C=4: chase forces C=3 vs C=4
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  EXPECT_FALSE(idx.ok());
}

TEST(RepresentativeIndexTest, LookupByAnyKey) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {2, 3});
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  // The merged row is findable through each of its keys.
  const PartialTuple* by_a = idx->Lookup(Attrs(s, "A"), Tuple(s, "A", {1}));
  ASSERT_NE(by_a, nullptr);
  EXPECT_EQ(by_a->attrs(), Attrs(s, "ABC"));
  const PartialTuple* by_c = idx->Lookup(Attrs(s, "C"), Tuple(s, "C", {3}));
  EXPECT_EQ(by_c, by_a);
  EXPECT_EQ(idx->Lookup(Attrs(s, "A"), Tuple(s, "A", {99})), nullptr);
}

TEST(RepresentativeIndexTest, IncrementalInsertMatchesRebuild) {
  DatabaseScheme s = test::Example6();
  DatabaseState state(s);
  state.mutable_relation(1).Add(Tuple(s, "AC", {1, 10}));
  state.mutable_relation(4).Add(Tuple(s, "BD", {2, 20}));
  state.mutable_relation(5).Add(Tuple(s, "CDE", {10, 20, 3}));
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  // Insert <a=1, b=2, e=3> into R1(ABE): all three fragments merge.
  PartialTuple t = Tuple(s, "ABE", {1, 2, 3});
  ASSERT_TRUE(idx->InsertTuple(0, t).ok());
  state.mutable_relation(0).AddUnique(t);
  Result<RepresentativeIndex> rebuilt = RepresentativeIndex::Build(state);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(idx->RowCount(), rebuilt->RowCount());
  ExpectMatchesChase(state, *idx,
                     {Attrs(s, "AB"), Attrs(s, "ABCDE"), Attrs(s, "CE"),
                      Attrs(s, "AD")});
}

// An insert that bridges two live rows merges them: the tuple joins the
// row holding its B value, which then agrees with the other row on C. The
// merged-away row's slots pass to the survivor, so a lookup by any key of
// either old row finds the one surviving row.
TEST(RepresentativeIndexTest, BridgingInsertMergesTwoLiveRows) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});  // A=1 B=2
  state.Insert("R3", {3, 4});  // C=3 D=4
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx->RowCount(), 2u);
  ASSERT_TRUE(idx->InsertTuple(1, Tuple(s, "BC", {2, 3})).ok());
  ASSERT_EQ(idx->RowCount(), 1u);
  const PartialTuple* survivor = idx->Rows()[0];
  EXPECT_EQ(survivor->attrs(), Attrs(s, "ABCD"));
  EXPECT_EQ(survivor->values(), (std::vector<Value>{1, 2, 3, 4}));
  EXPECT_EQ(idx->Lookup(Attrs(s, "A"), Tuple(s, "A", {1})), survivor);
  EXPECT_EQ(idx->Lookup(Attrs(s, "B"), Tuple(s, "B", {2})), survivor);
  EXPECT_EQ(idx->Lookup(Attrs(s, "C"), Tuple(s, "C", {3})), survivor);
  EXPECT_EQ(idx->Lookup(Attrs(s, "D"), Tuple(s, "D", {4})), survivor);
  // The survivor keeps absorbing inserts through its handed-over keys.
  ASSERT_TRUE(idx->InsertTuple(3, Tuple(s, "DE", {4, 5})).ok());
  EXPECT_EQ(idx->RowCount(), 1u);
  EXPECT_EQ(idx->Lookup(Attrs(s, "E"), Tuple(s, "E", {5})), survivor);
  EXPECT_EQ(survivor->attrs(), Attrs(s, "ABCDE"));
  EXPECT_FALSE(idx->InsertTuple(2, Tuple(s, "CD", {3, 9})).ok());
}

TEST(RepresentativeIndexTest, Example6RepresentativeInstance) {
  // The state tableau of Example 6 is already chased: three fragments.
  DatabaseScheme s = test::Example6();
  DatabaseState state(s);
  state.mutable_relation(1).Add(Tuple(s, "AC", {1, 10}));
  state.mutable_relation(4).Add(Tuple(s, "BD", {2, 20}));
  state.mutable_relation(5).Add(Tuple(s, "CDE", {10, 20, 3}));
  Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->RowCount(), 3u);
}

TEST(RepresentativeIndexTest, BlockPoolIgnoresOtherRelations) {
  DatabaseScheme s = test::Example11();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R5", {7, 8, 9});
  Result<RepresentativeIndex> idx =
      RepresentativeIndex::Build(state, {0, 1, 2, 3});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->RowCount(), 1u);  // only the R1 tuple
}

TEST(RepresentativeIndexTest, MatchesChaseOnGeneratedStates) {
  // Property sweep: on random consistent states of key-equivalent schemes,
  // the index's total projections equal the chase's for assorted X.
  std::vector<DatabaseScheme> schemes = {
      MakeChainScheme(4), MakeSplitScheme(2), MakeStarScheme(3),
      test::Example4(), test::Example6()};
  for (const DatabaseScheme& s : schemes) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      StateGenOptions opt;
      opt.entities = 30;
      opt.coverage = 0.5;
      opt.seed = seed;
      DatabaseState state = MakeConsistentState(s, opt);
      ASSERT_TRUE(IsConsistent(state));
      Result<RepresentativeIndex> idx = RepresentativeIndex::Build(state);
      ASSERT_TRUE(idx.ok());
      // Targets: every relation scheme, every key, and the whole universe.
      std::vector<AttributeSet> targets;
      for (const RelationScheme& r : s.relations()) {
        targets.push_back(r.attrs);
      }
      for (const auto& [rel, key] : s.AllKeys()) {
        targets.push_back(key);
      }
      targets.push_back(s.AllAttrs());
      ExpectMatchesChase(state, *idx, targets);
    }
  }
}

// Inserting a generated state's tuples one by one, in shuffled order,
// into the index of the empty state lands on the representative instance
// Build computes, and both equal the chase.
TEST(RepresentativeIndexTest, ShuffledIncrementalInsertsMatchBuildAndChase) {
  std::vector<DatabaseScheme> schemes = {MakeChainScheme(4),
                                         MakeSplitScheme(2), test::Example4(),
                                         test::Example6(), test::Example9()};
  std::mt19937_64 rng(20261019);
  for (const DatabaseScheme& s : schemes) {
    StateGenOptions opt;
    opt.entities = 40;
    opt.coverage = 0.6;
    opt.seed = 61;
    DatabaseState state = MakeConsistentState(s, opt);
    std::vector<std::pair<size_t, PartialTuple>> stream;
    for (size_t rel = 0; rel < s.size(); ++rel) {
      for (const PartialTuple& t : state.relation(rel).tuples()) {
        stream.emplace_back(rel, t);
      }
    }
    std::shuffle(stream.begin(), stream.end(), rng);
    Result<RepresentativeIndex> incremental =
        RepresentativeIndex::Build(DatabaseState(s));
    ASSERT_TRUE(incremental.ok());
    for (const auto& [rel, t] : stream) {
      ASSERT_TRUE(incremental->InsertTuple(rel, t).ok());
    }
    Result<RepresentativeIndex> built = RepresentativeIndex::Build(state);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(incremental->RowCount(), built->RowCount());
    std::vector<AttributeSet> targets = {s.AllAttrs()};
    for (const RelationScheme& r : s.relations()) targets.push_back(r.attrs);
    for (const AttributeSet& key : built->keys()) targets.push_back(key);
    for (const AttributeSet& x : targets) {
      EXPECT_TRUE(incremental->TotalProjection(x).SetEquals(
          built->TotalProjection(x)))
          << "X=" << s.universe().Format(x);
    }
    ExpectMatchesChase(state, *incremental, targets);
  }
}

}  // namespace
}  // namespace ird
