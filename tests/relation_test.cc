#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relation/weak_instance.h"
#include "tests/test_util.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

TEST(PartialTupleTest, AccessAndRestrict) {
  PartialTuple t(AttributeSet{1, 3, 5}, {10, 30, 50});
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t.At(3), 30);
  EXPECT_TRUE(t.DefinedOn(5));
  EXPECT_FALSE(t.DefinedOn(2));
  PartialTuple r = t.Restrict(AttributeSet{1, 5});
  EXPECT_EQ(r.values(), (std::vector<Value>{10, 50}));
}

TEST(PartialTupleTest, AgreesOn) {
  PartialTuple a(AttributeSet{0, 1}, {1, 2});
  PartialTuple b(AttributeSet{1, 2}, {2, 3});
  EXPECT_TRUE(a.AgreesOn(b, AttributeSet{1}));
  PartialTuple c(AttributeSet{1, 2}, {9, 3});
  EXPECT_FALSE(a.AgreesOn(c, AttributeSet{1}));
}

// HashOn depends only on the values on x: tuples over different schemes
// that agree on x hash alike, as the hash join and key index need.
TEST(PartialTupleTest, HashOnSeesOnlyTheGivenAttributes) {
  PartialTuple a(AttributeSet{0, 1, 2}, {1, 2, 3});
  PartialTuple b(AttributeSet{1, 2, 5}, {2, 3, 9});
  PartialTuple c(AttributeSet{1, 2}, {2, 4});
  AttributeSet x{1, 2};
  EXPECT_EQ(a.HashOn(x), b.HashOn(x));
  EXPECT_EQ(a.HashOn(x), a.Restrict(x).HashOn(x));
  EXPECT_NE(a.HashOn(x), c.HashOn(x));
}

TEST(PartialTupleTest, JoinCompatible) {
  PartialTuple a(AttributeSet{0, 1}, {1, 2});
  PartialTuple b(AttributeSet{1, 2}, {2, 3});
  auto joined = a.Join(b);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->attrs(), (AttributeSet{0, 1, 2}));
  EXPECT_EQ(joined->values(), (std::vector<Value>{1, 2, 3}));
}

TEST(PartialTupleTest, JoinClashReturnsEmpty) {
  PartialTuple a(AttributeSet{0, 1}, {1, 2});
  PartialTuple b(AttributeSet{1, 2}, {7, 3});
  EXPECT_FALSE(a.Join(b).has_value());
}

TEST(PartialTupleTest, JoinDisjointIsProduct) {
  PartialTuple a(AttributeSet{0}, {1});
  PartialTuple b(AttributeSet{2}, {3});
  auto joined = a.Join(b);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->values(), (std::vector<Value>{1, 3}));
}

TEST(PartialRelationTest, AddUniqueDeduplicates) {
  PartialRelation r(AttributeSet{0, 1});
  EXPECT_TRUE(r.AddUnique(PartialTuple(AttributeSet{0, 1}, {1, 2})));
  EXPECT_FALSE(r.AddUnique(PartialTuple(AttributeSet{0, 1}, {1, 2})));
  EXPECT_TRUE(r.AddUnique(PartialTuple(AttributeSet{0, 1}, {1, 3})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(PartialTuple(AttributeSet{0, 1}, {1, 2})));
  EXPECT_FALSE(r.Contains(PartialTuple(AttributeSet{0, 1}, {9, 9})));
}

TEST(PartialRelationTest, SetEquals) {
  PartialRelation a(AttributeSet{0});
  PartialRelation b(AttributeSet{0});
  a.Add({1});
  a.Add({2});
  b.Add({2});
  b.Add({1});
  b.Add({1});  // duplicate collapses under set semantics
  EXPECT_TRUE(a.SetEquals(b));
  b.Add({3});
  EXPECT_FALSE(a.SetEquals(b));
}

PartialTuple Pair(Value a, Value b) {
  return PartialTuple(AttributeSet{0, 1}, {a, b});
}

// 1000 distinct tuples cross seven of the dedup table's resize boundaries
// (16 slots doubling to 2048); every row stays findable across each rehash
// and tuples() keeps insertion order.
TEST(PartialRelationTest, IndexSurvivesGrowthInInsertionOrder) {
  PartialRelation r(AttributeSet{0, 1});
  constexpr Value kRows = 1000;
  for (Value i = 0; i < kRows; ++i) {
    ASSERT_TRUE(r.AddUnique(Pair(i, i * 7)));
    ASSERT_TRUE(r.Contains(Pair(i / 2, (i / 2) * 7))) << i;
  }
  ASSERT_EQ(r.size(), static_cast<size_t>(kRows));
  for (Value i = 0; i < kRows; ++i) {
    EXPECT_EQ(r.tuples()[i].values(), (std::vector<Value>{i, i * 7}));
    EXPECT_FALSE(r.AddUnique(Pair(i, i * 7)));
    EXPECT_FALSE(r.Contains(Pair(i, i * 7 + 1)));
  }
  EXPECT_EQ(r.size(), static_cast<size_t>(kRows));
}

// Add appends duplicates unconditionally; set semantics see one copy.
TEST(PartialRelationTest, AddKeepsDuplicatesThatSetOperationsCollapse) {
  PartialRelation r(AttributeSet{0, 1});
  r.Add(Pair(1, 1));
  r.Add(Pair(1, 1));
  r.Add(Pair(2, 2));
  r.Add(Pair(1, 1));
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.tuples()[3], Pair(1, 1));
  EXPECT_TRUE(r.Contains(Pair(1, 1)));
  EXPECT_TRUE(r.Contains(Pair(2, 2)));
  EXPECT_FALSE(r.Contains(Pair(3, 3)));
  EXPECT_FALSE(r.AddUnique(Pair(1, 1)));
  EXPECT_FALSE(r.AddUnique(Pair(2, 2)));
  EXPECT_TRUE(r.AddUnique(Pair(3, 3)));
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.tuples()[4], Pair(3, 3));

  PartialRelation set(AttributeSet{0, 1});
  set.AddUnique(Pair(3, 3));
  set.AddUnique(Pair(2, 2));
  set.AddUnique(Pair(1, 1));
  EXPECT_TRUE(r.SetEquals(set));
  EXPECT_TRUE(set.SetEquals(r));
  set.AddUnique(Pair(4, 4));
  EXPECT_FALSE(r.SetEquals(set));
  EXPECT_FALSE(set.SetEquals(r));
}

// Copies and assignments carry their own index: growing one leaves the
// other's answers unchanged, and a moved-to relation keeps working.
TEST(PartialRelationTest, CopyMoveAndAssignmentKeepIndependentIndexes) {
  PartialRelation r(AttributeSet{0, 1});
  for (Value i = 0; i < 100; ++i) r.AddUnique(Pair(i, i));

  PartialRelation copy = r;
  EXPECT_TRUE(copy.AddUnique(Pair(500, 500)));
  EXPECT_TRUE(r.AddUnique(Pair(600, 600)));
  EXPECT_FALSE(r.Contains(Pair(500, 500)));
  EXPECT_FALSE(copy.Contains(Pair(600, 600)));
  for (Value i = 0; i < 100; ++i) {
    EXPECT_TRUE(copy.Contains(Pair(i, i)));
    EXPECT_FALSE(copy.AddUnique(Pair(i, i)));
  }

  PartialRelation moved = std::move(copy);
  EXPECT_EQ(moved.size(), 101u);
  EXPECT_TRUE(moved.Contains(Pair(500, 500)));
  EXPECT_FALSE(moved.AddUnique(Pair(7, 7)));
  for (Value i = 1000; i < 1100; ++i) EXPECT_TRUE(moved.AddUnique(Pair(i, i)));
  EXPECT_TRUE(moved.Contains(Pair(1050, 1050)));

  PartialRelation assigned(AttributeSet{0, 1});
  assigned.AddUnique(Pair(-1, -1));
  assigned = r;
  EXPECT_FALSE(assigned.Contains(Pair(-1, -1)));
  EXPECT_TRUE(assigned.SetEquals(r));
  EXPECT_TRUE(assigned.AddUnique(Pair(700, 700)));
  EXPECT_FALSE(r.Contains(Pair(700, 700)));

  PartialRelation move_assigned(AttributeSet{0, 1});
  move_assigned.AddUnique(Pair(-1, -1));
  move_assigned = std::move(assigned);
  EXPECT_FALSE(move_assigned.Contains(Pair(-1, -1)));
  EXPECT_TRUE(move_assigned.Contains(Pair(700, 700)));
  EXPECT_TRUE(move_assigned.Contains(Pair(600, 600)));
  EXPECT_FALSE(move_assigned.AddUnique(Pair(42, 42)));
  EXPECT_TRUE(move_assigned.AddUnique(Pair(800, 800)));
}

// A seeded differential of 10^5 Add / AddUnique / Contains operations
// against std::set on a 20x20 value domain, so most operations meet a
// duplicate and the table rehashes many times with duplicates present.
TEST(PartialRelationTest, DifferentialAgainstStdSet) {
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<Value> value(0, 19);
  std::uniform_int_distribution<int> op(0, 9);
  PartialRelation r(AttributeSet{0, 1});
  std::set<std::vector<Value>> model;
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 100000; ++i) {
    std::vector<Value> v = {value(rng), value(rng)};
    PartialTuple t(AttributeSet{0, 1}, v);
    int kind = op(rng);
    if (kind < 2) {
      r.Add(t);
      model.insert(v);
      rows.push_back(v);
    } else if (kind < 6) {
      bool fresh = model.insert(v).second;
      ASSERT_EQ(r.AddUnique(t), fresh) << "op " << i;
      if (fresh) rows.push_back(v);
    } else {
      ASSERT_EQ(r.Contains(t), model.count(v) > 0) << "op " << i;
    }
    ASSERT_EQ(r.size(), rows.size()) << "op " << i;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(r.tuples()[i].values(), rows[i]) << "row " << i;
  }
  PartialRelation expected(AttributeSet{0, 1});
  for (const std::vector<Value>& v : model) expected.Add(v);
  EXPECT_TRUE(r.SetEquals(expected));
  EXPECT_TRUE(expected.SetEquals(r));
}

// The key tables against a linear scan: FindByKey answers the first row
// agreeing with the probe on the key, whatever else the probe carries.
// 3,000 Add / AddUnique operations on a 40-value domain put about 1,350
// distinct values on each two-attribute key, so each key table crosses
// seven resizes (16 slots doubling to 2048), with duplicates and rows
// that break a key (which stay out of its table) along the way.
TEST(PartialRelationTest, KeyLookupsAgreeWithLinearScan) {
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<Value> value(0, 39);
  const AttributeSet ab{0, 1};
  const AttributeSet bc{1, 2};
  PartialRelation r(AttributeSet{0, 1, 2});
  ASSERT_TRUE(r.IndexKeys({ab, bc}).ok());
  auto first_agreeing = [&](const AttributeSet& key,
                            const PartialTuple& t) -> const PartialTuple* {
    for (const PartialTuple& row : r.tuples()) {
      if (row.AgreesOn(t, key)) return &row;
    }
    return nullptr;
  };
  std::set<std::vector<Value>> ab_values;
  for (int i = 0; i < 3000; ++i) {
    PartialTuple t(AttributeSet{0, 1, 2}, {value(rng), value(rng), value(rng)});
    if (rng() % 2 == 0) {
      r.Add(t);
    } else {
      r.AddUnique(t);
    }
    ab_values.insert({t.At(0), t.At(1)});
    PartialTuple probe(AttributeSet{0, 1, 2, 5},
                       {value(rng), value(rng), value(rng), 7});
    for (const AttributeSet& key : {ab, bc}) {
      ASSERT_EQ(r.FindByKey(key, t), first_agreeing(key, t)) << "op " << i;
      ASSERT_EQ(r.FindByKey(key, probe), first_agreeing(key, probe))
          << "op " << i;
    }
  }
  EXPECT_GT(ab_values.size(), 1024u);
}

// Copies and assignments carry their own key tables: each answers with
// its own rows, and growing one leaves the other's answers unchanged.
TEST(PartialRelationTest, CopyMoveAndAssignmentKeepIndependentKeyTables) {
  const AttributeSet a{0};
  PartialRelation r(AttributeSet{0, 1});
  ASSERT_TRUE(r.IndexKeys({a}).ok());
  for (Value i = 0; i < 100; ++i) r.AddUnique(Pair(i, i * 3));

  PartialRelation copy = r;
  EXPECT_TRUE(copy.AddUnique(Pair(500, 1)));
  EXPECT_TRUE(r.AddUnique(Pair(600, 2)));
  EXPECT_EQ(r.FindByKey(a, Pair(500, 0)), nullptr);
  EXPECT_EQ(copy.FindByKey(a, Pair(600, 0)), nullptr);
  for (Value i = 0; i < 100; ++i) {
    EXPECT_EQ(copy.FindByKey(a, Pair(i, -1)), &copy.tuples()[i]);
    EXPECT_EQ(r.FindByKey(a, Pair(i, -1)), &r.tuples()[i]);
  }

  PartialRelation moved = std::move(copy);
  for (Value i = 1000; i < 1100; ++i) moved.AddUnique(Pair(i, i));
  EXPECT_EQ(moved.FindByKey(a, Pair(500, 0)), &moved.tuples()[100]);
  EXPECT_EQ(moved.FindByKey(a, Pair(1050, 0)), &moved.tuples()[151]);
  EXPECT_EQ(moved.FindByKey(a, Pair(600, 0)), nullptr);

  PartialRelation assigned(AttributeSet{0, 1});
  ASSERT_TRUE(assigned.IndexKeys({a}).ok());
  assigned.AddUnique(Pair(-1, -1));
  assigned = r;
  EXPECT_EQ(assigned.FindByKey(a, Pair(-1, 0)), nullptr);
  EXPECT_EQ(assigned.FindByKey(a, Pair(600, 0)), &assigned.tuples()[100]);
  EXPECT_TRUE(assigned.AddUnique(Pair(700, 7)));
  EXPECT_EQ(r.FindByKey(a, Pair(700, 0)), nullptr);

  PartialRelation move_assigned(AttributeSet{0, 1});
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned.FindByKey(a, Pair(700, 0)),
            &move_assigned.tuples()[101]);
}

// IndexKeys rejects two distinct rows agreeing on a key, a local key
// violation, but not a duplicate row; after a rejection the relation
// keeps no key tables. A row added later that breaks a key leaves the
// key's first row in place.
TEST(PartialRelationTest, IndexKeysRejectsALocalKeyViolation) {
  const AttributeSet a{0};
  PartialRelation r(AttributeSet{0, 1});
  r.Add(Pair(1, 2));
  r.Add(Pair(1, 2));
  r.Add(Pair(3, 4));
  ASSERT_TRUE(r.IndexKeys({a}).ok());
  EXPECT_EQ(r.FindByKey(a, Pair(1, 0)), &r.tuples()[0]);
  r.Add(Pair(1, 9));
  EXPECT_EQ(r.FindByKey(a, Pair(1, 0)), &r.tuples()[0]);
  EXPECT_EQ(r.IndexKeys({a}).code(), StatusCode::kInconsistent);
  const AttributeSet ab{0, 1};
  ASSERT_TRUE(r.IndexKeys({ab}).ok());
  EXPECT_EQ(r.FindByKey(ab, Pair(1, 9)), &r.tuples()[3]);

  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {2, 3});
  ASSERT_TRUE(state.IndexKeys(test::AllRelations(s)).ok());
  state.Insert("R2", {5, 3});  // C -> B broken inside R2
  EXPECT_EQ(state.IndexKeys(test::AllRelations(s)).code(),
            StatusCode::kInconsistent);
  EXPECT_TRUE(state.IndexKeys({0}).ok());
}

TEST(PartialRelationTest, SatisfiesFds) {
  PartialRelation r(AttributeSet{0, 1});
  r.Add({1, 2});
  r.Add({1, 2});
  r.Add({3, 4});
  FdSet f;
  f.Add(AttributeSet{0}, AttributeSet{1});
  EXPECT_TRUE(r.Satisfies(f));
  r.Add({1, 9});
  EXPECT_FALSE(r.Satisfies(f));
  // FDs not embedded in the relation are ignored.
  FdSet g;
  g.Add(AttributeSet{5}, AttributeSet{6});
  EXPECT_TRUE(r.Satisfies(g));
}

TEST(DatabaseStateTest, InsertByNameAndCount) {
  DatabaseState state(test::Example9());
  state.Insert("R1", {1, 2});
  state.Insert(0, {3, 4});
  state.Insert("R4", {7, 8});
  EXPECT_EQ(state.TupleCount(), 3u);
  EXPECT_EQ(state.relation(0).size(), 2u);
  EXPECT_EQ(state.relation(3).size(), 1u);
  EXPECT_TRUE(state.relation(1).empty());
}

TEST(WeakInstanceTest, EmptyStateIsConsistent) {
  DatabaseState state(test::Example3());
  EXPECT_TRUE(IsConsistent(state));
}

TEST(WeakInstanceTest, Example10InconsistentInsert) {
  // Example 10: s1 = {<a,b>}, s2 = {<b,c>}, s3 = ∅; inserting <a,c'> into
  // s3 is inconsistent.
  DatabaseScheme s = test::Example3();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, c2 = 4;
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  EXPECT_TRUE(IsConsistent(state));
  EXPECT_FALSE(WouldRemainConsistent(state, 2, Tuple(s, "AC", {a, c2})));
  EXPECT_TRUE(WouldRemainConsistent(state, 2, Tuple(s, "AC", {a, c})));
}

TEST(WeakInstanceTest, RepresentativeInstanceMergesFragments) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});  // A=1 B=2
  state.Insert("R2", {2, 3});  // B=2 C=3
  state.Insert("R3", {3, 4});  // C=3 D=4
  Result<Tableau> ri = RepresentativeInstance(state);
  ASSERT_TRUE(ri.ok());
  // Every row is total on ABCD (the chain closes in both directions).
  AttributeSet abcd = Attrs(s, "ABCD");
  for (size_t row = 0; row < ri->row_count(); ++row) {
    EXPECT_TRUE(ri->TotalOn(row, abcd));
  }
}

TEST(WeakInstanceTest, TotalProjectionByChase) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {2, 3});
  state.Insert("R1", {8, 9});  // unlinked second entity
  Result<PartialRelation> ac = TotalProjectionByChase(state, Attrs(s, "AC"));
  ASSERT_TRUE(ac.ok());
  ASSERT_EQ(ac->size(), 1u);
  EXPECT_EQ(ac->tuples()[0].values(), (std::vector<Value>{1, 3}));
  // [AB] has both entities.
  Result<PartialRelation> ab = TotalProjectionByChase(state, Attrs(s, "AB"));
  ASSERT_TRUE(ab.ok());
  EXPECT_EQ(ab->size(), 2u);
}

TEST(WeakInstanceTest, TotalProjectionOfInconsistentStateFails) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R1", {1, 3});  // A -> B violated
  Result<PartialRelation> r = TotalProjectionByChase(state, Attrs(s, "AB"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInconsistent);
}

TEST(WeakInstanceTest, LocalVsGlobalConsistency) {
  // Example 1's motivation: R is not independent, so some locally
  // consistent state is globally inconsistent. Build one on Example 2's
  // scheme (the classic non-independent triangle).
  DatabaseScheme s = test::Example2();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, c2 = 4;
  state.Insert("R1", {a, b});   // AB
  state.Insert("R2", {b, c});   // B -> C
  state.Insert("R3", {a, c2});  // A -> C with a different C
  EXPECT_TRUE(IsLocallyConsistent(state));
  EXPECT_FALSE(IsConsistent(state));
}

TEST(WeakInstanceTest, LocallyInconsistentDetected) {
  DatabaseScheme s = test::Example2();
  DatabaseState state(s);
  state.Insert("R2", {1, 2});
  state.Insert("R2", {1, 3});  // violates B -> C inside one relation
  EXPECT_FALSE(IsLocallyConsistent(state));
}

}  // namespace
}  // namespace ird
