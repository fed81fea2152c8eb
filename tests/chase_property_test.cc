// Metamorphic and algebraic properties of the chase and the weak instance
// model — the ground-truth machinery has to be right for everything else's
// property tests to mean anything.

#include <gtest/gtest.h>

#include <random>

#include "core/sharded_state.h"
#include "fd/closure_engine.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

// A small random state (possibly inconsistent): values drawn from a tiny
// domain so key collisions are common.
DatabaseState MakeNoisyState(const DatabaseScheme& scheme, size_t tuples,
                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  DatabaseState state(scheme);
  for (size_t n = 0; n < tuples; ++n) {
    size_t rel = rng() % scheme.size();
    const AttributeSet& attrs = scheme.relation(rel).attrs;
    std::vector<Value> values;
    for (size_t i = 0; i < attrs.Count(); ++i) {
      values.push_back(static_cast<Value>(rng() % 4 + 1));
    }
    state.mutable_relation(rel).AddUnique(
        PartialTuple(attrs, std::move(values)));
  }
  return state;
}

std::vector<DatabaseScheme> Schemes() {
  return {test::Example3(), test::Example4(), test::Example9(),
          test::Example11(), test::Example1R()};
}

TEST(ChasePropertyTest, ChaseIsIdempotent) {
  for (const DatabaseScheme& s : Schemes()) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      DatabaseState state = MakeNoisyState(s, 12, seed);
      Tableau t = StateTableau(state);
      ChaseStats first = ChaseFds(&t, s.key_dependencies());
      if (!first.consistent) continue;
      ChaseStats second = ChaseFds(&t, s.key_dependencies());
      EXPECT_TRUE(second.consistent);
      EXPECT_EQ(second.rule_applications, 0u);
    }
  }
}

TEST(ChasePropertyTest, ChasedTableauSatisfiesTheDependencies) {
  for (const DatabaseScheme& s : Schemes()) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      DatabaseState state = MakeNoisyState(s, 12, seed);
      Result<Tableau> ri = RepresentativeInstance(state);
      if (!ri.ok()) continue;
      // For each FD X -> A: rows agreeing on X (as symbols) agree on A.
      FdSet standard = s.key_dependencies().StandardForm();
      for (const FunctionalDependency& fd : standard.fds()) {
        for (size_t r1 = 0; r1 < ri->row_count(); ++r1) {
          for (size_t r2 = r1 + 1; r2 < ri->row_count(); ++r2) {
            bool agree_lhs = true;
            fd.lhs.ForEach([&](AttributeId a) {
              if (ri->Cell(r1, a) != ri->Cell(r2, a)) agree_lhs = false;
            });
            if (agree_lhs) {
              EXPECT_EQ(ri->Cell(r1, fd.rhs.First()),
                        ri->Cell(r2, fd.rhs.First()));
            }
          }
        }
      }
    }
  }
}

TEST(ChasePropertyTest, SubstatesOfConsistentStatesAreConsistent) {
  std::mt19937_64 rng(17);
  for (const DatabaseScheme& s : Schemes()) {
    StateGenOptions opt;
    opt.entities = 12;
    opt.seed = 23;
    DatabaseState state = MakeConsistentState(s, opt);
    ASSERT_TRUE(IsConsistent(state));
    // Drop a random half of the tuples.
    DatabaseState sub(s);
    for (size_t rel = 0; rel < state.relation_count(); ++rel) {
      for (const PartialTuple& t : state.relation(rel).tuples()) {
        if (rng() % 2 == 0) sub.mutable_relation(rel).AddUnique(t);
      }
    }
    EXPECT_TRUE(IsConsistent(sub));
  }
}

TEST(ChasePropertyTest, DisjointValueUnionsStayConsistent) {
  for (const DatabaseScheme& s : Schemes()) {
    StateGenOptions a;
    a.entities = 8;
    a.seed = 1;
    StateGenOptions b;
    b.entities = 8;
    b.seed = 2;
    DatabaseState sa = MakeConsistentState(s, a);
    DatabaseState sb = MakeConsistentState(s, b);
    // Shift sb's values far away from sa's.
    DatabaseState merged(s);
    for (size_t rel = 0; rel < s.size(); ++rel) {
      for (const PartialTuple& t : sa.relation(rel).tuples()) {
        merged.mutable_relation(rel).AddUnique(t);
      }
      for (const PartialTuple& t : sb.relation(rel).tuples()) {
        std::vector<Value> shifted;
        for (Value v : t.values()) shifted.push_back(v + 100000000);
        merged.mutable_relation(rel).AddUnique(
            PartialTuple(t.attrs(), std::move(shifted)));
      }
    }
    EXPECT_TRUE(IsConsistent(merged));
  }
}

TEST(ChasePropertyTest, CoverReplacementPreservesTheChase) {
  // [MMS], quoted in §2.3: CHASE_F = CHASE_G when F+ = G+. Compare
  // consistency and total projections under a minimal cover.
  for (const DatabaseScheme& s : Schemes()) {
    FdSet minimal = s.key_dependencies().MinimalCover();
    ASSERT_TRUE(minimal.EquivalentTo(s.key_dependencies()));
    for (uint64_t seed = 0; seed < 6; ++seed) {
      DatabaseState state = MakeNoisyState(s, 10, seed + 40);
      Tableau t1 = StateTableau(state);
      Tableau t2 = StateTableau(state);
      ChaseStats c1 = ChaseFds(&t1, s.key_dependencies());
      ChaseStats c2 = ChaseFds(&t2, minimal);
      ASSERT_EQ(c1.consistent, c2.consistent);
      if (!c1.consistent) continue;
      for (const RelationScheme& r : s.relations()) {
        PartialRelation p1(r.attrs);
        PartialRelation p2(r.attrs);
        for (size_t row = 0; row < t1.row_count(); ++row) {
          if (t1.TotalOn(row, r.attrs)) {
            p1.AddUnique(PartialTuple(r.attrs, t1.ValuesOn(row, r.attrs)));
          }
          if (t2.TotalOn(row, r.attrs)) {
            p2.AddUnique(PartialTuple(r.attrs, t2.ValuesOn(row, r.attrs)));
          }
        }
        EXPECT_TRUE(p1.SetEquals(p2)) << r.name;
      }
    }
  }
}

TEST(ChasePropertyTest, BlockConsistencyMatchesGlobalChase) {
  // §4.2 as a checker: block-based consistency (ShardedState::Create
  // chases each block substate once) == whole-chase consistency on
  // accepted schemes, across noisy states.
  std::vector<DatabaseScheme> schemes = {test::Example1R(), test::Example11(),
                                         MakeBlockScheme(2, 3)};
  for (const DatabaseScheme& s : schemes) {
    ASSERT_TRUE(RecognizeIndependenceReducible(s).accepted);
    size_t inconsistent_seen = 0;
    for (uint64_t seed = 0; seed < 30; ++seed) {
      DatabaseState state = MakeNoisyState(s, 10, seed + 90);
      bool truth = IsConsistent(state);
      EXPECT_EQ(ShardedState::Create(state, /*verify_consistency=*/true).ok(),
                truth)
          << seed;
      inconsistent_seen += truth ? 0 : 1;
    }
    // The noisy generator must actually produce both outcomes for the
    // comparison to mean something.
    EXPECT_GT(inconsistent_seen, 0u) << s.ToString();
  }
}

TEST(ChasePropertyTest, RuleApplicationsBoundedByTableauSize) {
  // Each application merges two symbol classes, so the total across a chase
  // is at most the number of symbols.
  DatabaseScheme s = test::Example4();
  DatabaseState state = MakeNoisyState(s, 40, 3);
  Tableau t = StateTableau(state);
  size_t symbols = t.row_count() * t.width();
  ChaseStats stats = ChaseFds(&t, s.key_dependencies());
  if (stats.consistent) {
    EXPECT_LE(stats.rule_applications, symbols);
  }
}

}  // namespace
}  // namespace ird
