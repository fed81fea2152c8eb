// The Theorem 3.4 construction (Lemmas 3.5-3.7): adversarial instances on
// split schemes, verified against the chase.

#include <gtest/gtest.h>

#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "core/split_witness.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;

void VerifyWitness(const DatabaseScheme& s, const SplitWitness& w) {
  // Lemma 3.5 / 3.7(a): the base state is consistent.
  EXPECT_TRUE(IsConsistent(w.state)) << s.ToString();
  // Lemma 3.6 / 3.7(c): adding u breaks it.
  EXPECT_FALSE(WouldRemainConsistent(w.state, w.insert_rel, w.insert))
      << s.ToString();
  // Lemma 3.7(b): without the covering fragments s_l, u is fine — the
  // inconsistency genuinely needs tuples that share no key value with u.
  DatabaseState without_cover(s);
  for (size_t rel = 0; rel < w.state.relation_count(); ++rel) {
    bool is_cover = false;
    for (size_t cover_rel : w.covering_relations) {
      if (rel == cover_rel) is_cover = true;
    }
    if (is_cover) continue;
    for (const PartialTuple& t : w.state.relation(rel).tuples()) {
      without_cover.mutable_relation(rel).AddUnique(t);
    }
  }
  EXPECT_TRUE(WouldRemainConsistent(without_cover, w.insert_rel, w.insert))
      << s.ToString();
  // The maintainer rejects u: a split scheme's block runs Algorithm 2
  // (correct for every key-equivalent scheme).
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(w.state);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->IsCtm());
  EXPECT_FALSE(m->CheckInsert(w.insert_rel, w.insert).ok());
}

TEST(SplitWitnessTest, Example4) {
  DatabaseScheme s = test::Example4();
  Result<SplitWitness> w = BuildSplitWitness(s, Attrs(s, "BC"));
  ASSERT_TRUE(w.ok());
  VerifyWitness(s, *w);
}

TEST(SplitWitnessTest, Example8) {
  DatabaseScheme s = test::Example8();
  Result<SplitWitness> w = BuildSplitWitness(s, Attrs(s, "BC"));
  ASSERT_TRUE(w.ok());
  VerifyWitness(s, *w);
}

TEST(SplitWitnessTest, GeneratedSplitFamily) {
  for (size_t k : {2u, 3u, 4u, 6u}) {
    DatabaseScheme s = MakeSplitScheme(k);
    std::vector<AttributeSet> split = SplitKeys(s);
    ASSERT_EQ(split.size(), 1u);
    Result<SplitWitness> w = BuildSplitWitness(s, split[0]);
    ASSERT_TRUE(w.ok()) << k;
    VerifyWitness(s, *w);
  }
}

TEST(SplitWitnessTest, RawKeyProbesMissTheWitness) {
  // The witness defeats Algorithm 5's raw-state probes (Theorem 3.4's
  // whole point): the probes accept u while the chase rejects it.
  DatabaseScheme s = MakeSplitScheme(3);
  std::vector<AttributeSet> split = SplitKeys(s);
  ASSERT_EQ(split.size(), 1u);
  Result<SplitWitness> w = BuildSplitWitness(s, split[0]);
  ASSERT_TRUE(w.ok());
  const std::vector<size_t> pool = test::AllRelations(s);
  ASSERT_TRUE(w->state.IndexKeys(pool).ok());
  Result<PartialTuple> probe_verdict =
      CheckInsertCtm(w->state, pool, w->insert_rel, w->insert);
  EXPECT_TRUE(probe_verdict.ok())
      << "the split derivation is invisible to raw key probes";
  EXPECT_FALSE(WouldRemainConsistent(w->state, w->insert_rel, w->insert));
}

TEST(SplitWitnessTest, RefusesSplitFreeKeys) {
  DatabaseScheme s = test::Example9();
  Result<SplitWitness> w = BuildSplitWitness(s, Attrs(s, "A"));
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ird
