// The maintenance algorithms one by one. Stateful cases run on
// ShardedMaintainer, whose one block covers a key-equivalent scheme and
// picks Algorithm 5 (split-free) or Algorithm 2 (split) by Theorem 5.5;
// cases that force Algorithm 2 onto a split-free scheme call the
// CheckInsertKeyEquivalent kernel on a RepresentativeIndex directly.

#include <gtest/gtest.h>

#include "core/ctm_maintainer.h"
#include "core/expression_maintenance.h"
#include "core/key_equivalent_maintainer.h"
#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "core/tuple_extension.h"
#include "relation/weak_instance.h"
#include "tests/stream_replay.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

// The Algorithm 2 kernel with the whole scheme as its pool, on the
// representative instance of `state` (which must outlive it) — Algorithm 2
// whatever the scheme's split status.
class Alg2Kernel {
 public:
  explicit Alg2Kernel(const DatabaseState& state)
      : scheme_(state.scheme()), index_(RepresentativeIndex::Build(state)) {}

  bool ok() const { return index_.ok(); }

  Result<PartialTuple> CheckInsert(size_t rel, const PartialTuple& tuple,
                                   MaintenanceStats* stats = nullptr) const {
    return CheckInsertKeyEquivalent(scheme_, *index_, rel, tuple, stats);
  }

 private:
  const DatabaseScheme& scheme_;
  Result<RepresentativeIndex> index_;
};

// --- Algorithm 2 (algebraic maintenance) ------------------------------------

TEST(Algorithm2Test, Example6RejectsTheInsert) {
  // Example 6: state {<a,c> in R2, <b,d> in R5, <c,d,e> in R6}; inserting
  // <a, b, e'> into R1(ABE) must output "no": the keys A, B, E yield
  // <a,c>, <b,d>, <e'>, then the key CD yields <c,d,e> and e ≠ e'.
  DatabaseScheme s = test::Example6();
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, e2 = 6;
  DatabaseState state(s);
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(4).Add(Tuple(s, "BD", {b, d}));
  state.mutable_relation(5).Add(Tuple(s, "CDE", {c, d, e}));
  // Example 6's scheme is split-free, so Algorithm 2 is forced here.
  Alg2Kernel m(state);
  ASSERT_TRUE(m.ok());
  Result<PartialTuple> verdict =
      m.CheckInsert(0, Tuple(s, "ABE", {a, b, e2}));
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInconsistent);
  // Inserting with the matching E value is fine.
  EXPECT_TRUE(m.CheckInsert(0, Tuple(s, "ABE", {a, b, e})).ok());
}

TEST(Algorithm2Test, Example7RejectsTheInsert) {
  // Example 7: r1={<a,b>}, r2={<a,c>}, r4={<e1,b>,...,<en,b>}, r5={<e1,c>}.
  // The total tuple embedding "a" is <a,b,c,e1>, derived through the chain
  // E -> B/C, then BC -> D, D -> A (the expression
  // σ_{A=a}(R1 ⋈ R2 ⋈ (R4 ⋈ R5)) of the paper). Inserting <a,e> into
  // R3(AE) is therefore inconsistent; <a,e1> is fine.
  DatabaseScheme s = test::Example4();
  constexpr Value a = 1, b = 2, c = 3, e = 10, e1 = 11, e2 = 12, e3 = 13;
  DatabaseState state(s);
  state.mutable_relation(0).Add(Tuple(s, "AB", {a, b}));
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e1, b}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e2, b}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e3, b}));
  state.mutable_relation(4).Add(Tuple(s, "EC", {e1, c}));
  // One split block: the maintainer runs Algorithm 2.
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(std::move(state));
  ASSERT_TRUE(m.ok());
  ASSERT_FALSE(m->IsCtm());
  EXPECT_FALSE(m->CheckInsert(2, Tuple(s, "AE", {a, e})).ok());
  Result<PartialTuple> accept = m->CheckInsert(2, Tuple(s, "AE", {a, e1}));
  ASSERT_TRUE(accept.ok());
  EXPECT_EQ(accept->At(s.universe().Find("B").value()), b);
}

TEST(Algorithm2Test, StepEightQueuesAKeyTheJoinEmbeds) {
  // One key-equivalent block: R1(AB){A} R2(AC){A} R3(BCD){BC} R4(DA){D}.
  // BC is split (R1 and R2 cover it, neither contains it), so the block
  // runs Algorithm 2. Inserting <a1,b1> into R1 starts the worklist with A
  // alone; the lookup on a1 yields <a1,c1>, which puts BC into the closure,
  // and only step (8) queues it. The lookup on b1c1 then yields the total
  // tuple <a,b1,c1,d1> (b1c1 -> d1 -> a), which contradicts a1 unless a is
  // a1.
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "AC", {"A"});
  s.AddRelation("R3", "BCD", {"BC"});
  s.AddRelation("R4", "DA", {"D"});
  ASSERT_FALSE(IsSplitFree(s));
  constexpr Value a1 = 1, a2 = 2, b1 = 3, c1 = 4, d1 = 5;
  const PartialTuple insert = Tuple(s, "AB", {a1, b1});
  for (Value a : {a2, a1}) {
    SCOPED_TRACE(a == a1 ? "R4 holds <d1,a1>" : "R4 holds <d1,a2>");
    DatabaseState state(s);
    state.mutable_relation(1).Add(Tuple(s, "AC", {a1, c1}));
    state.mutable_relation(2).Add(Tuple(s, "BCD", {b1, c1, d1}));
    state.mutable_relation(3).Add(Tuple(s, "DA", {d1, a}));
    ASSERT_TRUE(IsConsistent(state));
    const bool consistent = a == a1;
    ASSERT_EQ(WouldRemainConsistent(state, 0, insert), consistent);

    // Representative-instance lookups: A, then the BC step (8) queued.
    Alg2Kernel kernel(state);
    ASSERT_TRUE(kernel.ok());
    MaintenanceStats stats;
    EXPECT_EQ(kernel.CheckInsert(0, insert, &stats).ok(), consistent);
    EXPECT_GE(stats.keys_processed, 2u);
    // The §3.2 expression lookups run the same worklist.
    ExpressionLookupPlan plan = ExpressionLookupPlan::Build(s);
    EXPECT_EQ(CheckInsertByExpressions(s, plan, state, 0, insert).ok(),
              consistent);
    // The block router picks Algorithm 2 for the split block.
    Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    ASSERT_FALSE(m->IsCtm());
    EXPECT_EQ(m->CheckInsert(0, insert).ok(), consistent);
  }
}

TEST(Algorithm2Test, AcceptReturnsExtendedTuple) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R2", {2, 3});  // B C
  Alg2Kernel m(state);
  ASSERT_TRUE(m.ok());
  Result<PartialTuple> q = m.CheckInsert(0, Tuple(s, "AB", {1, 2}));
  ASSERT_TRUE(q.ok());
  // q extends through B to the <2,3> fragment.
  EXPECT_TRUE(q->DefinedOnAll(Attrs(s, "ABC")));
  EXPECT_EQ(q->At(s.universe().Find("C").value()), 3);
}

TEST(Algorithm2Test, AgreesWithChaseOnStreams) {
  // Property: Algorithm 2's verdict == full-chase verdict, on both split
  // and split-free key-equivalent schemes.
  std::vector<DatabaseScheme> schemes = {MakeChainScheme(3),
                                         MakeSplitScheme(2), MakeStarScheme(3),
                                         test::Example4(), test::Example6()};
  for (const DatabaseScheme& s : schemes) {
    StateGenOptions opt;
    opt.entities = 25;
    opt.coverage = 0.6;
    opt.seed = 5;
    DatabaseState state = MakeConsistentState(s, opt);
    Alg2Kernel m(state);
    ASSERT_TRUE(m.ok());
    std::vector<InsertInstance> stream =
        MakeInsertStream(s, state, 40, 0.4, 99);
    for (const InsertInstance& ins : stream) {
      bool chase_verdict = WouldRemainConsistent(state, ins.rel, ins.tuple);
      bool alg2_verdict = m.CheckInsert(ins.rel, ins.tuple).ok();
      EXPECT_EQ(alg2_verdict, chase_verdict)
          << s.relation(ins.rel).name << " "
          << ins.tuple.ToString(s.universe());
      EXPECT_EQ(chase_verdict, ins.expected_consistent);
    }
  }
}

TEST(Algorithm2Test, AppliedInsertsKeepTheMaintainerInSync) {
  // A split scheme, so every insert goes through Algorithm 2 and every
  // accepted one through RepresentativeIndex::InsertTuple.
  DatabaseScheme s = MakeSplitScheme(2);
  StateGenOptions opt;
  opt.entities = 8;
  opt.seed = 7;
  DatabaseState initial = MakeConsistentState(s, opt);
  ASSERT_FALSE(IsSplitFree(s));
  test::ReplayCounts counts = test::ReplayTwoStreams(initial, 40, 0.3, 7);
  EXPECT_GT(counts.accepted, 0u);
  EXPECT_GT(counts.rejected, 0u);
}

TEST(Algorithm2Test, CreateRejectsInconsistentState) {
  DatabaseScheme s = MakeChainScheme(2);
  DatabaseState state(s);
  state.Insert(0, {1, 2});
  state.Insert(0, {1, 3});
  EXPECT_FALSE(RepresentativeIndex::Build(state).ok());
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInconsistent);
}

// --- Algorithm 4 (tuple extension) ------------------------------------------

TEST(Algorithm4Test, ExtendsAlongTheChain) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {2, 3});
  state.Insert("R3", {3, 4});
  const std::vector<size_t> pool = test::AllRelations(s);
  ASSERT_TRUE(state.IndexKeys(pool).ok());
  ExtensionStats stats;
  Result<PartialTuple> t =
      ExtendTuple(state, pool, Tuple(s, "A", {1}), &stats);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->attrs(), Attrs(s, "ABCD"));
  EXPECT_EQ(stats.extensions, 3u);
  // From the middle, both directions extend.
  Result<PartialTuple> mid = ExtendTuple(state, pool, Tuple(s, "C", {3}));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->attrs(), Attrs(s, "ABCD"));
}

TEST(Algorithm4Test, UnknownKeyValueStaysPut) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  const std::vector<size_t> pool = test::AllRelations(s);
  ASSERT_TRUE(state.IndexKeys(pool).ok());
  Result<PartialTuple> t = ExtendTuple(state, pool, Tuple(s, "C", {42}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->attrs(), Attrs(s, "C"));
}

TEST(Algorithm4Test, Lemma33KeyInterchangeability) {
  // Lemma 3.3(b): on a split-free scheme, re-running Algorithm 4 from any
  // key embedded in the result returns the same tuple.
  DatabaseScheme s = MakeChainScheme(4);
  StateGenOptions opt;
  opt.entities = 20;
  opt.seed = 3;
  DatabaseState state = MakeConsistentState(s, opt);
  const std::vector<size_t> pool = test::AllRelations(s);
  ASSERT_TRUE(state.IndexKeys(pool).ok());
  for (const auto& [rel, key] : s.AllKeys()) {
    for (const PartialTuple& tuple : state.relation(rel).tuples()) {
      Result<PartialTuple> t = ExtendTuple(state, pool, tuple.Restrict(key));
      ASSERT_TRUE(t.ok());
      for (const auto& [rel2, key2] : s.AllKeys()) {
        if (!key2.IsSubsetOf(t->attrs())) continue;
        Result<PartialTuple> t2 =
            ExtendTuple(state, pool, t->Restrict(key2));
        ASSERT_TRUE(t2.ok());
        EXPECT_EQ(*t2, *t);
      }
    }
  }
}

// --- Algorithm 5 (constant-time maintenance) --------------------------------

TEST(Algorithm5Test, Example10RejectsTheInsert) {
  // Example 10: S = triangle with singleton keys; s1 = {<a,b>},
  // s2 = {<b,c>}, s3 = ∅. Inserting <a,c'> into s3 gives
  // q = {<a,c'>} ⋈ {<a,b,c>} ⋈ {<c'>} = ∅ -> "no".
  DatabaseScheme s = test::Example3();
  constexpr Value a = 1, b = 2, c = 3, c2 = 4;
  DatabaseState state(s);
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  // One split-free block: the maintainer runs Algorithm 5.
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(std::move(state));
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->IsCtm());
  EXPECT_FALSE(m->CheckInsert(2, Tuple(s, "AC", {a, c2})).ok());
  EXPECT_TRUE(m->CheckInsert(2, Tuple(s, "AC", {a, c})).ok());
}

TEST(Algorithm5Test, CreateRejectsLocalKeyViolationUnverified) {
  // Without the consistency chase, a split-free block still refuses two
  // tuples of one relation that agree on a key: indexing the relation's
  // keys rejects them.
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R2", {2, 3});
  state.Insert("R2", {2, 4});  // B -> C broken inside R2
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state, 1, false);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInconsistent);
}

TEST(Algorithm5Test, AgreesWithChaseOnStreams) {
  std::vector<DatabaseScheme> schemes = {
      MakeChainScheme(3), MakeChainScheme(6), MakeStarScheme(4),
      test::Example3(), test::Example9()};
  for (const DatabaseScheme& s : schemes) {
    ASSERT_TRUE(IsSplitFree(s));
    StateGenOptions opt;
    opt.entities = 25;
    opt.coverage = 0.6;
    opt.seed = 13;
    DatabaseState state = MakeConsistentState(s, opt);
    Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(m->IsCtm());
    std::vector<InsertInstance> stream =
        MakeInsertStream(s, state, 40, 0.4, 17);
    for (const InsertInstance& ins : stream) {
      bool chase_verdict = WouldRemainConsistent(state, ins.rel, ins.tuple);
      EXPECT_EQ(m->CheckInsert(ins.rel, ins.tuple).ok(), chase_verdict)
          << s.relation(ins.rel).name << " "
          << ins.tuple.ToString(s.universe());
    }
  }
}

TEST(Algorithm5Test, AppliedInsertsKeepIndexesInSync) {
  // A split-free scheme, so every insert goes through Algorithm 5 and
  // every accepted one into the relations' key tables.
  DatabaseScheme s = MakeChainScheme(4);
  StateGenOptions opt;
  opt.entities = 8;
  opt.seed = 29;
  DatabaseState initial = MakeConsistentState(s, opt);
  ASSERT_TRUE(IsSplitFree(s));
  test::ReplayCounts counts = test::ReplayTwoStreams(initial, 40, 0.3, 29);
  EXPECT_GT(counts.accepted, 0u);
  EXPECT_GT(counts.rejected, 0u);
}

TEST(Algorithm5Test, ProbeCountIndependentOfStateSize) {
  // The ctm property itself: the number of index probes per CheckInsert
  // does not grow with the state.
  DatabaseScheme s = MakeChainScheme(4);
  size_t probes_small = 0;
  size_t probes_large = 0;
  for (size_t entities : {20u, 2000u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.seed = 31;
    DatabaseState state = MakeConsistentState(s, opt);
    // A fresh tuple probes the same (relation, key) pairs whatever the
    // state contains.
    PartialTuple probe = state.MakeTuple(0, {1000000, 1000001});
    Result<ShardedMaintainer> m =
        ShardedMaintainer::Create(std::move(state), 1, false);
    ASSERT_TRUE(m.ok());
    // On a split-free block, MaintenanceStats::lookups tallies Algorithm
    // 5's index probes.
    MaintenanceStats stats;
    ASSERT_TRUE(m->CheckInsert(0, probe, &stats).ok());
    (entities == 20u ? probes_small : probes_large) = stats.lookups;
  }
  EXPECT_EQ(probes_small, probes_large);
  EXPECT_GT(probes_small, 0u);
}

// --- Rejection paths through the block router --------------------------------

TEST(RejectionPathTest, SplitBlockAlgorithm2Reject) {
  // Example 7's rejecting insert, routed through the block maintainer:
  // Example 4's scheme is a single *split* block, so the "no" must come
  // from the Algorithm 2 machinery — representative-instance lookups, with
  // pool keys actually processed.
  DatabaseScheme s = test::Example4();
  constexpr Value a = 1, b = 2, c = 3, e = 10, e1 = 11;
  DatabaseState state(s);
  state.mutable_relation(0).Add(Tuple(s, "AB", {a, b}));
  state.mutable_relation(1).Add(Tuple(s, "AC", {a, c}));
  state.mutable_relation(3).Add(Tuple(s, "EB", {e1, b}));
  state.mutable_relation(4).Add(Tuple(s, "EC", {e1, c}));
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_FALSE(m->IsCtm());  // the block is split (Theorem 5.5)
  MaintenanceStats stats;
  Result<PartialTuple> verdict =
      m->CheckInsert(2, Tuple(s, "AE", {a, e}), &stats);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInconsistent);
  EXPECT_GT(stats.keys_processed, 0u);
  EXPECT_GT(stats.lookups, 0u);
  // A rejected Insert leaves the maintained state untouched.
  size_t before = m->sharded_state().TupleCount();
  EXPECT_FALSE(m->Insert(2, Tuple(s, "AE", {a, e})).ok());
  EXPECT_EQ(m->sharded_state().TupleCount(), before);
  EXPECT_TRUE(m->Insert(2, Tuple(s, "AE", {a, e1})).ok());
}

TEST(RejectionPathTest, SplitFreeBlockAlgorithm5Reject) {
  // Example 11's block {R5, R6} is split-free, so its "no" comes from
  // Algorithm 5 — key-index probes (surfaced as stats.lookups) with *no*
  // Algorithm 2 key processing.
  DatabaseScheme s = test::Example11();
  constexpr Value d = 4, e = 5, f = 6, e2 = 7, g = 8;
  DatabaseState state(s);
  state.Insert("R5", {d, e, f});
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  MaintenanceStats stats;
  // D=d already determines E=e; a DEG tuple with E=e2 contradicts it.
  Result<PartialTuple> verdict =
      m->CheckInsert(5, Tuple(s, "DEG", {d, e2, g}), &stats);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInconsistent);
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_EQ(stats.keys_processed, 0u);  // not the Algorithm 2 path
  size_t before = m->sharded_state().TupleCount();
  EXPECT_FALSE(m->Insert(5, Tuple(s, "DEG", {d, e2, g})).ok());
  EXPECT_EQ(m->sharded_state().TupleCount(), before);
  EXPECT_TRUE(m->Insert(5, Tuple(s, "DEG", {d, e, g})).ok());
}

TEST(RejectionPathTest, Alg5RejectionProbesIndependentOfStateSize) {
  // Constant-time maintenance covers "no" answers too: the probe count of
  // a rejecting CheckInsert does not grow with the state.
  DatabaseScheme s = MakeChainScheme(4);
  std::vector<size_t> probes;
  for (size_t entities : {20u, 2000u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 1.0;
    opt.seed = 31;
    DatabaseState state = MakeConsistentState(s, opt);
    const PartialTuple existing = state.relation(0).tuples()[0];
    Result<ShardedMaintainer> m =
        ShardedMaintainer::Create(std::move(state), 1, false);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(m->IsCtm());
    const AttributeId a1 = *s.universe().Find("A1");
    const AttributeId a2 = *s.universe().Find("A2");
    // Same A1 value, contradicting A2: violates the FD A1 -> A2.
    PartialTuple clash(existing.attrs(),
                       {existing.At(a1), existing.At(a2) + 1000000});
    MaintenanceStats stats;
    Result<PartialTuple> verdict = m->CheckInsert(0, clash, &stats);
    EXPECT_FALSE(verdict.ok());
    probes.push_back(stats.lookups);
  }
  EXPECT_GT(probes[0], 0u);
  EXPECT_EQ(probes[0], probes[1]);
}

TEST(RejectionPathTest, Alg2RejectionLookupsIndependentOfStateSize) {
  // Algorithm 2's work per rejection is bounded by the number of distinct
  // pool keys (here 5: A1..A5), whatever the state holds.
  DatabaseScheme s = MakeChainScheme(4);
  std::vector<size_t> lookups;
  for (size_t entities : {20u, 2000u}) {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 1.0;
    opt.seed = 31;
    DatabaseState state = MakeConsistentState(s, opt);
    // The chain is split-free, so Algorithm 2 is forced here.
    Alg2Kernel m(state);
    ASSERT_TRUE(m.ok());
    const PartialTuple& existing = state.relation(0).tuples()[0];
    const AttributeId a1 = *s.universe().Find("A1");
    const AttributeId a2 = *s.universe().Find("A2");
    PartialTuple clash(existing.attrs(),
                       {existing.At(a1), existing.At(a2) + 1000000});
    MaintenanceStats stats;
    Result<PartialTuple> verdict = m.CheckInsert(0, clash, &stats);
    EXPECT_FALSE(verdict.ok());
    EXPECT_EQ(stats.lookups, stats.keys_processed);
    EXPECT_LE(stats.lookups, 5u);
    lookups.push_back(stats.lookups);
  }
  EXPECT_GT(lookups[0], 0u);
  EXPECT_EQ(lookups[0], lookups[1]);
}

// --- Algorithms 2 and 5 agree on split-free schemes --------------------------

TEST(MaintainerAgreementTest, Alg2AndAlg5SameVerdicts) {
  DatabaseScheme s = MakeChainScheme(5);
  StateGenOptions opt;
  opt.entities = 30;
  opt.seed = 41;
  DatabaseState state = MakeConsistentState(s, opt);
  Alg2Kernel m2(state);
  ASSERT_TRUE(m2.ok());
  const std::vector<size_t> pool = test::AllRelations(s);
  ASSERT_TRUE(state.IndexKeys(pool).ok());
  std::vector<InsertInstance> stream =
      MakeInsertStream(s, state, 50, 0.5, 43);
  for (const InsertInstance& ins : stream) {
    EXPECT_EQ(m2.CheckInsert(ins.rel, ins.tuple).ok(),
              CheckInsertCtm(state, pool, ins.rel, ins.tuple).ok());
  }
}

}  // namespace
}  // namespace ird
