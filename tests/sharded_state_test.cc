// Property battery for the block-sharded state engine (ShardedState /
// ShardedMaintainer), the library's one stateful maintenance runtime and
// one plan cache: the independence-reducible partition really is a
// partition with no key-equivalence crossing blocks, Theorem 4.2's
// local-to-global argument replays on the paper's worked examples and the
// repro corpus, applied streams agree with the chase of the accumulated
// state, the router/materialize round trip is lossless, plans are cached
// and answer [X] like the chase, cross-block reads fan out only when a
// plan spans shards, and the parallel batch path is bit-identical to the
// serial one at any job count (the invariant the CI TSan job drives at
// --jobs 8).

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/recognition.h"
#include "core/sharded_maintainer.h"
#include "core/total_projection.h"
#include "obs/export.h"
#include "oracle/corpus.h"
#include "oracle/naive_kep.h"
#include "relation/weak_instance.h"
#include "tests/stream_replay.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

struct NamedScheme {
  std::string name;
  DatabaseScheme scheme;
};

// Every worked-example fixture (Examples 5, 7 and 10 reuse the schemes of
// 4 and 3; see tests/test_util.h) plus the generator families the
// maintainer suite leans on.
std::vector<NamedScheme> AllFixtures() {
  std::vector<NamedScheme> out;
  out.push_back({"Example1R", test::Example1R()});
  out.push_back({"Example1S", test::Example1S()});
  out.push_back({"Example2", test::Example2()});
  out.push_back({"Example3", test::Example3()});
  out.push_back({"Example4", test::Example4()});
  out.push_back({"Example6", test::Example6()});
  out.push_back({"Example8", test::Example8()});
  out.push_back({"Example9", test::Example9()});
  out.push_back({"Example11", test::Example11()});
  out.push_back({"Example12", test::Example12()});
  out.push_back({"Example13", test::Example13()});
  out.push_back({"Block3x3", MakeBlockScheme(3, 3)});
  out.push_back({"Split2", MakeSplitScheme(2)});
  out.push_back({"Independent4", MakeIndependentScheme(4)});
  return out;
}

std::string StateToString(const DatabaseState& state) {
  std::string out;
  for (size_t i = 0; i < state.scheme().size(); ++i) {
    out += state.scheme().relation(i).name + ": " +
           state.relation(i).ToString(state.scheme().universe()) + "\n";
  }
  return out;
}

std::map<std::string, uint64_t> CounterMap(const obs::Snapshot& snapshot) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : snapshot.counters) {
    if (value != 0) out[name] = value;
  }
  return out;
}

[[maybe_unused]] uint64_t DeltaOf(const obs::Snapshot& delta,
                                  std::string_view name) {
  for (const auto& [counter, value] : delta.counters) {
    if (counter == name) return value;
  }
  return 0;
}

// The block partition is a true partition: every relation lands in exactly
// one block, the router agrees with the partition, every block is
// key-equivalent by the definition-literal oracle, and no key-equivalence
// (no FD) crosses blocks — the blocks are exactly the maximal
// key-equivalent subsets, so merging any two of them breaks
// key-equivalence.
TEST(ShardedStateTest, PartitionIsATruePartition) {
  for (const NamedScheme& fixture : AllFixtures()) {
    const DatabaseScheme& s = fixture.scheme;
    Result<ShardedState> sharded = ShardedState::Create(DatabaseState(s));
    if (!sharded.ok()) continue;  // outside the class; rejection is fine
    std::vector<size_t> seen(s.size(), 0);
    for (size_t b = 0; b < sharded->shard_count(); ++b) {
      const BlockShard& shard = sharded->shard(b);
      EXPECT_FALSE(shard.pool().empty()) << fixture.name;
      for (size_t rel : shard.pool()) {
        ASSERT_LT(rel, s.size()) << fixture.name;
        ++seen[rel];
        EXPECT_EQ(sharded->BlockOf(rel), b) << fixture.name;
      }
      EXPECT_TRUE(oracle::IsKeyEquivalentOracle(s, shard.pool()))
          << fixture.name << " block " << b;
    }
    for (size_t rel = 0; rel < s.size(); ++rel) {
      EXPECT_EQ(seen[rel], 1u)
          << fixture.name << ": " << s.relation(rel).name
          << " must live in exactly one block";
    }
    // Maximality: the partition is the KEP, so no two blocks merge into a
    // key-equivalent set — no FD ties relations across the block boundary.
    if (s.size() <= 12) {
      std::vector<std::vector<size_t>> pools;
      for (size_t b = 0; b < sharded->shard_count(); ++b) {
        pools.push_back(sharded->shard(b).pool());
      }
      EXPECT_EQ(pools, oracle::MaximalKeyEquivalentSubsets(s)) << fixture.name;
      for (size_t b1 = 0; b1 < pools.size(); ++b1) {
        for (size_t b2 = b1 + 1; b2 < pools.size(); ++b2) {
          std::vector<size_t> merged = pools[b1];
          merged.insert(merged.end(), pools[b2].begin(), pools[b2].end());
          EXPECT_FALSE(oracle::IsKeyEquivalentOracle(s, merged))
              << fixture.name << " blocks " << b1 << "+" << b2;
        }
      }
    }
  }
}

// Theorem 4.2 replayed: a state whose every block substate is consistent
// (ShardedState::Create with verify_consistency chases each block) is
// globally consistent, and a stream of block-locally validated inserts
// never drives the global state inconsistent.
TEST(ShardedStateTest, Theorem42LocalToGlobalOnExamples) {
  for (const NamedScheme& fixture : AllFixtures()) {
    const DatabaseScheme& s = fixture.scheme;
    if (!RecognizeIndependenceReducible(s).accepted) continue;
    StateGenOptions opt;
    opt.entities = 12;
    opt.coverage = 0.6;
    opt.seed = 17;
    DatabaseState state = MakeConsistentState(s, opt);
    Result<ShardedMaintainer> m =
        ShardedMaintainer::Create(state, /*jobs=*/1, /*verify_consistency=*/true);
    ASSERT_TRUE(m.ok()) << fixture.name << ": " << m.status().ToString();
    // Every block substate passed its Algorithm 1 chase => global accept.
    EXPECT_TRUE(IsConsistent(m->Materialize())) << fixture.name;
    std::vector<InsertInstance> stream = MakeInsertStream(s, state, 30, 0.4, 19);
    size_t accepted = 0;
    for (const InsertInstance& ins : stream) {
      if (m->Insert(ins.rel, ins.tuple).ok()) ++accepted;
    }
    EXPECT_GT(accepted, 0u) << fixture.name;
    // Block-local acceptance of every applied insert => global consistency.
    EXPECT_TRUE(IsConsistent(m->Materialize())) << fixture.name;
  }
}

// The same local-to-global replay over the committed repro corpus: every
// anchor scheme the fuzzer ever shrank that is independence-reducible must
// shard, stay consistent under validated streams, and agree verdict for
// verdict with the chase of the accumulated state.
TEST(ShardedStateTest, Theorem42AndOracleAgreementOnCorpusAnchors) {
  Result<std::vector<oracle::CorpusEntry>> corpus =
      oracle::LoadCorpus(IRD_CORPUS_DIR);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  size_t sharded_anchors = 0;
  for (const oracle::CorpusEntry& entry : *corpus) {
    const DatabaseScheme& s = entry.scheme;
    if (!RecognizeIndependenceReducible(s).accepted) continue;
    ++sharded_anchors;
    StateGenOptions opt;
    opt.entities = 8;
    opt.coverage = 0.7;
    opt.seed = 23;
    DatabaseState state = MakeConsistentState(s, opt);
    SCOPED_TRACE(entry.filename);
    test::ReplayTwoStreams(state, 10, 0.4, 29);
  }
  EXPECT_GT(sharded_anchors, 0u)
      << "corpus has no independence-reducible anchors to replay";
}

// Materialize is the exact inverse of sharding: same relations, same
// tuples, same order; TupleCount distributes over the shards; the router
// matches the recognition partition.
TEST(ShardedStateTest, RouterAndMaterializeRoundTrip) {
  DatabaseScheme s = test::Example11();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  state.Insert("R3", {a, c});
  state.Insert("R4", {a, d});
  state.Insert("R5", {d, e, f});
  state.Insert("R6", {d, e, g});
  Result<ShardedState> sharded = ShardedState::Create(state);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->shard_count(), 2u);
  // {R1,R2,R3,R4} vs {R5,R6}: the Example 11 partition.
  EXPECT_EQ(sharded->BlockOf(0), sharded->BlockOf(3));
  EXPECT_EQ(sharded->BlockOf(4), sharded->BlockOf(5));
  EXPECT_NE(sharded->BlockOf(0), sharded->BlockOf(4));
  EXPECT_EQ(sharded->TupleCount(), state.TupleCount());
  EXPECT_EQ(StateToString(sharded->Materialize()), StateToString(state));
  // Each shard owns exactly its pool's tuples: the other relations of its
  // full-scheme skeleton stay empty.
  for (size_t bidx = 0; bidx < sharded->shard_count(); ++bidx) {
    const BlockShard& shard = sharded->shard(bidx);
    size_t pool_tuples = 0;
    for (size_t rel : shard.pool()) {
      pool_tuples += state.relation(rel).size();
    }
    EXPECT_EQ(shard.TupleCount(), pool_tuples);
  }
}

// Cross-block reads fan out, block-local reads do not: a projection target
// inside one block's attribute span is answered from that shard alone
// (shard.cross_block_queries stays flat) while a target spanning both
// Example 11 blocks bumps it — and either way the answer matches the
// merged-state Theorem 4.1 evaluation.
TEST(ShardedStateTest, CrossBlockQueriesFanOutOnlyWhenPlansSpanShards) {
  DatabaseScheme s = test::Example11();
  StateGenOptions opt;
  opt.entities = 10;
  opt.coverage = 0.8;
  opt.seed = 31;
  DatabaseState state = MakeConsistentState(s, opt);
  RecognitionResult recognition = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(recognition.accepted);
  Result<ShardedState> sharded = ShardedState::Create(state);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const AttributeSet local = Attrs(s, "AB");    // inside block {R1..R4}
  const AttributeSet spanning = Attrs(s, "AE");  // needs both blocks
  obs::Snapshot local_delta;
  {
    obs::Snapshot before = obs::TakeSnapshot();
    PartialRelation got = sharded->TotalProjection(local);
    local_delta = obs::DeltaSince(before);
    EXPECT_EQ(got.ToString(s.universe()),
              TotalProjection(state, recognition, local).ToString(s.universe()));
  }
  obs::Snapshot spanning_delta;
  {
    obs::Snapshot before = obs::TakeSnapshot();
    PartialRelation got = sharded->TotalProjection(spanning);
    spanning_delta = obs::DeltaSince(before);
    EXPECT_EQ(
        got.ToString(s.universe()),
        TotalProjection(state, recognition, spanning).ToString(s.universe()));
  }
#ifndef IRD_OBS_DISABLED
  EXPECT_EQ(DeltaOf(local_delta, "shard.cross_block_queries"), 0u);
  EXPECT_EQ(DeltaOf(spanning_delta, "shard.cross_block_queries"), 1u);
#endif
}

// The concurrency invariant the design rests on: InsertBatch at --jobs 8
// produces the same verdicts, the same materialized state and the same
// obs counter totals as --jobs 1, because shards share no mutable state
// and per-shard streams stay in arrival order (Theorem 4.2 makes verdicts
// block-local). The CI TSan job runs this test to prove the "no shared
// mutable state" half.
TEST(ShardedStateTest, InsertStormIdenticalAtJobs1AndJobs8) {
  DatabaseScheme s = MakeBlockScheme(4, 3);
  StateGenOptions opt;
  opt.entities = 15;
  opt.coverage = 0.6;
  opt.seed = 37;
  DatabaseState state = MakeConsistentState(s, opt);
  std::vector<InsertOp> ops;
  for (const InsertInstance& ins : MakeInsertStream(s, state, 120, 0.3, 41)) {
    ops.push_back({ins.rel, ins.tuple});
  }

  Result<ShardedMaintainer> serial = ShardedMaintainer::Create(state, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  obs::Snapshot serial_before = obs::TakeSnapshot();
  std::vector<Status> serial_verdicts = serial->InsertBatch(ops);
  obs::Snapshot serial_delta = obs::DeltaSince(serial_before);

  Result<ShardedMaintainer> parallel = ShardedMaintainer::Create(state, 8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->jobs(), 8u);
  obs::Snapshot parallel_before = obs::TakeSnapshot();
  std::vector<Status> parallel_verdicts = parallel->InsertBatch(ops);
  obs::Snapshot parallel_delta = obs::DeltaSince(parallel_before);

  ASSERT_EQ(serial_verdicts.size(), parallel_verdicts.size());
  size_t rejected = 0;
  for (size_t i = 0; i < serial_verdicts.size(); ++i) {
    EXPECT_EQ(serial_verdicts[i].ok(), parallel_verdicts[i].ok())
        << "op " << i;
    EXPECT_EQ(serial_verdicts[i].code(), parallel_verdicts[i].code())
        << "op " << i;
    rejected += serial_verdicts[i].ok() ? 0 : 1;
  }
  EXPECT_GT(rejected, 0u) << "storm must exercise the rejection paths";
  EXPECT_LT(rejected, ops.size()) << "storm must exercise the accept paths";
  EXPECT_EQ(StateToString(serial->Materialize()),
            StateToString(parallel->Materialize()));
  EXPECT_TRUE(IsConsistent(parallel->Materialize()));
  // Counter totals are job-count independent: the same validation work ran
  // exactly once per op, whichever worker carried it.
  EXPECT_EQ(CounterMap(serial_delta), CounterMap(parallel_delta));
#ifndef IRD_OBS_DISABLED
  EXPECT_EQ(DeltaOf(serial_delta, "shard.parallel_validations"), ops.size());
#endif
}

// Streams routed through Insert (no batch) and interleaved across blocks
// agree verdict for verdict with the chase of the accumulated state, and
// land on its exact tuple set. The second stream is drawn from the
// accumulated state, so it conflicts with tuples the first one inserted —
// which only an Apply that keeps every block's index current rejects.
TEST(ShardedStateTest, AppliedStreamsMatchTheChase) {
  for (auto [blocks, width] : {std::pair<size_t, size_t>{2, 3}, {3, 4}}) {
    DatabaseScheme s = MakeBlockScheme(blocks, width);
    StateGenOptions opt;
    opt.entities = 10;
    opt.coverage = 0.5;
    opt.seed = 43;
    DatabaseState state = MakeConsistentState(s, opt);
    SCOPED_TRACE(s.ToString());
    test::ReplayCounts counts = test::ReplayTwoStreams(state, 40, 0.35, 47);
    EXPECT_GT(counts.accepted, 0u);
    EXPECT_GT(counts.rejected, 0u);
  }
}

// Concurrent InsertBatch callers are serialized on the maintainer's
// batch_mu_ (BatchAnalyzer's handout state is one-batch-at-a-time, a fact
// the thread-safety annotations now encode). Four threads each drive
// their own batch; the accounting must balance exactly and the final
// state must chase consistent. Before the mutex landed, overlapping
// batches interleaved two shard handouts — TSan (this test runs in the
// CI tsan job) and the tuple accounting both catch a regression.
TEST(ShardedStateTest, ConcurrentInsertBatchesSerializeOnTheMaintainer) {
  DatabaseScheme s = MakeBlockScheme(4, 3);
  StateGenOptions opt;
  opt.entities = 12;
  opt.coverage = 0.6;
  opt.seed = 53;
  DatabaseState state = MakeConsistentState(s, opt);
  Result<ShardedMaintainer> maintainer = ShardedMaintainer::Create(state, 4);
  ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();
  const size_t initial_tuples = maintainer->sharded_state().TupleCount();

  constexpr int kThreads = 4;
  std::vector<std::vector<InsertOp>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (const InsertInstance& ins :
         MakeInsertStream(s, state, 40, 0.3, 59 + t)) {
      batches[t].push_back({ins.rel, ins.tuple});
    }
  }
  std::vector<std::vector<InsertOp>> accepted(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Status> verdicts = maintainer->InsertBatch(batches[t]);
      ASSERT_EQ(verdicts.size(), batches[t].size());
      for (size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts[i].ok()) accepted[t].push_back(batches[t][i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Accepted ops apply via AddUnique, so duplicates (within a batch,
  // across threads, or against the initial state) are accepted without
  // adding a second copy. The order-independent invariant is set-wise:
  // the final state is exactly initial tuples ∪ accepted tuples — nothing
  // lost, nothing double-applied, no rejected tuple landed.
  std::vector<std::unordered_set<PartialTuple, PartialTupleHash>> expected(
      s.size());
  size_t total_accepted = 0;
  for (size_t r = 0; r < s.size(); ++r) {
    for (const PartialTuple& tuple : state.relation(r).tuples()) {
      expected[r].insert(tuple);
    }
  }
  for (const std::vector<InsertOp>& ops : accepted) {
    total_accepted += ops.size();
    for (const InsertOp& op : ops) expected[op.rel].insert(op.tuple);
  }
  EXPECT_GT(total_accepted, 0u);
  DatabaseState final_state = maintainer->Materialize();
  size_t expected_total = 0;
  for (size_t r = 0; r < s.size(); ++r) {
    expected_total += expected[r].size();
    ASSERT_EQ(final_state.relation(r).size(), expected[r].size())
        << "relation " << r;
    for (const PartialTuple& tuple : final_state.relation(r).tuples()) {
      EXPECT_TRUE(expected[r].count(tuple) > 0) << "relation " << r;
    }
  }
  EXPECT_EQ(maintainer->sharded_state().TupleCount(), expected_total);
  EXPECT_GE(expected_total, initial_tuples);
  EXPECT_TRUE(IsConsistent(final_state));
}

// The Theorem 4.1 plan cache is the one thing the TotalProjection read
// path mutates; since it went behind plans_mu_, concurrent readers on a
// quiescent state are safe and must agree with the serial answer. Before
// the lock, eight threads hitting a cold cache raced on the unordered_map.
TEST(ShardedStateTest, ConcurrentTotalProjectionsShareThePlanCache) {
  DatabaseScheme s = test::Example11();
  StateGenOptions opt;
  opt.entities = 10;
  opt.coverage = 0.8;
  opt.seed = 61;
  DatabaseState state = MakeConsistentState(s, opt);
  Result<ShardedState> sharded = ShardedState::Create(state);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const std::vector<AttributeSet> targets = {
      Attrs(s, "AB"), Attrs(s, "AE"), Attrs(s, "B"), Attrs(s, "CE")};
  std::vector<std::string> expected;
  expected.reserve(targets.size());
  RecognitionResult recognition = RecognizeIndependenceReducible(s);
  ASSERT_TRUE(recognition.accepted);
  for (const AttributeSet& x : targets) {
    expected.push_back(
        TotalProjection(state, recognition, x).ToString(s.universe()));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < targets.size(); ++i) {
          EXPECT_EQ(sharded->TotalProjection(targets[i])
                        .ToString(s.universe()),
                    expected[i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// --- Whole-scheme behaviour (Theorems 4.2 and 5.5) --------------------------

TEST(ShardedStateTest, RejectsNonReducibleScheme) {
  Result<ShardedMaintainer> m =
      ShardedMaintainer::Create(DatabaseState(test::Example2()));
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedStateTest, Example1UniversityWorkflow) {
  // The motivating Example 1: the university database is ctm; exercise a
  // realistic insert sequence.
  DatabaseScheme s = test::Example1R();
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(DatabaseState(s));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->IsCtm());
  constexpr Value h1 = 1, r1 = 2, c1 = 3, t1 = 4, s1 = 5, g1 = 6, t2 = 7;
  // course c1 taught by t1 in room r1 at hour h1.
  EXPECT_TRUE(m->Insert(0, Tuple(s, "HRC", {h1, r1, c1})).ok());
  EXPECT_TRUE(m->Insert(1, Tuple(s, "HTR", {h1, t1, r1})).ok());
  EXPECT_TRUE(m->Insert(2, Tuple(s, "HTC", {h1, t1, c1})).ok());
  // student s1 takes c1 with grade g1; s1 sits in r1 at h1.
  EXPECT_TRUE(m->Insert(3, Tuple(s, "CSG", {c1, s1, g1})).ok());
  EXPECT_TRUE(m->Insert(4, Tuple(s, "HSR", {h1, s1, r1})).ok());
  // A second teacher in the same room at the same hour: violates HR -> T.
  EXPECT_FALSE(m->Insert(1, Tuple(s, "HTR", {h1, t2, r1})).ok());
  // The final state is consistent.
  EXPECT_TRUE(IsConsistent(m->Materialize()));
}

TEST(ShardedStateTest, CtmFlagFollowsTheorem55) {
  {
    auto m = ShardedMaintainer::Create(DatabaseState(test::Example1R()));
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->IsCtm());
  }
  {
    // Example 4's scheme: one split block -> not ctm, but maintainable.
    auto m = ShardedMaintainer::Create(DatabaseState(test::Example4()));
    ASSERT_TRUE(m.ok());
    EXPECT_FALSE(m->IsCtm());
  }
}

TEST(ShardedStateTest, InsertsOnlyTouchTheRightBlock) {
  // An insert into block 2 must not be affected by block-1 contents.
  DatabaseScheme s = test::Example11();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R4", {1, 9});  // A=1 D=9
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(std::move(state));
  ASSERT_TRUE(m.ok());
  // Block 2 (DEF/DEG): D=9 already exists in block 1's R4, but block 2 has
  // no tuples, so any D-value is insertable there.
  EXPECT_TRUE(m->Insert(4, Tuple(s, "DEF", {9, 3, 4})).ok());
  // Now D=9 determines E=3: a conflicting DEG insert fails.
  EXPECT_FALSE(m->Insert(5, Tuple(s, "DEG", {9, 7, 5})).ok());
  EXPECT_TRUE(m->Insert(5, Tuple(s, "DEG", {9, 3, 5})).ok());
}

TEST(ShardedStateTest, CheckInsertAgreesWithChaseOnStreams) {
  std::vector<DatabaseScheme> schemes = {
      test::Example1R(), test::Example11(), MakeBlockScheme(3, 3),
      MakeIndependentScheme(4), MakeSplitScheme(2)};
  for (const DatabaseScheme& s : schemes) {
    StateGenOptions opt;
    opt.entities = 20;
    opt.coverage = 0.6;
    opt.seed = 71;
    DatabaseState state = MakeConsistentState(s, opt);
    Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
    ASSERT_TRUE(m.ok()) << s.ToString();
    std::vector<InsertInstance> stream =
        MakeInsertStream(s, state, 40, 0.4, 73);
    for (const InsertInstance& ins : stream) {
      bool chase_verdict = WouldRemainConsistent(state, ins.rel, ins.tuple);
      EXPECT_EQ(m->CheckInsert(ins.rel, ins.tuple).ok(), chase_verdict)
          << s.relation(ins.rel).name << " "
          << ins.tuple.ToString(s.universe());
    }
  }
}

TEST(ShardedStateTest, Section42LocalToGlobalArgument) {
  // The §4.2 claim itself: if every block substate is consistent, the
  // whole state is. Exercise with cross-block value sharing.
  DatabaseScheme s = test::Example11();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  state.Insert("R3", {a, c});
  state.Insert("R4", {a, d});
  state.mutable_relation(4).Add(Tuple(s, "DEF", {d, e, f}));
  state.mutable_relation(5).Add(Tuple(s, "DEG", {d, e, g}));
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(IsConsistent(state));
}

// --- The plan cache (Theorem 4.1) -------------------------------------------

TEST(ShardedStateTest, PlansAreCached) {
  DatabaseScheme s = test::Example1R();
  Result<ShardedState> sharded = ShardedState::Create(DatabaseState(s));
  ASSERT_TRUE(sharded.ok());
  AttributeSet hsc = Attrs(s, "HSC");
  ExprPtr first = sharded->PlanFor(hsc);
  ASSERT_NE(first, nullptr);
  // The second lookup returns the cached plan object itself.
  EXPECT_EQ(sharded->PlanFor(hsc).get(), first.get());
  ExprPtr other = sharded->PlanFor(Attrs(s, "TC"));
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(sharded->PlanFor(Attrs(s, "TC")).get(), other.get());
}

TEST(ShardedStateTest, UncoverableProjectionIsEmpty) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "CD", {"C"});
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {3, 4});
  Result<ShardedState> sharded = ShardedState::Create(state);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->PlanFor(Attrs(s, "AC")), nullptr);
  EXPECT_TRUE(sharded->TotalProjection(Attrs(s, "AC")).empty());
}

TEST(ShardedStateTest, ProjectionsMatchChaseAcrossStatesAndTargets) {
  std::vector<DatabaseScheme> schemes = {test::Example1R(), test::Example11(),
                                         MakeBlockScheme(2, 3)};
  for (const DatabaseScheme& s : schemes) {
    for (uint64_t seed : {3u, 4u}) {
      StateGenOptions opt;
      opt.entities = 12;
      opt.seed = seed;
      DatabaseState state = MakeConsistentState(s, opt);
      Result<ShardedState> sharded = ShardedState::Create(state);
      ASSERT_TRUE(sharded.ok());
      for (const RelationScheme& r : s.relations()) {
        PartialRelation answer = sharded->TotalProjection(r.attrs);
        Result<PartialRelation> chase = TotalProjectionByChase(state, r.attrs);
        ASSERT_TRUE(chase.ok());
        EXPECT_TRUE(answer.SetEquals(*chase)) << r.name;
      }
    }
  }
}

}  // namespace
}  // namespace ird
