// Stateful replay shared by the maintenance suites: one ShardedMaintainer
// takes two insert streams serially, and every verdict is held to the chase
// of a ground-truth copy of the state that the test grows itself.

#ifndef IRD_TESTS_STREAM_REPLAY_H_
#define IRD_TESTS_STREAM_REPLAY_H_

#include <unordered_set>

#include <gtest/gtest.h>

#include "core/sharded_maintainer.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace ird::test {

struct ReplayCounts {
  size_t accepted = 0;
  size_t rejected = 0;
};

// Builds a ShardedMaintainer on `initial` and drives it through two streams
// of `per_stream` inserts. The first is drawn from `initial`; the second
// from the accumulated state, so its conflicts can hit tuples the first
// stream inserted — an Apply that skips its index update accepts those.
// The ground truth is grown with Add, apart from the maintainer, and the
// maintainer's final state must equal it as a set. Counts follow the
// chase's verdicts.
inline ReplayCounts ReplayTwoStreams(const DatabaseState& initial,
                                     size_t per_stream, double conflict_rate,
                                     uint64_t seed) {
  ReplayCounts counts;
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(initial);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  if (!m.ok()) return counts;
  const DatabaseScheme& s = initial.scheme();
  DatabaseState truth = initial;
  for (uint64_t stream = 0; stream < 2; ++stream) {
    for (const InsertInstance& ins : MakeInsertStream(
             s, truth, per_stream, conflict_rate, seed + stream)) {
      bool expected = WouldRemainConsistent(truth, ins.rel, ins.tuple);
      EXPECT_EQ(m->Insert(ins.rel, ins.tuple).ok(), expected)
          << "stream " << stream << ": " << s.relation(ins.rel).name << " "
          << ins.tuple.ToString(s.universe());
      if (expected) {
        truth.mutable_relation(ins.rel).Add(ins.tuple);
        ++counts.accepted;
      } else {
        ++counts.rejected;
      }
    }
  }
  using TupleSet = std::unordered_set<PartialTuple, PartialTupleHash>;
  DatabaseState final_state = m->Materialize();
  for (size_t r = 0; r < s.size(); ++r) {
    const std::vector<PartialTuple>& got = final_state.relation(r).tuples();
    const std::vector<PartialTuple>& want = truth.relation(r).tuples();
    EXPECT_TRUE(TupleSet(got.begin(), got.end()) ==
                TupleSet(want.begin(), want.end()))
        << s.relation(r).name;
  }
  EXPECT_TRUE(IsConsistent(final_state));
  return counts;
}

}  // namespace ird::test

#endif  // IRD_TESTS_STREAM_REPLAY_H_
