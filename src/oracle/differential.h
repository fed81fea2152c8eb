// The differential harness: runs every optimized decision procedure and
// engine of src/core/ and src/tableau/ against its definition-literal
// oracle on one scheme, and reports every disagreement. This is the single
// comparison routine shared by tests/differential_fuzz_test.cc, the
// standalone bench/fuzz_driver.cc campaign runner, and the corpus replay —
// and the predicate ShrinkScheme minimizes against.
//
// Routines pinned (left: optimized, right: oracle):
//   chase            IsConsistent / WouldRemainConsistent / [X] by chase
//                    vs the exhaustive pairwise chase (naive_chase.h)
//   lossless         IsLossless(SchemeAnalysis&) (BMSU closure) and
//                    IsLosslessByChase vs the exhaustively chased scheme
//                    tableau
//   key-equivalence  Algorithm 3 absorption vs FD-closure definition
//   split            Lemma 3.8 and the BFS-by-definition vs the partial-
//                    computation walk (naive_split.h)
//   KEP              recursive refinement vs maximal key-equivalent
//                    subsets by subset enumeration
//   independence     uniqueness condition on ClosureEngine vs naive
//                    closure, grounded by LSAT/WSAT states both ways
//   recognition      Algorithm 6 vs set-partition enumeration
//   classification   ClassifyScheme flags vs oracle-assembled flags
//   engine           a SchemeAnalysis's recognition, cold and warm, vs the
//                    scheme-level wrapper; `split-keys` compares the split
//                    keys of that warm analysis with a fresh one's
//                    (SplitKeys on a scheme builds a local analysis)
//   projection       Theorem 4.1 expressions, the optimized chase and
//                    RepresentativeIndex vs naive [X], compared as
//                    std::unordered_sets (the oracle dedups through a
//                    std::set, never PartialRelation's dedup index)
//   maintenance      Algorithm 2 on both lookups (the representative
//                    instance and the §3.2 expressions, one shared
//                    worklist) and the Algorithm 5 kernel vs re-chasing
//                    the enlarged initial state exhaustively; `stateful` drives one stream through a
//                    ShardedMaintainer and holds every verdict, and one
//                    random [X] after every accepted insert, to the
//                    exhaustive chase of an Add-built copy of the
//                    accumulated state (second half of the stream drawn
//                    from that state), then demands an InsertBatch replay
//                    with the same verdicts and final state as a set

#ifndef IRD_ORACLE_DIFFERENTIAL_H_
#define IRD_ORACLE_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schema/database_scheme.h"

namespace ird::oracle {

struct Disagreement {
  std::string routine;  // stable tag, e.g. "split/lemma38"
  std::string detail;   // human-readable witness description
};

// Runs every applicable comparison. Empty result = full agreement. The
// scheme must be valid (callers discard invalid mutants first). `seed`
// drives the generated states, insert streams, projection targets and
// LSAT/WSAT probes; their shapes and the exponential oracles' guards are
// fixed in differential.cc.
std::vector<Disagreement> CompareAgainstOracles(const DatabaseScheme& scheme,
                                                uint64_t seed);

// True iff some disagreement with this routine tag occurs — the shrink
// predicate.
bool DisagreesOn(const DatabaseScheme& scheme, uint64_t seed,
                 const std::string& routine);

}  // namespace ird::oracle

#endif  // IRD_ORACLE_DIFFERENTIAL_H_
