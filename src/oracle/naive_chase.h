// The chase with fd-rules transliterated from the definition (paper §2.3):
// for every pair of rows and every dependency X -> Y, if the rows agree on
// all of X, equate their symbols on each attribute of Y; repeat until no
// rule applies or two distinct constants are forced equal.
//
// No standard form, no left-side bucketing, no hashing — a quadratic scan
// per pass. tableau/chase.h's ChaseFds is the optimized routine this module
// exists to cross-check, so nothing here may call it; the Tableau substrate
// (symbols, union-find, rows) is shared because it *is* the definition's
// object language.

#ifndef IRD_ORACLE_NAIVE_CHASE_H_
#define IRD_ORACLE_NAIVE_CHASE_H_

#include "base/status.h"
#include "fd/fd_set.h"
#include "relation/database_state.h"
#include "relation/relation.h"
#include "schema/database_scheme.h"
#include "tableau/tableau.h"

namespace ird::oracle {

// Runs CHASE_F(t) in place by exhaustive pairwise rule application.
// Returns false iff a contradiction was found (the state of `t` is then
// meaningless).
bool NaiveChase(Tableau* t, const FdSet& fds);

// Consistency of a state: its tableau chases without contradiction.
bool IsConsistentNaive(const DatabaseState& state);

// [X] from first principles: chase the state tableau exhaustively, collect
// the X-total rows, deduplicate (through a std::set, so the result holds
// each tuple once without PartialRelation's dedup index). kInconsistent
// when no weak instance exists.
Result<PartialRelation> TotalProjectionNaive(const DatabaseState& state,
                                             const AttributeSet& x);

// The maintenance ground truth: is state ∪ {tuple on relation `rel`} still
// consistent? Chases the enlarged tableau from scratch, exhaustively.
bool WouldRemainConsistentNaive(const DatabaseState& state, size_t rel,
                                const PartialTuple& tuple);

// Losslessness by the definition: CHASE_F(T_R) contains an all-dv row.
bool IsLosslessNaive(const DatabaseScheme& scheme);

}  // namespace ird::oracle

#endif  // IRD_ORACLE_NAIVE_CHASE_H_
