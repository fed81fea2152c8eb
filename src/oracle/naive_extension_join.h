// Extension joins (paper §2.6), checked against their definitions.
//
// An extension join extends the tuples of an expression E1 on R1 by the
// attributes Y of a second expression E2 on R2, where Y ⊆ R2 - R1 and
// R1 ∩ R2 -> Y ∈ F+: every E1-tuple picks up at most one extension, so the
// join never multiplies tuples. A sequential join orders a subscheme
// R_1, ..., R_m and joins left-to-right.
//
// Closures come from NaiveClosure, so these definitions share no code with
// the closure engine. The library's plans order their joins by
// ConnectedJoinOrder (algebra/expression.h) and never search for an
// extension order; these checks pin the paper's claims about its examples.

#ifndef IRD_ORACLE_NAIVE_EXTENSION_JOIN_H_
#define IRD_ORACLE_NAIVE_EXTENSION_JOIN_H_

#include <vector>

#include "fd/fd_set.h"
#include "schema/database_scheme.h"

namespace ird::oracle {

// True iff the sequential join R_{order[0]} ⋈ ... ⋈ R_{order[m-1]} is a
// sequence of extension joins wrt `fds`: at every step the attributes
// gained are functionally determined by the overlap with the prefix.
bool IsExtensionJoinSequence(const DatabaseScheme& scheme,
                             const std::vector<size_t>& order,
                             const FdSet& fds);

// True iff `subset` can be bracketed into a (possibly bushy) tree of
// extension joins per the recursive §2.6 definition — E1 and E2 may
// themselves be extension joins, as in Example 4's AB ⋈ AC ⋈ (BE ⋈ CE).
// At each internal node the right side's new attributes must be determined
// by the overlap: attrs(E1) ∩ attrs(E2) -> attrs(E2) - attrs(E1) ∈ F+.
// Exponential in |subset| (3^n submask scan); guarded at 16.
bool AdmitsExtensionJoinTree(const DatabaseScheme& scheme,
                             const std::vector<size_t>& subset,
                             const FdSet& fds);

}  // namespace ird::oracle

#endif  // IRD_ORACLE_NAIVE_EXTENSION_JOIN_H_
