// Lossless subsets (paper §2.3): S ⊆ R is a lossless subset covering X if
// ∪S ⊇ X and S is lossless wrt the FDs embedded in S. These subsets are the
// building blocks of the paper's bounded total-projection expressions
// (Lemma 3.2(b), Corollary 3.1(b), Theorem 4.1).
//
// Losslessness of a subset is decided by the chase of the subset's scheme
// tableau under an *ambient* dependency set (the key dependencies of the
// enclosing key-equivalent scheme or of the whole R): derivations may pass
// through attributes outside ∪S — Example 4's subset {AB, AC, BE, CE} is
// lossless only because BC -> D -> A -> E holds in the ambient F. Chasing
// with F is equivalent to chasing with any cover of the embedded
// consequences ([MMS], quoted in §2.3).

#ifndef IRD_TABLEAU_LOSSLESS_H_
#define IRD_TABLEAU_LOSSLESS_H_

#include <vector>

#include "base/attribute_set.h"
#include "fd/fd_set.h"
#include "schema/database_scheme.h"

namespace ird {

// True iff the subscheme {scheme[i] : i ∈ subset} is lossless wrt
// `ambient_fds`: CHASE(T_subset) has a row total (all dv) on the subset's
// attribute union.
bool IsLosslessSubset(const DatabaseScheme& scheme,
                      const std::vector<size_t>& subset,
                      const FdSet& ambient_fds);

// Convenience overload with ambient = all key dependencies of `scheme`.
bool IsLosslessSubset(const DatabaseScheme& scheme,
                      const std::vector<size_t>& subset);

// The subset enumerations below are exponential in |pool| (inherent: there
// can be exponentially many lossless subsets) and IRD_CHECK that the pool
// has at most this many relations. Callers facing user input compare
// first (ird_shell refuses a query past it).
inline constexpr size_t kMaxLosslessSubsetPool = 20;

// All *minimal* subsets S of `pool` (indices into `scheme`) such that S is
// lossless wrt `ambient_fds` and ∪S ⊇ x: the minimal members of what
// AllLosslessSubsetsCovering enumerates, which chases the same subsets in
// the same order. Minimal means no proper subset qualifies; by the
// monotonicity of projections over lossless joins, minimal subsets suffice
// to compute the union of Corollary 3.1(b).
std::vector<std::vector<size_t>> MinimalLosslessSubsetsCovering(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const AttributeSet& x, const FdSet& ambient_fds);

// Convenience overload with ambient = all key dependencies of `scheme`.
std::vector<std::vector<size_t>> MinimalLosslessSubsetsCovering(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const AttributeSet& x);

// ALL lossless subsets of `pool` covering x, minimal or not. The §3.2
// key-value lookup needs the non-minimal ones too: among the nonempty
// single-tuple selections σ_{K='k'}(E_i) the *greatest* (largest attribute
// union) expression carries the total tuple, and the greatest is typically
// not minimal. Subsets come in bitmask order over pool positions.
std::vector<std::vector<size_t>> AllLosslessSubsetsCovering(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const AttributeSet& x, const FdSet& ambient_fds);

}  // namespace ird

#endif  // IRD_TABLEAU_LOSSLESS_H_
