// Bounded total-projection computation — the paper's query-answering story.
//
// For a key-equivalent (sub)scheme, Corollary 3.1(b): [X] is exactly the
// union of projections onto X of the joins of (minimal) lossless subsets
// covering X.
//
// For an independence-reducible scheme, Theorem 4.1 (cf. Example 12): for
// each lossless subset {D_j1, ..., D_jk} of the induced independent scheme
// D covering X, compute Y_j = D_j ∩ (∪ other D's ∪ X), obtain each [Y_j] by
// the block-level expression above, and take π_X([Y_1] ⋈ ... ⋈ [Y_k]);
// union over the subsets.
//
// Both are *predetermined relational expressions*: their size depends only
// on R and F, which is the boundedness property (paper §2.5).

#ifndef IRD_CORE_TOTAL_PROJECTION_H_
#define IRD_CORE_TOTAL_PROJECTION_H_

#include <vector>

#include "algebra/expression.h"
#include "core/recognition.h"
#include "relation/database_state.h"

namespace ird {

// Corollary 3.1(b): the expression computing [X] on the key-equivalent
// subscheme `pool` (empty = all of R). Returns nullptr when no lossless
// subset of the pool covers X (then [X] contains no tuple from this block).
ExprPtr BuildKeyEquivalentProjectionExpr(const DatabaseScheme& scheme,
                                         const std::vector<size_t>& pool,
                                         const AttributeSet& x);

// Theorem 4.1: the expression computing [X] on an independence-reducible
// scheme, given an accepted recognition result. Returns nullptr when no
// lossless subset of D covers X (then [X] is empty).
ExprPtr BuildBoundedProjectionExpr(const DatabaseScheme& scheme,
                                   const RecognitionResult& recognition,
                                   const AttributeSet& x);

// End-to-end query API: recognizes R, then answers as the overload below.
// kFailedPrecondition if R is not independence-reducible. The state is
// assumed consistent (the weak-instance semantics of [X] is only defined
// for consistent states).
Result<PartialRelation> TotalProjection(const DatabaseState& state,
                                        const AttributeSet& x);

// Builds the bounded expression for a precomputed recognition and
// evaluates it (the common case when many queries run against one scheme).
PartialRelation TotalProjection(const DatabaseState& state,
                                const RecognitionResult& recognition,
                                const AttributeSet& x);

}  // namespace ird

#endif  // IRD_CORE_TOTAL_PROJECTION_H_
