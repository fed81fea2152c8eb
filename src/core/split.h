// Split keys and split-free schemes (paper §3.3). A key K is split in some
// Si+ if a partial computation of Si+ (Algorithm 3) covers K without any
// scheme in the computation containing K — the structural obstruction to
// constant-time maintainability (Corollary 3.3: a key-equivalent scheme is
// ctm iff split-free).
//
// Two implementations:
//  * IsKeySplit — the efficient test of Lemma 3.8 (polynomial): K is split
//    iff some scheme not containing K reaches, via the key dependencies of
//    the schemes not containing K, a closure that covers K. The body takes
//    a SchemeAnalysis, whose memoized engines close against W's cover, and
//    SplitKeys caches its answer per pool; the DatabaseScheme overloads
//    build a local analysis and delegate.
//  * IsKeySplitByDefinition — exhaustive search over partial computations
//    of the closures (exponential; for cross-validation on small schemes).
//    Scheme-only on purpose: it computes no FD closures and the oracle
//    layer cross-checks against it, so it must stay context-free.

#ifndef IRD_CORE_SPLIT_H_
#define IRD_CORE_SPLIT_H_

#include <vector>

#include "base/attribute_set.h"
#include "engine/scheme_analysis.h"
#include "schema/database_scheme.h"

namespace ird {

// Lemma 3.8: K is split in some Ri+ iff, with W = {Rp : K ⊄ Rp} and G the
// key dependencies embedded in W, some Wi ∈ W has K ⊆ Closure_G(Wi).
// `pool` restricts R to a subscheme (empty = all); the scheme (sub)set must
// be key-equivalent for the characterization to be meaningful.
bool IsKeySplit(const DatabaseScheme& scheme, const AttributeSet& key,
                const std::vector<size_t>& pool = {});
bool IsKeySplit(SchemeAnalysis& analysis, const AttributeSet& key,
                const std::vector<size_t>& pool = {});

// Lemma 3.8's covering sequence: with W = {Rp ∈ pool : K ⊄ Rp}, the first
// Wi (in pool order) whose Algorithm 3 closure over W covers K, followed by
// the prefix of that computation's steps that completes K. No member
// contains K, and their union covers it — the fragments that witness the
// split (and the s_l of BuildSplitWitness). Empty iff K is not split.
// Algorithm 3 over W reaches exactly Closure_G(Wi) for G = W's key
// dependencies, so this agrees with IsKeySplit without an FD closure.
std::vector<size_t> CoveringFragments(const DatabaseScheme& scheme,
                                      const AttributeSet& key,
                                      const std::vector<size_t>& pool = {});

// The definitional test restricted to computations of one closure Si+
// (paper: "K is split in Si+"): explores every reachable closure state of
// start+ and reports whether any applicable step completes K with a scheme
// not containing K. Exponential; guarded at 16 pool schemes.
bool IsKeySplitInClosureOf(const DatabaseScheme& scheme,
                           const AttributeSet& key, size_t start,
                           const std::vector<size_t>& pool = {});

// The definitional test over every Si+ (K is split, full stop).
bool IsKeySplitByDefinition(const DatabaseScheme& scheme,
                            const AttributeSet& key,
                            const std::vector<size_t>& pool = {});

// Keys of the pool's schemes that are split (deduplicated).
std::vector<AttributeSet> SplitKeys(const DatabaseScheme& scheme,
                                    const std::vector<size_t>& pool = {});
// Engine-backed flavor: cached per pool in the analysis; the returned
// reference is valid until the scheme's revision changes.
const std::vector<AttributeSet>& SplitKeys(SchemeAnalysis& analysis,
                                           const std::vector<size_t>& pool =
                                               {});

// True iff no key of the (sub)scheme is split (paper §3.3 "split-free").
bool IsSplitFree(const DatabaseScheme& scheme,
                 const std::vector<size_t>& pool = {});
bool IsSplitFree(SchemeAnalysis& analysis,
                 const std::vector<size_t>& pool = {});

}  // namespace ird

#endif  // IRD_CORE_SPLIT_H_
