// Attribute closure computed exactly as the textbook definition reads:
// repeatedly scan the *raw* dependency list and add a right side whenever
// its left side is already covered, until a full pass changes nothing.
//
// Deliberately shares no code with fd/closure_engine.h, the indexed
// Beeri–Bernstein engine that is the library's one closure algorithm
// (FdSet::Closure runs it too): the oracle layer and closure_engine_test
// pin the engine against this transliteration.

#ifndef IRD_ORACLE_NAIVE_CLOSURE_H_
#define IRD_ORACLE_NAIVE_CLOSURE_H_

#include "base/attribute_set.h"
#include "fd/fd_set.h"

namespace ird::oracle {

// X+ wrt `fds`, by exhaustive rule application on the FD list as given (no
// standard form, no minimization, no indexing).
AttributeSet NaiveClosure(const FdSet& fds, const AttributeSet& x);

// X -> Y ∈ F+ by the definition: Y ⊆ X+.
bool NaiveImplies(const FdSet& fds, const AttributeSet& lhs,
                  const AttributeSet& rhs);

}  // namespace ird::oracle

#endif  // IRD_ORACLE_NAIVE_CLOSURE_H_
