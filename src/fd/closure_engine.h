// ClosureEngine: attribute-set closures against one fixed FD set, in time
// linear in the size of F per query (Beeri–Bernstein counting algorithm).
// It is the library's one closure algorithm outside oracle/ (whose
// NaiveClosure is the independent reference): FdSet::Closure builds one for
// a one-off query, and code that closes many sets against one F — key
// minimality, the BCNF scan, KEP, the uniqueness condition, the split test
// — builds one for the whole loop or asks SchemeAnalysis for its engines.

#ifndef IRD_FD_CLOSURE_ENGINE_H_
#define IRD_FD_CLOSURE_ENGINE_H_

#include <vector>

#include "base/attribute_set.h"
#include "fd/fd_set.h"

namespace ird {

class ClosureEngine {
 public:
  // Indexes `fds`; the engine keeps its own copy of the dependency
  // structure (the FdSet may be destroyed afterwards).
  explicit ClosureEngine(const FdSet& fds);

  // X+ wrt the indexed set. O(Σ|lhs| + Σ|rhs|) per call.
  AttributeSet Closure(const AttributeSet& x) const;

  // rhs ⊆ Closure(lhs)?
  bool Implies(const AttributeSet& lhs, const AttributeSet& rhs) const {
    return rhs.IsSubsetOf(Closure(lhs));
  }

 private:
  struct IndexedFd {
    uint32_t lhs_size;
    AttributeSet rhs;
  };

  std::vector<IndexedFd> fds_;
  // For each attribute, the FDs whose left side contains it, flattened to
  // CSR form: attr a's fd ids are by_attr_fds_[by_attr_offsets_[a] ..
  // by_attr_offsets_[a+1]). One contiguous buffer instead of a
  // vector-of-vectors keeps the counting loop on one cache stream.
  std::vector<uint32_t> by_attr_offsets_;
  std::vector<uint32_t> by_attr_fds_;
  // Scratch state, reused across calls (sized on first use): per-FD
  // unsatisfied-lhs counters and the attribute work stack. Steady-state
  // Closure() calls allocate nothing.
  mutable std::vector<uint32_t> missing_;
  mutable std::vector<AttributeId> stack_;
};

}  // namespace ird

#endif  // IRD_FD_CLOSURE_ENGINE_H_
