// FdSet: a finite set F of functional dependencies with the classic
// dependency-theory operations — attribute-set closure X+ wrt F, membership
// of an FD in F+, cover equivalence, minimal covers, and projection F+|R
// (paper §2.3).

#ifndef IRD_FD_FD_SET_H_
#define IRD_FD_FD_SET_H_

#include <string>
#include <vector>

#include "base/attribute_set.h"
#include "base/universe.h"
#include "fd/fd.h"

namespace ird {

class FdSet {
 public:
  FdSet() = default;
  explicit FdSet(std::vector<FunctionalDependency> fds)
      : fds_(std::move(fds)) {}

  // Adds X -> Y. Trivial and duplicate FDs are kept (harmless) unless the
  // caller minimizes; Add is the hot path of generators.
  void Add(FunctionalDependency fd) { fds_.push_back(std::move(fd)); }
  void Add(AttributeSet lhs, AttributeSet rhs) {
    fds_.emplace_back(std::move(lhs), std::move(rhs));
  }

  // Appends every FD of `other`.
  void AddAll(const FdSet& other);

  const std::vector<FunctionalDependency>& fds() const { return fds_; }
  size_t size() const { return fds_.size(); }
  bool empty() const { return fds_.empty(); }

  // The closure X+ of X wrt this set: all attributes A with X -> A ∈ F+.
  // A one-off query: builds a ClosureEngine over this set and asks it
  // once. Code that closes many sets against one F builds the engine once.
  AttributeSet Closure(const AttributeSet& x) const;

  // True iff X -> Y ∈ F+.
  bool Implies(const FunctionalDependency& fd) const {
    return fd.rhs.IsSubsetOf(Closure(fd.lhs));
  }
  bool Implies(const AttributeSet& lhs, const AttributeSet& rhs) const {
    return rhs.IsSubsetOf(Closure(lhs));
  }

  // True iff every FD of `other` is in this set's closure.
  bool Covers(const FdSet& other) const;

  // True iff F+ == G+ ("F is a cover of G", paper §2.3).
  bool EquivalentTo(const FdSet& other) const {
    return Covers(other) && other.Covers(*this);
  }

  // A minimal cover: singleton right sides, no extraneous left attributes,
  // no redundant FDs.
  FdSet MinimalCover() const;

  // Standard form: every FD rewritten to singleton right sides, trivial
  // FDs dropped.
  FdSet StandardForm() const;

  // The projection of F+ onto scheme R: a cover of {X -> Y ∈ F+ | XY ⊆ R}.
  // Exponential in |R| in the worst case (inherent); intended for the small
  // schemes of dependency-theory workloads. The result is minimized.
  FdSet ProjectOnto(const AttributeSet& scheme) const;

  // All FDs of this set that are embedded in `scheme` (syntactic filter,
  // no inference).
  FdSet EmbeddedIn(const AttributeSet& scheme) const;

  // True iff X is a superkey of `scheme`: X -> scheme ∈ F+.
  bool IsSuperkeyOf(const AttributeSet& x, const AttributeSet& scheme) const {
    return Implies(x, scheme);
  }

  std::string ToString(const Universe& universe) const;

 private:
  std::vector<FunctionalDependency> fds_;
};

}  // namespace ird

#endif  // IRD_FD_FD_SET_H_
