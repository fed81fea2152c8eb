#include "fd/fd_set.h"

#include "fd/closure_engine.h"

namespace ird {

void FdSet::AddAll(const FdSet& other) {
  fds_.insert(fds_.end(), other.fds_.begin(), other.fds_.end());
}

AttributeSet FdSet::Closure(const AttributeSet& x) const {
  return ClosureEngine(*this).Closure(x);
}

bool FdSet::Covers(const FdSet& other) const {
  ClosureEngine engine(*this);
  for (const FunctionalDependency& fd : other.fds_) {
    if (!engine.Implies(fd.lhs, fd.rhs)) return false;
  }
  return true;
}

FdSet FdSet::StandardForm() const {
  FdSet out;
  for (const FunctionalDependency& fd : fds_) {
    AttributeSet effective = fd.rhs.Minus(fd.lhs);
    effective.ForEach([&](AttributeId a) {
      out.Add(fd.lhs, AttributeSet{a});
    });
  }
  return out;
}

FdSet FdSet::MinimalCover() const {
  // Step 1: standard form (singleton right sides, trivial parts dropped).
  FdSet g = StandardForm();

  // Step 2: remove extraneous left-side attributes. X -> A can shrink to
  // (X - B) -> A whenever A ∈ (X - B)+ wrt G. A shrink leaves G+ as it
  // was, so one engine over the starting G answers every test.
  const ClosureEngine engine(g);
  for (FunctionalDependency& fd : g.fds_) {
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      // Iterating fd.lhs directly (no ToVector temporary) is safe only
      // because `break` immediately follows the mutation of fd.lhs — the
      // iterator is never advanced past the assignment.
      for (AttributeId b : fd.lhs) {
        if (fd.lhs.Count() <= 1) break;
        AttributeSet reduced = fd.lhs;
        reduced.Remove(b);
        if (engine.Implies(reduced, fd.rhs)) {
          fd.lhs = reduced;
          shrunk = true;
          break;
        }
      }
    }
  }

  // Step 3: drop redundant FDs, those the others imply. Each FD is tested
  // neutralized in place (made trivial) and restored if the rest miss it,
  // so later tests see the FDs kept so far and the ones not yet tested.
  for (FunctionalDependency& fd : g.fds_) {
    const FunctionalDependency tested = fd;
    fd.rhs = fd.lhs;
    if (!g.Implies(tested)) fd = tested;
  }
  // Remove the neutralized (trivial) FDs.
  FdSet minimal;
  for (const FunctionalDependency& fd : g.fds_) {
    if (!fd.IsTrivial()) minimal.Add(fd);
  }
  return minimal;
}

FdSet FdSet::ProjectOnto(const AttributeSet& scheme) const {
  IRD_CHECK_MSG(scheme.Count() <= 24,
                "FD projection is exponential; scheme too large");
  // Enumerate X ⊆ scheme; emit X -> (X+ ∩ scheme). Redundant generators are
  // pruned afterwards by minimization. The ≤24 guard above bounds the
  // stack buffer.
  AttributeId attrs[24];
  size_t n = 0;
  scheme.ForEach([&](AttributeId a) { attrs[n++] = a; });
  ClosureEngine engine(*this);
  FdSet projected;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    AttributeSet x;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) x.Add(attrs[i]);
    }
    AttributeSet rhs = engine.Closure(x).Intersect(scheme).Minus(x);
    if (!rhs.Empty()) {
      projected.Add(std::move(x), std::move(rhs));
    }
  }
  return projected.MinimalCover();
}

FdSet FdSet::EmbeddedIn(const AttributeSet& scheme) const {
  FdSet out;
  for (const FunctionalDependency& fd : fds_) {
    if (fd.IsEmbeddedIn(scheme)) out.Add(fd);
  }
  return out;
}

std::string FdSet::ToString(const Universe& universe) const {
  std::string out = "{";
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fds_[i].ToString(universe);
  }
  out += "}";
  return out;
}

}  // namespace ird
