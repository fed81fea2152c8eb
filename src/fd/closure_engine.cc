#include "fd/closure_engine.h"

#include "obs/obs.h"

namespace ird {

ClosureEngine::ClosureEngine(const FdSet& fds) {
  // CSR build: count lhs memberships per attribute, prefix-sum into
  // offsets, then fill. Filling in fd order keeps each attribute's fd list
  // in ascending id order, matching the old vector-of-vectors iteration.
  uint32_t max_attr = 0;
  bool any = false;
  fds_.reserve(fds.size());
  for (const FunctionalDependency& fd : fds.fds()) {
    fds_.push_back(IndexedFd{static_cast<uint32_t>(fd.lhs.Count()), fd.rhs});
    fd.lhs.ForEach([&](AttributeId a) {
      any = true;
      if (a > max_attr) max_attr = a;
    });
    // FDs with an empty left side fire unconditionally; model them as
    // lhs_size 0 handled in Closure().
  }
  const uint32_t nattrs = any ? max_attr + 1 : 0;
  by_attr_offsets_.assign(nattrs + 1, 0);
  for (const FunctionalDependency& fd : fds.fds()) {
    fd.lhs.ForEach([&](AttributeId a) { ++by_attr_offsets_[a + 1]; });
  }
  for (uint32_t a = 0; a < nattrs; ++a) {
    by_attr_offsets_[a + 1] += by_attr_offsets_[a];
  }
  by_attr_fds_.resize(by_attr_offsets_[nattrs]);
  std::vector<uint32_t> fill(by_attr_offsets_.begin(),
                             by_attr_offsets_.end() - 1);
  uint32_t id = 0;
  for (const FunctionalDependency& fd : fds.fds()) {
    fd.lhs.ForEach([&](AttributeId a) { by_attr_fds_[fill[a]++] = id; });
    ++id;
  }
}

AttributeSet ClosureEngine::Closure(const AttributeSet& x) const {
  // closure.iterations counts FD firings (each FD fires at most once, so
  // iterations <= |F| per computation; obs_invariants_test asserts it).
  // Firings are tallied locally and flushed once on return: this function
  // is the engine's innermost hot loop and a per-firing atomic costs
  // measurable time even relaxed.
  IRD_COUNT(closure.computations);
  uint64_t fired = 0;
  missing_.assign(fds_.size(), 0);
  for (size_t i = 0; i < fds_.size(); ++i) {
    missing_[i] = fds_[i].lhs_size;
  }
  AttributeSet closure = x;
  // LIFO processing order; closures are order-independent, so a reused
  // member stack beats a per-call deque (no allocation in steady state).
  stack_.clear();
  closure.ForEach([&](AttributeId a) { stack_.push_back(a); });
  // FDs with empty left sides fire immediately.
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (missing_[i] == 0) {
      ++fired;
      fds_[i].rhs.ForEach([&](AttributeId a) {
        if (!closure.Contains(a)) {
          closure.Add(a);
          stack_.push_back(a);
        }
      });
    }
  }
  const uint32_t nattrs =
      static_cast<uint32_t>(by_attr_offsets_.size() - 1);
  while (!stack_.empty()) {
    AttributeId a = stack_.back();
    stack_.pop_back();
    if (a >= nattrs) continue;
    const uint32_t* id_begin = by_attr_fds_.data() + by_attr_offsets_[a];
    const uint32_t* id_end = by_attr_fds_.data() + by_attr_offsets_[a + 1];
    for (const uint32_t* idp = id_begin; idp != id_end; ++idp) {
      const uint32_t id = *idp;
      if (missing_[id] == 0) continue;
      if (--missing_[id] == 0) {
        ++fired;
        fds_[id].rhs.ForEach([&](AttributeId b) {
          if (!closure.Contains(b)) {
            closure.Add(b);
            stack_.push_back(b);
          }
        });
      }
    }
  }
  IRD_COUNT_ADD(closure.iterations, fired);
  // One sample per computation: the per-call firing distribution separates
  // "many cheap closures" from "few saturating ones" at equal totals.
  IRD_HISTOGRAM(closure.iterations_per_call, fired);
  return closure;
}

}  // namespace ird
