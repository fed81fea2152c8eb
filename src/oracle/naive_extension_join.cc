#include "oracle/naive_extension_join.h"

#include "oracle/naive_closure.h"

namespace ird::oracle {

bool IsExtensionJoinSequence(const DatabaseScheme& scheme,
                             const std::vector<size_t>& order,
                             const FdSet& fds) {
  if (order.empty()) return false;
  AttributeSet prefix = scheme.relation(order[0]).attrs;
  for (size_t i = 1; i < order.size(); ++i) {
    const AttributeSet& next = scheme.relation(order[i]).attrs;
    AttributeSet shared = prefix.Intersect(next);
    if (shared.Empty()) return false;  // a cartesian step, not an extension
    if (!NaiveImplies(fds, shared, next.Minus(prefix))) return false;
    prefix.UnionWith(next);
  }
  return true;
}

bool AdmitsExtensionJoinTree(const DatabaseScheme& scheme,
                             const std::vector<size_t>& subset,
                             const FdSet& fds) {
  IRD_CHECK_MSG(subset.size() <= 16,
                "extension-tree search is exponential; subset too large");
  if (subset.empty()) return false;
  const size_t n = subset.size();
  std::vector<AttributeSet> union_of(uint64_t{1} << n);
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    for (size_t b = 0; b < n; ++b) {
      if ((mask >> b) & 1) {
        union_of[mask].UnionWith(scheme.relation(subset[b]).attrs);
      }
    }
  }
  std::vector<int8_t> memo(uint64_t{1} << n, -1);
  // admits[mask]: the sub-multiset can be bracketed into an extension tree.
  auto admits = [&](auto&& self, uint64_t mask) -> bool {
    if (memo[mask] >= 0) return memo[mask] != 0;
    if (__builtin_popcountll(mask) == 1) {
      memo[mask] = 1;
      return true;
    }
    bool ok = false;
    // Iterate proper submasks as the left operand; the pair is checked in
    // one direction per submask (the complement covers the other).
    for (uint64_t left = (mask - 1) & mask; left != 0 && !ok;
         left = (left - 1) & mask) {
      uint64_t right = mask & ~left;
      const AttributeSet& u1 = union_of[left];
      const AttributeSet& u2 = union_of[right];
      AttributeSet shared = u1.Intersect(u2);
      if (shared.Empty()) continue;
      if (!NaiveImplies(fds, shared, u2.Minus(u1))) continue;
      if (self(self, left) && self(self, right)) ok = true;
    }
    memo[mask] = ok ? 1 : 0;
    return ok;
  };
  return admits(admits, (uint64_t{1} << n) - 1);
}

}  // namespace ird::oracle
