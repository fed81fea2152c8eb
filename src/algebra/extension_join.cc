#include "algebra/extension_join.h"

#include <algorithm>

#include "fd/closure_engine.h"

namespace ird {

bool IsExtensionJoinSequence(const DatabaseScheme& scheme,
                             const std::vector<size_t>& order,
                             const FdSet& fds) {
  if (order.empty()) return false;
  ClosureEngine f(fds);
  AttributeSet prefix = scheme.relation(order[0]).attrs;
  for (size_t i = 1; i < order.size(); ++i) {
    const AttributeSet& next = scheme.relation(order[i]).attrs;
    AttributeSet shared = prefix.Intersect(next);
    AttributeSet gained = next.Minus(prefix);
    if (shared.Empty()) return false;  // a cartesian step, not an extension
    if (!f.Implies(shared, gained)) return false;
    prefix.UnionWith(next);
  }
  return true;
}

namespace {

bool ExtendOrder(const DatabaseScheme& scheme, const ClosureEngine& f,
                 const std::vector<size_t>& subset,
                 std::vector<bool>* used, AttributeSet* prefix,
                 std::vector<size_t>* order) {
  if (order->size() == subset.size()) return true;
  for (size_t i = 0; i < subset.size(); ++i) {
    if ((*used)[i]) continue;
    const AttributeSet& next = scheme.relation(subset[i]).attrs;
    AttributeSet shared = prefix->Intersect(next);
    AttributeSet gained = next.Minus(*prefix);
    bool ok = order->empty() ||
              (!shared.Empty() && f.Implies(shared, gained));
    if (!ok) continue;
    (*used)[i] = true;
    order->push_back(subset[i]);
    AttributeSet saved = *prefix;
    prefix->UnionWith(next);
    if (ExtendOrder(scheme, f, subset, used, prefix, order)) return true;
    *prefix = saved;
    order->pop_back();
    (*used)[i] = false;
  }
  return false;
}

}  // namespace

std::optional<std::vector<size_t>> FindExtensionJoinOrder(
    const DatabaseScheme& scheme, const std::vector<size_t>& subset,
    const FdSet& fds) {
  if (subset.empty()) return std::nullopt;
  std::vector<bool> used(subset.size(), false);
  std::vector<size_t> order;
  AttributeSet prefix;
  if (ExtendOrder(scheme, ClosureEngine(fds), subset, &used, &prefix,
                  &order)) {
    return order;
  }
  return std::nullopt;
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
  ClosureEngine f(fds);
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
      if (!f.Implies(shared, u2.Minus(u1))) continue;
      if (self(self, left) && self(self, right)) ok = true;
    }
    memo[mask] = ok ? 1 : 0;
    return ok;
  };
  return admits(admits, (uint64_t{1} << n) - 1);
}

ExprPtr SequentialJoinExpr(const DatabaseScheme& scheme,
                           const std::vector<size_t>& order) {
  IRD_CHECK(!order.empty());
  std::vector<ExprPtr> bases;
  bases.reserve(order.size());
  for (size_t i : order) {
    bases.push_back(Expression::Base(i, scheme.relation(i).attrs));
  }
  return Expression::Join(std::move(bases));
}

}  // namespace ird
