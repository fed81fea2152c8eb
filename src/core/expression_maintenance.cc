#include "core/expression_maintenance.h"

#include <algorithm>

#include "algebra/expression.h"
#include "core/key_equivalence.h"
#include "tableau/lossless.h"

namespace ird {

ExpressionLookupPlan ExpressionLookupPlan::Build(const DatabaseScheme& scheme,
                                                 std::vector<size_t> pool) {
  pool = scheme.PoolOrAll(pool);
  IRD_CHECK_MSG(IsKeyEquivalentSubset(scheme, pool),
                "ExpressionLookupPlan requires a key-equivalent (sub)scheme");
  ExpressionLookupPlan plan;
  plan.pool_ = pool;
  plan.keys_ = scheme.DistinctKeys(pool);
  FdSet ambient = scheme.KeyDependenciesOf(pool);
  for (const AttributeSet& key : plan.keys_) {
    std::vector<std::vector<size_t>> subsets =
        AllLosslessSubsetsCovering(scheme, pool, key, ambient);
    // Largest attribute union first: the first nonempty selection is the
    // greatest lossless expression of §3.2.
    std::sort(subsets.begin(), subsets.end(),
              [&scheme](const std::vector<size_t>& a,
                        const std::vector<size_t>& b) {
                return scheme.UnionAttrs(a).Count() >
                       scheme.UnionAttrs(b).Count();
              });
    plan.subsets_.push_back(std::move(subsets));
  }
  return plan;
}

namespace {

// σ_{K='k'}(⋈ subset) with the selection pushed onto every base relation
// and a greedy connected join order (most-selected relation first), so the
// join never materializes an unselected cross product needlessly.
Result<std::optional<PartialTuple>> EvaluateSingleTupleSelection(
    const DatabaseState& state, const std::vector<size_t>& subset,
    const AttributeSet& key, const PartialTuple& key_values) {
  const DatabaseScheme& scheme = state.scheme();
  // Filter each base by the key attributes it sees.
  std::vector<PartialRelation> filtered;
  filtered.reserve(subset.size());
  for (size_t rel : subset) {
    const AttributeSet& attrs = scheme.relation(rel).attrs;
    AttributeSet bound = attrs.Intersect(key);
    PartialRelation out(attrs);
    for (const PartialTuple& t : state.relation(rel).tuples()) {
      if (bound.Empty() || t.AgreesOn(key_values, bound)) {
        out.Add(t);
      }
    }
    filtered.push_back(std::move(out));
  }
  // Greedy connected order: start with the most-constrained relation.
  std::vector<size_t> order;
  std::vector<bool> used(subset.size(), false);
  size_t start = 0;
  size_t best_bound = 0;
  for (size_t i = 0; i < subset.size(); ++i) {
    size_t bound =
        scheme.relation(subset[i]).attrs.Intersect(key).Count();
    if (bound > best_bound) {
      best_bound = bound;
      start = i;
    }
  }
  order.push_back(start);
  used[start] = true;
  AttributeSet prefix = scheme.relation(subset[start]).attrs;
  while (order.size() < subset.size()) {
    bool advanced = false;
    for (size_t i = 0; i < subset.size(); ++i) {
      if (used[i]) continue;
      if (scheme.relation(subset[i]).attrs.Intersects(prefix)) {
        order.push_back(i);
        used[i] = true;
        prefix.UnionWith(scheme.relation(subset[i]).attrs);
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      // Disconnected remainder (possible when the chase-losslessness runs
      // through outside attributes): append arbitrarily.
      for (size_t i = 0; i < subset.size(); ++i) {
        if (!used[i]) {
          order.push_back(i);
          used[i] = true;
          prefix.UnionWith(scheme.relation(subset[i]).attrs);
        }
      }
    }
  }
  PartialRelation acc = filtered[order[0]];
  for (size_t step = 1; step < order.size(); ++step) {
    acc = NaturalJoin(acc, filtered[order[step]]);
    if (acc.empty()) return std::optional<PartialTuple>(std::nullopt);
  }
  // Single-tuple check (σ over a lossless expression on a consistent state
  // returns at most one tuple, §3.2).
  std::optional<PartialTuple> result;
  for (const PartialTuple& t : acc.tuples()) {
    if (!result.has_value()) {
      result = t;
    } else if (*result != t) {
      return Inconsistent(
          "selection over a lossless expression returned two tuples: the "
          "state violates its key dependencies");
    }
  }
  return result;
}

}  // namespace

Result<std::optional<PartialTuple>> ExpressionLookupPlan::LookupTotalTuple(
    const DatabaseState& state, const AttributeSet& key,
    const PartialTuple& key_values) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    if (keys_[k] != key) continue;
    for (const std::vector<size_t>& subset : subsets_[k]) {
      Result<std::optional<PartialTuple>> result =
          EvaluateSingleTupleSelection(state, subset, key, key_values);
      if (!result.ok()) return result.status();
      if (result->has_value()) return result;  // greatest nonempty wins
    }
    return std::optional<PartialTuple>(std::nullopt);
  }
  IRD_CHECK_MSG(false, "lookup with a key not in the plan");
  return std::optional<PartialTuple>(std::nullopt);
}

Result<PartialTuple> CheckInsertByExpressions(
    const DatabaseScheme& scheme, const ExpressionLookupPlan& plan,
    const DatabaseState& state, size_t rel, const PartialTuple& tuple,
    MaintenanceStats* stats) {
  // Algorithm 2, with step (4)'s representative-instance probe replaced by
  // the §3.2 expression lookup. `found` owns the tuple the last lookup
  // returned, which the worklist reads until the next lookup.
  std::optional<PartialTuple> found;
  return RunAlgorithm2(
      scheme, plan.keys(), rel, tuple, stats, nullptr,
      [&](const AttributeSet& key, const PartialTuple& key_values)
          -> Result<const PartialTuple*> {
        Result<std::optional<PartialTuple>> p =
            plan.LookupTotalTuple(state, key, key_values);
        if (!p.ok()) return p.status();
        found = std::move(*p);
        return found.has_value() ? &*found : nullptr;
      });
}

}  // namespace ird
