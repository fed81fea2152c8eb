#include "core/expression_maintenance.h"

#include <algorithm>

#include "algebra/expression.h"
#include "core/key_equivalence.h"
#include "tableau/lossless.h"

namespace ird {

namespace {

// `subset` in the order its selection joins it: the relation that sees the
// most key attributes first (the most-selected one), then ConnectedJoinOrder.
// A lossless subset is connected, so no step is a cross product.
std::vector<size_t> JoinOrder(const DatabaseScheme& scheme,
                              const std::vector<size_t>& subset,
                              const AttributeSet& key) {
  size_t start = 0;
  size_t best_bound = 0;
  for (size_t i = 0; i < subset.size(); ++i) {
    size_t bound = scheme.relation(subset[i]).attrs.Intersect(key).Count();
    if (bound > best_bound) {
      best_bound = bound;
      start = i;
    }
  }
  std::vector<size_t> members = subset;
  std::rotate(members.begin(), members.begin() + start,
              members.begin() + start + 1);
  std::vector<AttributeSet> attrs;
  for (size_t rel : members) attrs.push_back(scheme.relation(rel).attrs);
  std::vector<size_t> ordered;
  for (size_t i : ConnectedJoinOrder(attrs)) ordered.push_back(members[i]);
  return ordered;
}

}  // namespace

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
    for (std::vector<size_t>& subset : subsets) {
      subset = JoinOrder(scheme, subset, key);
    }
    plan.subsets_.push_back(std::move(subsets));
  }
  return plan;
}

namespace {

// σ_{K='k'}(⋈ subset) with the selection pushed onto every base relation,
// joined in the order Build stored the subset in.
Result<std::optional<PartialTuple>> EvaluateSingleTupleSelection(
    const DatabaseState& state, const std::vector<size_t>& subset,
    const AttributeSet& key, const PartialTuple& key_values) {
  PartialRelation acc;
  for (size_t step = 0; step < subset.size(); ++step) {
    // Filter the base by the key attributes it sees.
    const AttributeSet& attrs = state.scheme().relation(subset[step]).attrs;
    AttributeSet bound = attrs.Intersect(key);
    PartialRelation filtered(attrs);
    for (const PartialTuple& t : state.relation(subset[step]).tuples()) {
      if (bound.Empty() || t.AgreesOn(key_values, bound)) {
        filtered.Add(t);
      }
    }
    acc = step == 0 ? std::move(filtered) : NaturalJoin(acc, filtered);
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
