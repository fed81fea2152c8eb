#include "oracle/naive_independence.h"

#include <random>

#include "oracle/naive_chase.h"
#include "oracle/naive_closure.h"

namespace ird::oracle {

bool IsIndependentOracle(const DatabaseScheme& scheme) {
  for (size_t j = 0; j < scheme.size(); ++j) {
    const RelationScheme& rj = scheme.relation(j);
    FdSet without_j = scheme.KeyDependenciesExcept(j);
    for (size_t i = 0; i < scheme.size(); ++i) {
      if (i == j) continue;
      AttributeSet closure =
          NaiveClosure(without_j, scheme.relation(i).attrs);
      // An embedded key dependency K -> A of Rj: K ⊆ closure and some
      // A ∈ Rj - K in the closure as well.
      for (const AttributeSet& key : rj.keys) {
        if (!key.IsSubsetOf(closure)) continue;
        if (!closure.Intersect(rj.attrs).Minus(key).Empty()) return false;
      }
    }
  }
  return true;
}

std::optional<DatabaseState> SearchLsatWsatGap(const DatabaseScheme& scheme,
                                               size_t trials,
                                               size_t max_tuples,
                                               size_t domain, uint64_t seed) {
  // Local satisfaction (paper §2.7) against F+ projected onto each
  // relation once: the projections depend only on the scheme.
  std::vector<FdSet> local;
  local.reserve(scheme.size());
  for (const RelationScheme& r : scheme.relations()) {
    local.push_back(scheme.key_dependencies().ProjectOnto(r.attrs));
  }
  auto locally_consistent = [&](const DatabaseState& state) {
    for (size_t rel = 0; rel < scheme.size(); ++rel) {
      if (!state.relation(rel).Satisfies(local[rel])) return false;
    }
    return true;
  };
  std::mt19937_64 rng(seed);
  for (size_t trial = 0; trial < trials; ++trial) {
    DatabaseState state(scheme);
    for (size_t rel = 0; rel < scheme.size(); ++rel) {
      size_t count = rng() % (max_tuples + 1);
      const AttributeSet& attrs = scheme.relation(rel).attrs;
      for (size_t k = 0; k < count; ++k) {
        std::vector<Value> values;
        values.reserve(attrs.Count());
        // Shared small domain per attribute so tuples collide across
        // relations often enough for the chase to have work to do.
        attrs.ForEach([&](AttributeId a) {
          values.push_back(
              static_cast<Value>(a * domain + rng() % domain + 1));
        });
        state.mutable_relation(rel).AddUnique(
            PartialTuple(attrs, std::move(values)));
      }
    }
    if (locally_consistent(state) && !IsConsistentNaive(state)) {
      return state;
    }
  }
  return std::nullopt;
}

}  // namespace ird::oracle
