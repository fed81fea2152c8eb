#include "core/key_equivalence.h"

namespace ird {

SchemeClosure ComputeSchemeClosure(const DatabaseScheme& scheme, size_t j,
                                   const std::vector<size_t>& pool) {
  IRD_DCHECK(j < scheme.size());
  SchemeClosure out;
  out.closure = scheme.relation(j).attrs;
  std::vector<bool> absorbed(scheme.size(), false);
  absorbed[j] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i : pool) {
      if (absorbed[i]) continue;
      const RelationScheme& r = scheme.relation(i);
      if (r.attrs.IsSubsetOf(out.closure)) {
        // Si ⊆ closure adds nothing; mark to keep the scan short. (The
        // paper's loop condition requires Si ⊄ closure.)
        absorbed[i] = true;
        continue;
      }
      if (r.ContainsKey(out.closure)) {
        out.steps.push_back(ClosureStep{i, out.closure});
        out.closure.UnionWith(r.attrs);
        // Every recorded step strictly grows the closure — partial
        // computations replayed from `steps` terminate on this.
        IRD_DCHECK(out.steps.back().closure_before != out.closure);
        absorbed[i] = true;
        changed = true;
      }
    }
  }
  return out;
}

SchemeClosure ComputeSchemeClosure(const DatabaseScheme& scheme, size_t j) {
  return ComputeSchemeClosure(scheme, j, scheme.PoolOrAll());
}

bool IsKeyEquivalentSubset(const DatabaseScheme& scheme,
                           const std::vector<size_t>& pool) {
  AttributeSet all = scheme.UnionAttrs(pool);
  for (size_t j : pool) {
    if (ComputeSchemeClosure(scheme, j, pool).closure != all) return false;
  }
  return true;
}

bool IsKeyEquivalent(const DatabaseScheme& scheme) {
  return IsKeyEquivalentSubset(scheme, scheme.PoolOrAll());
}

bool IsKeyEquivalent(SchemeAnalysis& analysis) {
  SchemeAnalysis::Cache& cache = analysis.cache();
  if (cache.key_equivalent.has_value()) return *cache.key_equivalent;
  cache.key_equivalent = IsKeyEquivalent(analysis.scheme());
  return *cache.key_equivalent;
}

}  // namespace ird
