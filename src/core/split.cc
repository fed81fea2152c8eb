#include "core/split.h"

#include <deque>
#include <unordered_set>
#include <utility>

#include "core/key_equivalence.h"
#include "obs/obs.h"

namespace ird {

namespace {

// W = the pool members not containing K (Lemma 3.8).
std::vector<size_t> MembersWithout(const DatabaseScheme& scheme,
                                   const AttributeSet& key,
                                   const std::vector<size_t>& pool) {
  std::vector<size_t> w;
  for (size_t i : scheme.PoolOrAll(pool)) {
    IRD_DCHECK(i < scheme.size());
    if (!key.IsSubsetOf(scheme.relation(i).attrs)) w.push_back(i);
  }
  return w;
}

}  // namespace

bool IsKeySplit(const DatabaseScheme& scheme, const AttributeSet& key,
                const std::vector<size_t>& pool) {
  SchemeAnalysis analysis(scheme);
  return IsKeySplit(analysis, key, pool);
}

bool IsKeySplit(SchemeAnalysis& analysis, const AttributeSet& key,
                const std::vector<size_t>& pool) {
  IRD_DCHECK(!key.Empty());
  const DatabaseScheme& scheme = analysis.scheme();
  // G = the key dependencies of W. Lemma 3.8 via BMSU: the row for Wi in
  // CHASE_G(T_W) is all-dv on K iff K ⊆ Closure_G(Wi). W is nonempty
  // inside the loop, so Closure's empty-pool-means-full convention is
  // never tripped.
  std::vector<size_t> w = MembersWithout(scheme, key, pool);
  for (size_t i : w) {
    IRD_COUNT(split.cover_checks);
    if (key.IsSubsetOf(analysis.Closure(w, scheme.relation(i).attrs))) {
      return true;
    }
  }
  return false;
}

std::vector<size_t> CoveringFragments(const DatabaseScheme& scheme,
                                      const AttributeSet& key,
                                      const std::vector<size_t>& pool) {
  std::vector<size_t> w = MembersWithout(scheme, key, pool);
  for (size_t start : w) {
    SchemeClosure closure = ComputeSchemeClosure(scheme, start, w);
    if (!key.IsSubsetOf(closure.closure)) continue;
    std::vector<size_t> covering = {start};
    AttributeSet covered = scheme.relation(start).attrs;
    for (const ClosureStep& step : closure.steps) {
      if (key.IsSubsetOf(covered)) break;
      covering.push_back(step.scheme_index);
      covered.UnionWith(scheme.relation(step.scheme_index).attrs);
    }
    return covering;
  }
  return {};
}

bool IsKeySplitInClosureOf(const DatabaseScheme& scheme,
                           const AttributeSet& key, size_t start,
                           const std::vector<size_t>& pool) {
  std::vector<size_t> p = scheme.PoolOrAll(pool);
  IRD_CHECK_MSG(p.size() <= 16,
                "definitional split search is exponential; pool too large");
  // BFS over the closure states reachable by partial computations of
  // start+ (Algorithm 3).
  std::unordered_set<AttributeSet, AttributeSetHash> visited;
  std::deque<AttributeSet> queue;
  queue.push_back(scheme.relation(start).attrs);
  visited.insert(queue.back());
  while (!queue.empty()) {
    IRD_COUNT(split.bfs_states);
    AttributeSet closure = std::move(queue.front());
    queue.pop_front();
    for (size_t j : p) {
      const RelationScheme& sj = scheme.relation(j);
      // Applicability per Algorithm 3 step (2).
      if (sj.attrs.IsSubsetOf(closure)) continue;
      if (!sj.ContainsKey(closure)) continue;
      // Does Sj complete K here, without containing K?
      if (!key.IsSubsetOf(closure) &&
          key.IsSubsetOf(closure.Union(sj.attrs)) &&
          !key.IsSubsetOf(sj.attrs)) {
        return true;
      }
      AttributeSet next = closure.Union(sj.attrs);
      // Applicability guarantees strict growth, which bounds the BFS by
      // the (finite) lattice of closure states.
      IRD_DCHECK(closure.IsSubsetOf(next) && next != closure);
      if (visited.insert(next).second) {
        queue.push_back(std::move(next));
      }
    }
  }
  return false;
}

bool IsKeySplitByDefinition(const DatabaseScheme& scheme,
                            const AttributeSet& key,
                            const std::vector<size_t>& pool) {
  std::vector<size_t> p = scheme.PoolOrAll(pool);
  for (size_t start : p) {
    if (IsKeySplitInClosureOf(scheme, key, start, p)) return true;
  }
  return false;
}

std::vector<AttributeSet> SplitKeys(const DatabaseScheme& scheme,
                                    const std::vector<size_t>& pool) {
  SchemeAnalysis analysis(scheme);
  return SplitKeys(analysis, pool);
}

const std::vector<AttributeSet>& SplitKeys(SchemeAnalysis& analysis,
                                           const std::vector<size_t>& pool) {
  const DatabaseScheme& scheme = analysis.scheme();
  std::vector<size_t> p = scheme.PoolOrAll(pool);
  SchemeAnalysis::Cache& cache = analysis.cache();
  auto cached = cache.split_keys.find(p);
  if (cached != cache.split_keys.end()) return cached->second;
  IRD_SPAN("split");
  std::vector<AttributeSet> split;
  for (const AttributeSet& key : scheme.DistinctKeys(p)) {
    if (IsKeySplit(analysis, key, p)) split.push_back(key);
  }
  return cache.split_keys.emplace(std::move(p), std::move(split))
      .first->second;
}

bool IsSplitFree(const DatabaseScheme& scheme,
                 const std::vector<size_t>& pool) {
  return SplitKeys(scheme, pool).empty();
}

bool IsSplitFree(SchemeAnalysis& analysis, const std::vector<size_t>& pool) {
  return SplitKeys(analysis, pool).empty();
}

}  // namespace ird
