#include "core/kep.h"

#include <algorithm>
#include <map>

#include "obs/obs.h"

namespace ird {

namespace {

// One recursion of function KEP on `pool` with the pool's own key
// dependencies.
void KepRecurse(SchemeAnalysis& analysis, const std::vector<size_t>& pool,
                std::vector<std::vector<size_t>>* out) {
  const DatabaseScheme& scheme = analysis.scheme();
  // Statement (2): part := { [Ri] }, where [Ri] groups schemes with equal
  // closure wrt the pool's key dependencies.
  IRD_DCHECK(!pool.empty());
  // One KEP round = one recursion on a pool; the recursion tree has at
  // most 2n-1 nodes (leaves are disjoint blocks, internals split >= 2 ways).
  IRD_COUNT(kep.rounds);
  std::map<AttributeSet, std::vector<size_t>> groups;
  for (size_t i : pool) {
    groups[analysis.Closure(pool, scheme.relation(i).attrs)].push_back(i);
  }
#ifndef NDEBUG
  // The groups partition the pool (recursion preserves total size), and
  // each member's scheme is inside its group's closure.
  size_t grouped = 0;
  for (const auto& [closure, block] : groups) {
    grouped += block.size();
    for (size_t i : block) {
      IRD_DCHECK(scheme.relation(i).attrs.IsSubsetOf(closure));
    }
  }
  IRD_DCHECK(grouped == pool.size());
#endif
  // Statement (3): a single block means the pool is key-equivalent (all
  // closures equal forces them to equal the pool's attribute union).
  if (groups.size() == 1) {
    out->push_back(pool);
    return;
  }
  for (auto& [closure, block] : groups) {
    KepRecurse(analysis, block, out);
  }
}

}  // namespace

const std::vector<std::vector<size_t>>& KeyEquivalentPartition(
    SchemeAnalysis& analysis) {
  SchemeAnalysis::Cache& cache = analysis.cache();
  if (cache.kep_partition.has_value()) return *cache.kep_partition;
  IRD_SPAN("kep");
  std::vector<std::vector<size_t>> out;
  // The root pool is the full scheme; its cover is the analysis's shared
  // full-cover engine, so the per-relation closures computed here are the
  // same memo entries IsLossless and the uniqueness probes consult.
  KepRecurse(analysis, analysis.scheme().PoolOrAll(), &out);
  for (std::vector<size_t>& block : out) {
    std::sort(block.begin(), block.end());
  }
  std::sort(out.begin(), out.end(),
            [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
              return a.front() < b.front();
            });
  cache.kep_partition = std::move(out);
  return *cache.kep_partition;
}

std::vector<std::vector<size_t>> KeyEquivalentPartition(
    const DatabaseScheme& scheme) {
  SchemeAnalysis analysis(scheme);
  return KeyEquivalentPartition(analysis);
}

}  // namespace ird
