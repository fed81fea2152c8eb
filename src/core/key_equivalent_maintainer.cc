#include "core/key_equivalent_maintainer.h"

#include <utility>

#include "obs/obs.h"

namespace ird {

Result<PartialTuple> CheckInsertKeyEquivalent(
    const DatabaseScheme& scheme, const RepresentativeIndex& index,
    size_t rel, const PartialTuple& tuple, MaintenanceStats* stats,
    MaintainScratch* scratch) {
  const std::vector<AttributeSet>& pool_keys = index.keys();
  IRD_CHECK(tuple.attrs() == scheme.relation(rel).attrs);
  IRD_COUNT(maintain.alg2.checks);
  // Algorithm 2's per-check latency: the expression-maintenance side of
  // the paper's constant-vs-growing comparison with maintain.alg5.check_ns.
  IRD_HISTOGRAM_TIMER_NS(maintain.alg2.check_ns);
  MaintainScratch local_scratch;
  MaintainScratch* s = scratch != nullptr ? scratch : &local_scratch;

  // Step (1): start from the keys of the inserted tuple's scheme.
  s->processed.assign(pool_keys.size(), 0);
  s->queued.assign(pool_keys.size(), 0);
  s->unprocessed.clear();
  AttributeSet closure = scheme.relation(rel).attrs;
  for (size_t k = 0; k < pool_keys.size(); ++k) {
    if (pool_keys[k].IsSubsetOf(closure)) {
      s->unprocessed.push_back(k);
      s->queued[k] = 1;
    }
  }
  PartialTuple q = tuple;

  // Steps (2)-(10).
  while (!s->unprocessed.empty()) {
    size_t k = s->unprocessed.back();
    s->unprocessed.pop_back();
    s->processed[k] = 1;
    IRD_COUNT(maintain.alg2.keys_processed);
    if (stats != nullptr) ++stats->keys_processed;

    const AttributeSet& key = pool_keys[k];
    q.RestrictInto(key, &s->key_seed);
    const PartialTuple* p = index.Lookup(key, s->key_seed);
    IRD_COUNT(maintain.alg2.lookups);
    if (stats != nullptr) ++stats->lookups;
    // Step (4): v is the (unique) total tuple of the representative
    // instance with these key values, or the key values themselves.
    const PartialTuple& v = (p != nullptr) ? *p : s->key_seed;
    // Step (5)-(6): q := q ⋈ v; empty join means inconsistent.
    if (!q.JoinInto(v, &s->joined)) {
      IRD_COUNT(maintain.alg2.rejects);
      return Inconsistent("inserted tuple contradicts the total tuple on " +
                          scheme.universe().Format(key));
    }
    std::swap(q, s->joined);
    // Step (7): closure grows by v's defined attributes.
    closure.UnionWith(v.attrs());
    // Steps (8)-(9): queue the keys newly embedded in the closure.
    for (size_t k2 = 0; k2 < pool_keys.size(); ++k2) {
      if (!s->processed[k2] && !s->queued[k2] &&
          pool_keys[k2].IsSubsetOf(closure)) {
        s->unprocessed.push_back(k2);
        s->queued[k2] = 1;
      }
    }
  }
  // Step (11): yes, plus the extended tuple q.
  return q;
}

}  // namespace ird
