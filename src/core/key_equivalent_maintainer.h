// Algorithm 2 (paper §3.2): incremental constraint enforcement for
// key-equivalent database schemes. Given a consistent state's
// representative instance and an inserted tuple, decides in a bounded
// number of single-tuple key lookups whether the enlarged state is still
// consistent — the algebraic-maintainability of Theorem 3.2.

#ifndef IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
#define IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_

#include <utility>
#include <vector>

#include "core/maintain_scratch.h"
#include "core/representative_index.h"
#include "obs/obs.h"
#include "relation/database_state.h"

namespace ird {

// Statistics of one Algorithm 2 run (the quantities the paper bounds).
struct MaintenanceStats {
  size_t keys_processed = 0;
  size_t lookups = 0;
};

// Algorithm 2 on one instance <s, t>: `index` must be the representative
// instance of the (pool-restricted) current state, and its keys() are the
// worklist universe; `rel`, a relation of the pool, receives `tuple`.
// Returns the extended tuple q on success ("yes", plus q, as in the paper)
// or kInconsistent ("no"). Pure — neither the state nor the index is
// modified. `scratch` (optional) recycles the worklist and join buffers
// across checks.
Result<PartialTuple> CheckInsertKeyEquivalent(
    const DatabaseScheme& scheme, const RepresentativeIndex& index,
    size_t rel, const PartialTuple& tuple, MaintenanceStats* stats = nullptr,
    MaintainScratch* scratch = nullptr);

// Steps (1)-(11) of Algorithm 2 over the worklist universe `pool_keys`,
// with step (4)'s lookup as a parameter: `lookup(key, key_values)`, for a
// tuple on exactly `key`, returns the total tuple embedding it (nullptr if
// there is none), or an error that ends the check. The pointee must stay
// valid until the next lookup. CheckInsertKeyEquivalent probes the
// representative instance; CheckInsertByExpressions
// (core/expression_maintenance.h) evaluates the §3.2 expressions.
template <typename Lookup>
Result<PartialTuple> RunAlgorithm2(const DatabaseScheme& scheme,
                                   const std::vector<AttributeSet>& pool_keys,
                                   size_t rel, const PartialTuple& tuple,
                                   MaintenanceStats* stats,
                                   MaintainScratch* scratch,
                                   const Lookup& lookup) {
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
    Result<const PartialTuple*> p = lookup(key, s->key_seed);
    if (!p.ok()) return p.status();
    IRD_COUNT(maintain.alg2.lookups);
    if (stats != nullptr) ++stats->lookups;
    // Step (4): v is the (unique) total tuple of the representative
    // instance with these key values, or the key values themselves.
    const PartialTuple& v = (*p != nullptr) ? **p : s->key_seed;
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

#endif  // IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
