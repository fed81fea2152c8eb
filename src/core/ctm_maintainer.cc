#include "core/ctm_maintainer.h"

#include <utility>

#include "obs/obs.h"

namespace ird {

Result<PartialTuple> CheckInsertCtm(const DatabaseState& state,
                                    const std::vector<size_t>& pool,
                                    size_t rel, const PartialTuple& tuple,
                                    ExtensionStats* stats,
                                    MaintainScratch* scratch) {
  const DatabaseScheme& scheme = state.scheme();
  IRD_CHECK(tuple.attrs() == scheme.relation(rel).attrs);
  IRD_COUNT(maintain.alg5.checks);
  // Per-check latency distribution: Theorem 5.5 claims this path is
  // constant-time in the state size, so its p99 must stay flat as states
  // grow (compare maintain.alg2.check_ns, which may not).
  IRD_HISTOGRAM_TIMER_NS(maintain.alg5.check_ns);
  // Probes/extensions are tallied locally so the registry sees them on
  // every return path — the constant-time invariant of Theorem 5.5 is
  // asserted against these counters (tests/obs_invariants_test.cc).
  ExtensionStats local;
  auto flush = [&] {
    IRD_COUNT_ADD(maintain.alg5.probes, local.probes);
    if (stats != nullptr) {
      stats->probes += local.probes;
      stats->extensions += local.extensions;
    }
  };
  MaintainScratch local_scratch;
  MaintainScratch* s = scratch != nullptr ? scratch : &local_scratch;
  // Step (1)-(2): q := t ⋈ t'_1 ⋈ ... ⋈ t'_n over the keys of S_rel.
  PartialTuple q = tuple;
  for (const AttributeSet& key : scheme.relation(rel).keys) {
    tuple.RestrictInto(key, &s->key_seed);
    Result<PartialTuple> extended =
        ExtendTuple(state, pool, s->key_seed, &local, s);
    if (!extended.ok()) {
      IRD_COUNT(maintain.alg5.rejects);
      flush();
      return extended.status();
    }
    if (!q.JoinInto(extended.value(), &s->joined)) {
      // Step (3): q = ∅ — the insert contradicts the existing total tuple
      // on this key.
      IRD_COUNT(maintain.alg5.rejects);
      flush();
      return Inconsistent("inserted tuple contradicts the total tuple on " +
                          scheme.universe().Format(key));
    }
    std::swap(q, s->joined);
  }
  flush();
  return q;
}

}  // namespace ird
