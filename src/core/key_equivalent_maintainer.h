// Algorithm 2 (paper §3.2): incremental constraint enforcement for
// key-equivalent database schemes. Given a consistent state's
// representative instance and an inserted tuple, decides in a bounded
// number of single-tuple key lookups whether the enlarged state is still
// consistent — the algebraic-maintainability of Theorem 3.2.

#ifndef IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
#define IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_

#include <vector>

#include "core/maintain_scratch.h"
#include "core/representative_index.h"
#include "relation/database_state.h"

namespace ird {

// Statistics of one Algorithm 2 run (the quantities the paper bounds).
struct MaintenanceStats {
  size_t keys_processed = 0;
  size_t lookups = 0;
};

// The distinct keys embedded in the pool's relations — Algorithm 2's key
// worklist universe. Depends only on the scheme and pool, so callers that
// check many inserts compute it once (BlockShard caches it per block).
std::vector<AttributeSet> DistinctPoolKeys(const DatabaseScheme& scheme,
                                           const std::vector<size_t>& pool);

// Algorithm 2 on one instance <s, t>: `index` must be the representative
// instance of the (pool-restricted) current state; `rel` ∈ pool is the
// relation receiving `tuple`. Returns the extended tuple q on success
// ("yes", plus q, as in the paper) or kInconsistent ("no"). Pure — neither
// the state nor the index is modified.
Result<PartialTuple> CheckInsertKeyEquivalent(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const RepresentativeIndex& index, size_t rel, const PartialTuple& tuple,
    MaintenanceStats* stats = nullptr);

// As above with `pool_keys` precomputed by DistinctPoolKeys and optional
// reusable scratch — the form the per-insert hot path (BlockShard) uses.
Result<PartialTuple> CheckInsertKeyEquivalent(
    const DatabaseScheme& scheme,
    const std::vector<AttributeSet>& pool_keys,
    const RepresentativeIndex& index, size_t rel, const PartialTuple& tuple,
    MaintenanceStats* stats = nullptr, MaintainScratch* scratch = nullptr);

}  // namespace ird

#endif  // IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
