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

}  // namespace ird

#endif  // IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
