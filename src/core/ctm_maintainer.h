// Algorithm 5 (paper §3.3.1): constant-time maintenance for split-free
// key-equivalent database schemes. Per Theorem 3.3 / Corollary 3.3 this
// solves the maintenance problem with a number of tuple accesses that
// depends only on R and F — never on the state size.

#ifndef IRD_CORE_CTM_MAINTAINER_H_
#define IRD_CORE_CTM_MAINTAINER_H_

#include <vector>

#include "core/tuple_extension.h"
#include "relation/database_state.h"

namespace ird {

// Algorithm 5 on one instance <s, t>: extends t on each key of its scheme
// (Algorithm 4 over the key-indexed relations of `pool` in `state`) and
// intersects the results. `rel` must be in `pool`. Returns the joined
// tuple q on yes, kInconsistent on no. Pure. `scratch` (optional)
// recycles the restriction/join buffers across checks.
Result<PartialTuple> CheckInsertCtm(const DatabaseState& state,
                                    const std::vector<size_t>& pool,
                                    size_t rel, const PartialTuple& tuple,
                                    ExtensionStats* stats = nullptr,
                                    MaintainScratch* scratch = nullptr);

}  // namespace ird

#endif  // IRD_CORE_CTM_MAINTAINER_H_
