// Algorithm 4 (paper §3.3.1): extend a tuple given on a key K as far as
// possible using the key dependencies and the raw state — each step is one
// single-tuple conjunctive selection σ_{Ki='k'}(Si), answered in place by
// the relation's key table. On a consistent state of a split-free
// key-equivalent scheme, the result is the unique total tuple of the
// representative instance embedding the key value (Lemma 3.3).

#ifndef IRD_CORE_TUPLE_EXTENSION_H_
#define IRD_CORE_TUPLE_EXTENSION_H_

#include <vector>

#include "core/maintain_scratch.h"
#include "relation/database_state.h"

namespace ird {

// Statistics of one extension run (for the ctm experiments: the number of
// probes is bounded by |S| * |keys|, independent of the state size).
struct ExtensionStats {
  size_t probes = 0;
  size_t extensions = 0;
};

// Runs Algorithm 4 from `seed`, a tuple on a key of some relation in
// `pool`, over the relations of `pool` in `state`, whose keys must be
// indexed (DatabaseState::IndexKeys). Returns the extended tuple t' on C.
// Fails with kInconsistent only if the underlying state is itself
// inconsistent (two state tuples disagreeing on attributes the chase
// would equate). `scratch` (optional) recycles the join buffer across
// calls.
Result<PartialTuple> ExtendTuple(const DatabaseState& state,
                                 const std::vector<size_t>& pool,
                                 const PartialTuple& seed,
                                 ExtensionStats* stats = nullptr,
                                 MaintainScratch* scratch = nullptr);

}  // namespace ird

#endif  // IRD_CORE_TUPLE_EXTENSION_H_
