// MaintainScratch: reusable buffers for the per-insert maintenance check
// paths (Algorithms 2, 4 and 5). Every check restricts the candidate tuple
// to a key and joins it with retrieved total tuples; without scratch each
// of those steps allocates a fresh value vector. Callers that validate
// many inserts (BlockShard, ShardedMaintainer's batch loop) thread one
// scratch through the whole run so the buffers are allocated once and
// recycled.
//
// A scratch is plain mutable state: never share one between threads. The
// batch validator allocates one per shard task for exactly this reason.

#ifndef IRD_CORE_MAINTAIN_SCRATCH_H_
#define IRD_CORE_MAINTAIN_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "relation/partial_tuple.h"

namespace ird {

struct MaintainScratch {
  // CheckInsertCtm / CheckInsertKeyEquivalent: the candidate tuple's
  // per-key restriction (the seed of each extension).
  PartialTuple key_seed;
  // Join target; swapped with the accumulating tuple after each join so
  // the displaced buffer is reused for the next one.
  PartialTuple joined;
  // Algorithm 2's key worklist state.
  std::vector<uint8_t> processed;
  std::vector<uint8_t> queued;
  std::vector<size_t> unprocessed;
};

}  // namespace ird

#endif  // IRD_CORE_MAINTAIN_SCRATCH_H_
