// BlockShard: one block of the independence-reducible partition as a
// self-contained maintenance unit. The shard owns the block's tuples (a
// pool-restricted DatabaseState), its access structures (the relations'
// own key tables for split-free blocks, a RepresentativeIndex for split
// blocks) and the per-block maintainer state behind Algorithms 5 and 2.
// Because the merged induced scheme is independent (Theorem 4.2), a shard
// validates and applies inserts into its pool without ever reading
// another shard — the paper's structural result turned into a unit of
// data ownership.

#ifndef IRD_CORE_BLOCK_SHARD_H_
#define IRD_CORE_BLOCK_SHARD_H_

#include <optional>
#include <vector>

#include "core/ctm_maintainer.h"
#include "core/key_equivalent_maintainer.h"
#include "core/representative_index.h"
#include "relation/database_state.h"

namespace ird {

class BlockShard {
 public:
  // Builds the shard for `pool` from the pool's tuples in `state`. The pool
  // must be a key-equivalent block; `split_free` selects the Algorithm 5
  // (key-indexed relations) vs Algorithm 2 (RepresentativeIndex)
  // machinery. With `verify_consistency`, the block substate is chased
  // once (Algorithm 1) even on the split-free path; building a split
  // block's representative instance verifies consistency as a byproduct
  // either way. Fails with kInconsistent when the block substate has no
  // weak instance, and on a split-free block with a local key violation
  // even without `verify_consistency`.
  static Result<BlockShard> Build(const DatabaseState& state,
                                  std::vector<size_t> pool, bool split_free,
                                  bool verify_consistency);

  const std::vector<size_t>& pool() const { return pool_; }
  bool split_free() const { return split_free_; }

  // The shard's view of the database: only this block's relations are
  // populated (full-scheme skeleton, so relation indices stay global).
  const DatabaseState& substate() const { return substate_; }

  // Tuples owned by this shard.
  size_t TupleCount() const { return substate_.TupleCount(); }

  // Block-local validation: Algorithm 5 (split-free) or Algorithm 2
  // (split), against this shard's state only. `rel` must belong to the
  // pool. Returns the block-extended tuple q on yes, kInconsistent on no.
  // Pure. `scratch` (optional, never shared between threads) recycles the
  // restriction/join buffers across checks.
  Result<PartialTuple> CheckInsert(size_t rel, const PartialTuple& tuple,
                                   MaintenanceStats* stats = nullptr,
                                   MaintainScratch* scratch = nullptr) const;

  // Applies an insert this shard has already validated: adds it to the
  // owned substate, whose relations keep their own key tables current,
  // and on a split block to the representative instance. A tuple the
  // substate already holds is already there too, so a re-insert stops at
  // the relation's dedup check.
  Status Apply(size_t rel, const PartialTuple& tuple);

  // CheckInsert + Apply.
  Status Insert(size_t rel, const PartialTuple& tuple,
                MaintainScratch* scratch = nullptr);

 private:
  BlockShard() : substate_(DatabaseScheme::Create()) {}

  std::vector<size_t> pool_;
  bool split_free_ = false;
  // Split-free blocks index their relations' keys here for Algorithm 5.
  DatabaseState substate_;
  // Split blocks: the block representative instance driving Algorithm 2.
  std::optional<RepresentativeIndex> rep_index_;
};

}  // namespace ird

#endif  // IRD_CORE_BLOCK_SHARD_H_
