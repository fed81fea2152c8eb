// ShardedState: a database state partitioned along the scheme's
// independence-reducible partition, one BlockShard per block. The router
// maps each relation to the shard that owns it; writes are block-local by
// Theorem 4.2, and cross-block reads (total projection) are answered by
// fanning out to the shards a plan touches and reading their relations in
// place. The plan cache below is the library's only one.

#ifndef IRD_CORE_SHARDED_STATE_H_
#define IRD_CORE_SHARDED_STATE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/expression.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/block_shard.h"
#include "core/recognition.h"
#include "core/total_projection.h"
#include "relation/database_state.h"

namespace ird {

class ShardedState {
 public:
  // Shards `state` along the independence-reducible partition (recognition
  // runs inside; kFailedPrecondition when the scheme is outside the
  // class). With `verify_consistency`, every block substate is chased once
  // (Algorithm 1) on construction.
  static Result<ShardedState> Create(DatabaseState state,
                                     bool verify_consistency = true);

  const DatabaseScheme& scheme() const { return scheme_; }
  const RecognitionResult& recognition() const { return recognition_; }

  // The router: which shard owns relation `rel`.
  size_t BlockOf(size_t rel) const {
    IRD_CHECK(rel < rel_to_block_.size());
    return rel_to_block_[rel];
  }

  size_t shard_count() const { return shards_.size(); }
  const BlockShard& shard(size_t b) const {
    IRD_CHECK(b < shards_.size());
    return shards_[b];
  }
  BlockShard& mutable_shard(size_t b) {
    IRD_CHECK(b < shards_.size());
    return shards_[b];
  }

  // Theorem 5.5 per shard: every block split-free <=> the scheme is ctm.
  bool AllShardsSplitFree() const;

  // Total tuples across all shards.
  size_t TupleCount() const;

  // Fan-in: reassembles the full database state from the shard substates.
  // Tuple order within each relation is the shard's insertion order.
  DatabaseState Materialize() const;

  // The Theorem 4.1 bounded total projection [X], answered through the
  // shards: the cached plan is evaluated over its base relations, each
  // read in place from the shard that owns it, so no shard the plan does
  // not reference is touched and nothing is copied into a merged state. A
  // plan whose relations span several shards is a cross-block query
  // (`shard.cross_block_queries`). Returns the empty relation on X no
  // lossless subset of the induced scheme covers.
  //
  // Safe to call concurrently with other TotalProjection/PlanFor calls:
  // the plan cache is the only state this read path mutates, and it is
  // guarded. Concurrent with writers (Insert/mutable_shard) it is not.
  PartialRelation TotalProjection(const AttributeSet& x)
      IRD_EXCLUDES(plans_mu_);

  // The cached Theorem 4.1 plan for [X] (nullptr when no lossless subset
  // of the induced scheme covers X). Compiled once per X; later calls
  // return the same plan object.
  ExprPtr PlanFor(const AttributeSet& x) IRD_EXCLUDES(plans_mu_);

 private:
  ShardedState() : scheme_(DatabaseScheme::Create()) {}

  DatabaseScheme scheme_;
  RecognitionResult recognition_;
  std::vector<BlockShard> shards_;
  std::vector<size_t> rel_to_block_;
  // Plan compilation is deterministic, so a losing racer recomputing an
  // entry lands on an equivalent plan; the mutex only protects the map
  // structure itself. Behind a unique_ptr because ShardedState is move-
  // constructed out of Create (a Mutex member would pin it in place).
  std::unique_ptr<Mutex> plans_mu_ = std::make_unique<Mutex>();
  std::unordered_map<AttributeSet, ExprPtr, AttributeSetHash> plans_
      IRD_GUARDED_BY(plans_mu_);
};

}  // namespace ird

#endif  // IRD_CORE_SHARDED_STATE_H_
