// ShardedMaintainer: constraint enforcement for independence-reducible
// schemes over a ShardedState. Per Theorem 4.2 an insert's verdict depends
// only on the receiving relation's block, so inserts landing on distinct
// shards are validated in parallel over a BatchAnalyzer-style worker pool
// while each shard's stream stays serial in arrival order — which makes
// the batch path's verdicts, final state and counter totals identical at
// any job count (the concurrency battery of tests/sharded_state_test.cc
// asserts this at --jobs 1 vs --jobs 8 under TSan).

#ifndef IRD_CORE_SHARDED_MAINTAINER_H_
#define IRD_CORE_SHARDED_MAINTAINER_H_

#include <memory>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/sharded_state.h"
#include "engine/batch.h"

namespace ird {

// One insert of a batch: `tuple` into relation `rel`.
struct InsertOp {
  size_t rel;
  PartialTuple tuple;
};

class ShardedMaintainer {
 public:
  // `state` must live on an independence-reducible scheme (recognition
  // runs inside Create) and be consistent. `jobs` sizes the worker pool
  // for InsertBatch; jobs <= 1 validates every shard on the calling
  // thread. With `verify_consistency`, the initial block substates are
  // chased once (Algorithm 1).
  static Result<ShardedMaintainer> Create(DatabaseState state,
                                          size_t jobs = 1,
                                          bool verify_consistency = true);

  // Routes to the owning shard and validates block-locally (Algorithm 5 on
  // split-free shards, Algorithm 2 on split shards). Returns the
  // block-extended tuple q on yes, kInconsistent on no. Pure.
  Result<PartialTuple> CheckInsert(size_t rel, const PartialTuple& tuple,
                                   MaintenanceStats* stats = nullptr) const;

  // CheckInsert + apply on the owning shard.
  Status Insert(size_t rel, const PartialTuple& tuple);

  // Validates and applies `ops` in arrival order per shard, with distinct
  // shards running concurrently on the pool. Returns one verdict per op,
  // in op order — identical to looping Insert over `ops` serially, at any
  // job count, because no shard ever reads another shard's state.
  // Overlapping calls from different threads are serialized on batch_mu_
  // (the pool's handout state is one-batch-at-a-time); interleaving
  // InsertBatch with plain Insert remains the caller's problem.
  std::vector<Status> InsertBatch(const std::vector<InsertOp>& ops)
      IRD_EXCLUDES(batch_mu_);

  const ShardedState& sharded_state() const { return state_; }

  // Fan-in of the shard substates (see ShardedState::Materialize).
  DatabaseState Materialize() const { return state_.Materialize(); }

  // Cross-shard query path (Theorem 4.1 plans routed through the shards).
  PartialRelation TotalProjection(const AttributeSet& x) {
    return state_.TotalProjection(x);
  }

  // The cached plan TotalProjection evaluates for [X] (see
  // ShardedState::PlanFor).
  ExprPtr PlanFor(const AttributeSet& x) { return state_.PlanFor(x); }

  // Theorem 5.5: ctm iff every shard is split-free.
  bool IsCtm() const { return state_.AllShardsSplitFree(); }

  size_t jobs() const { return pool_->jobs(); }

 private:
  // The pool exists at every job count — BatchAnalyzer(1) spawns no
  // threads and runs batches inline — so the jobs-1 and jobs-N paths share
  // one code path and one counter profile (InsertStormIdenticalAtJobs1
  // AndJobs8 compares the deltas verbatim).
  explicit ShardedMaintainer(ShardedState state, size_t jobs)
      : state_(std::move(state)),
        pool_(std::make_unique<BatchAnalyzer>(jobs)) {}

  ShardedState state_;
  // Serializes InsertBatch callers: BatchAnalyzer::ForEachIndex is not
  // reentrant, and overlapping batches would interleave two shard
  // handouts. Behind a unique_ptr because the maintainer is move-
  // constructed out of Create. Acquired for the whole batch, so the
  // annotated pool_ below is only ever driven by one batch at a time.
  std::unique_ptr<Mutex> batch_mu_ = std::make_unique<Mutex>();
  std::unique_ptr<BatchAnalyzer> pool_;
};

}  // namespace ird

#endif  // IRD_CORE_SHARDED_MAINTAINER_H_
