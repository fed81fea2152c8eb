#include "core/sharded_state.h"

#include "base/mutex.h"
#include "core/split.h"
#include "engine/scheme_analysis.h"
#include "obs/obs.h"

namespace ird {

namespace {

void CollectBaseRelations(const Expression& expr, std::vector<size_t>* out) {
  if (expr.kind() == Expression::Kind::kBase) {
    out->push_back(expr.relation_index());
    return;
  }
  for (const ExprPtr& child : expr.children()) {
    CollectBaseRelations(*child, out);
  }
}

}  // namespace

Result<ShardedState> ShardedState::Create(DatabaseState state,
                                          bool verify_consistency) {
  // One analysis serves recognition and every per-block split test; the
  // scheme is copied out of it before the analysis dies.
  SchemeAnalysis analysis(state.scheme());
  RecognitionResult recognition = RecognizeIndependenceReducible(analysis);
  if (!recognition.accepted) {
    return FailedPrecondition(
        "scheme is not independence-reducible: " +
        recognition.violation->ToString(*recognition.induced));
  }
  ShardedState sharded;
  sharded.scheme_ = state.scheme();
  sharded.recognition_ = std::move(recognition);
  sharded.rel_to_block_.assign(state.scheme().size(), 0);
  IRD_COUNT_ADD(shard.blocks, sharded.recognition_.partition.size());
  for (size_t b = 0; b < sharded.recognition_.partition.size(); ++b) {
    const std::vector<size_t>& pool = sharded.recognition_.partition[b];
    for (size_t rel : pool) {
      sharded.rel_to_block_[rel] = b;
    }
    Result<BlockShard> shard = BlockShard::Build(
        state, pool, IsSplitFree(analysis, pool), verify_consistency);
    if (!shard.ok()) return shard.status();
    sharded.shards_.push_back(std::move(shard).value());
  }
  return sharded;
}

bool ShardedState::AllShardsSplitFree() const {
  for (const BlockShard& shard : shards_) {
    if (!shard.split_free()) return false;
  }
  return true;
}

size_t ShardedState::TupleCount() const {
  size_t n = 0;
  for (const BlockShard& shard : shards_) {
    n += shard.TupleCount();
  }
  return n;
}

DatabaseState ShardedState::Materialize() const {
  DatabaseState out(scheme_);
  for (const BlockShard& shard : shards_) {
    for (size_t rel : shard.pool()) {
      out.SetRelation(rel, shard.substate().relation(rel));
    }
  }
  return out;
}

ExprPtr ShardedState::PlanFor(const AttributeSet& x) {
  {
    MutexLock lock(*plans_mu_);
    auto it = plans_.find(x);
    if (it != plans_.end()) return it->second;
  }
  // Compile outside the lock so concurrent readers are not serialized
  // behind plan compilation; emplace hands a losing racer the winner's
  // (identical) plan.
  ExprPtr plan = BuildBoundedProjectionExpr(scheme_, recognition_, x);
  MutexLock lock(*plans_mu_);
  return plans_.emplace(x, std::move(plan)).first->second;
}

PartialRelation ShardedState::TotalProjection(const AttributeSet& x) {
  IRD_SPAN("shard.query");
  ExprPtr plan = PlanFor(x);
  if (plan == nullptr) return PartialRelation(x);

  // Route the plan: each base relation is read in place from the shard
  // that owns it, and no other relation is visible to the evaluation.
  std::vector<size_t> bases;
  CollectBaseRelations(*plan, &bases);
  std::vector<const PartialRelation*> relations(scheme_.size(), nullptr);
  bool cross_block = false;
  for (size_t rel : bases) {
    relations[rel] = &shards_[rel_to_block_[rel]].substate().relation(rel);
    cross_block |= rel_to_block_[rel] != rel_to_block_[bases.front()];
  }
  if (cross_block) IRD_COUNT(shard.cross_block_queries);
  return Evaluate(*plan, relations);
}

}  // namespace ird
