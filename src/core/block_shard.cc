#include "core/block_shard.h"

#include "obs/obs.h"

namespace ird {

Result<BlockShard> BlockShard::Build(const DatabaseState& state,
                                     std::vector<size_t> pool,
                                     bool split_free,
                                     bool verify_consistency) {
  BlockShard shard;
  shard.substate_ = state.Restrict(pool);
  shard.pool_ = std::move(pool);
  shard.split_free_ = split_free;
  if (split_free) {
    IRD_RETURN_IF_ERROR(shard.substate_.IndexKeys(shard.pool_));
    if (verify_consistency) {
      Result<RepresentativeIndex> rep =
          RepresentativeIndex::Build(shard.substate_, shard.pool_);
      if (!rep.ok()) return rep.status();
    }
  } else {
    // Building the block representative instance chases the block substate,
    // which is also the consistency check.
    Result<RepresentativeIndex> rep =
        RepresentativeIndex::Build(shard.substate_, shard.pool_);
    if (!rep.ok()) return rep.status();
    shard.rep_index_ = std::move(rep).value();
  }
  return shard;
}

Result<PartialTuple> BlockShard::CheckInsert(size_t rel,
                                             const PartialTuple& tuple,
                                             MaintenanceStats* stats,
                                             MaintainScratch* scratch) const {
  if (split_free_) {
    ExtensionStats ext_stats;
    Result<PartialTuple> q =
        CheckInsertCtm(substate_, pool_, rel, tuple, &ext_stats, scratch);
    if (stats != nullptr) {
      stats->lookups += ext_stats.probes;
    }
    return q;
  }
  return CheckInsertKeyEquivalent(substate_.scheme(), *rep_index_, rel,
                                  tuple, stats, scratch);
}

Status BlockShard::Apply(size_t rel, const PartialTuple& tuple) {
  if (!substate_.mutable_relation(rel).AddUnique(tuple) || split_free_) {
    return OkStatus();
  }
  return rep_index_->InsertTuple(rel, tuple);
}

Status BlockShard::Insert(size_t rel, const PartialTuple& tuple,
                          MaintainScratch* scratch) {
  // End-to-end per-insert latency (check + apply), on top of the per-path
  // check histograms inside CheckInsertCtm / CheckInsertKeyEquivalent.
  IRD_HISTOGRAM_TIMER_NS(shard.insert_ns);
  Result<PartialTuple> q = CheckInsert(rel, tuple, nullptr, scratch);
  if (!q.ok()) return q.status();
  return Apply(rel, tuple);
}

}  // namespace ird
