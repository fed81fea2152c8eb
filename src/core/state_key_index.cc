#include "core/state_key_index.h"

#include <numeric>

namespace ird {

Result<StateKeyIndex> StateKeyIndex::Build(const DatabaseState& state,
                                           std::vector<size_t> pool) {
  if (pool.empty()) {
    pool.resize(state.relation_count());
    std::iota(pool.begin(), pool.end(), 0);
  }
  StateKeyIndex idx;
  idx.pool_ = pool;
  for (size_t rel : pool) {
    PerRelation pr;
    pr.rel = rel;
    for (const AttributeSet& key : state.scheme().relation(rel).keys) {
      pr.keys.push_back(PerKey{key, {}});
    }
    idx.relations_.push_back(std::move(pr));
  }
  for (size_t rel : pool) {
    for (const PartialTuple& tuple : state.relation(rel).tuples()) {
      IRD_RETURN_IF_ERROR(idx.AddTuple(rel, tuple));
    }
  }
  return idx;
}

const StateKeyIndex::PerRelation* StateKeyIndex::FindRelation(
    size_t rel) const {
  for (const PerRelation& pr : relations_) {
    if (pr.rel == rel) return &pr;
  }
  return nullptr;
}

const PartialTuple* StateKeyIndex::Probe(size_t rel, const AttributeSet& key,
                                         const PartialTuple& tuple) const {
  const PerRelation* pr = FindRelation(rel);
  IRD_CHECK_MSG(pr != nullptr, "Probe on a relation outside the pool");
  for (const PerKey& pk : pr->keys) {
    if (pk.key != key) continue;
    auto it = pk.map.find(tuple.HashOn(key));
    if (it == pk.map.end()) return nullptr;
    for (const PartialTuple& candidate : it->second) {
      if (candidate.AgreesOn(tuple, key)) return &candidate;
    }
    return nullptr;
  }
  IRD_CHECK_MSG(false, "Probe with an undeclared key");
  return nullptr;
}

Status StateKeyIndex::AddTuple(size_t rel, const PartialTuple& tuple) {
  PerRelation* pr = nullptr;
  for (PerRelation& candidate : relations_) {
    if (candidate.rel == rel) {
      pr = &candidate;
      break;
    }
  }
  IRD_CHECK_MSG(pr != nullptr, "AddTuple on a relation outside the pool");
  // Verify against every key first, then install, so a failure leaves the
  // index unchanged.
  for (const PerKey& pk : pr->keys) {
    auto it = pk.map.find(tuple.HashOn(pk.key));
    if (it == pk.map.end()) continue;
    for (const PartialTuple& existing : it->second) {
      if (existing.AgreesOn(tuple, pk.key) && existing != tuple) {
        return Inconsistent("key violation inside one relation");
      }
      if (existing == tuple) return OkStatus();  // duplicate, set semantics
    }
  }
  for (PerKey& pk : pr->keys) {
    pk.map[tuple.HashOn(pk.key)].push_back(tuple);
    ++indexed_entries_;
  }
  return OkStatus();
}

}  // namespace ird
