#include "relation/relation.h"

#include "obs/obs.h"

namespace ird {

size_t PartialRelation::FindSlot(const PartialTuple& tuple, uint64_t h,
                                 size_t* probes) const {
  return dedup_.Find(
      h,
      [&](uint32_t row) { return hashes_[row] == h && tuples_[row] == tuple; },
      probes);
}

uint32_t PartialRelation::IndexRow(KeyTable& table, uint32_t row) const {
  const PartialTuple& tuple = tuples_[row];
  const uint64_t h = tuple.HashOn(table.key);
  const size_t slot = table.rows.Find(h, [&](uint32_t r) {
    return tuples_[r].AgreesOn(tuple, table.key);
  });
  const uint32_t holder = table.rows.RowAt(slot);
  if (holder != RowTable::kNoRow) return holder;
  table.rows.Insert(slot, row, h, [&](uint32_t r) {
    return tuples_[r].HashOn(table.key);
  });
  return row;
}

template <typename T>
void PartialRelation::Append(T&& tuple, uint64_t h, bool index,
                             size_t slot) {
  IRD_CHECK_MSG(size() < RowTable::kNoRow, "relation exceeds 2^32 - 1 rows");
  const uint32_t row = static_cast<uint32_t>(size());
  tuples_.push_back(std::forward<T>(tuple));
  hashes_.push_back(h);
  if (!index) return;
  dedup_.Insert(slot, row, h, [&](uint32_t r) { return hashes_[r]; });
  for (KeyTable& table : keys_) IndexRow(table, row);
}

void PartialRelation::Add(PartialTuple tuple) {
  IRD_CHECK_MSG(tuple.attrs() == attrs_,
                "tuple attribute set must match the relation's");
  const uint64_t h = tuple.Hash();
  const size_t slot = FindSlot(tuple, h, nullptr);
  Append(std::move(tuple), h, dedup_.RowAt(slot) == RowTable::kNoRow, slot);
}

template <typename T>
bool PartialRelation::InsertUnique(T&& tuple) {
  IRD_CHECK_MSG(tuple.attrs() == attrs_,
                "tuple attribute set must match the relation's");
  const uint64_t h = tuple.Hash();
  size_t probes = 0;
  const size_t slot = FindSlot(tuple, h, &probes);
  IRD_COUNT_ADD(relation.dedup_probes, probes);
  if (dedup_.RowAt(slot) != RowTable::kNoRow) return false;
  Append(std::forward<T>(tuple), h, true, slot);
  return true;
}

bool PartialRelation::AddUnique(const PartialTuple& tuple) {
  return InsertUnique(tuple);
}

bool PartialRelation::AddUnique(PartialTuple&& tuple) {
  return InsertUnique(std::move(tuple));
}

bool PartialRelation::Contains(const PartialTuple& tuple) const {
  size_t probes = 0;
  const size_t slot = FindSlot(tuple, tuple.Hash(), &probes);
  IRD_COUNT_ADD(relation.dedup_probes, probes);
  return dedup_.RowAt(slot) != RowTable::kNoRow;
}

Status PartialRelation::IndexKeys(const std::vector<AttributeSet>& keys) {
  keys_.clear();
  for (const AttributeSet& key : keys) {
    IRD_CHECK_MSG(key.IsSubsetOf(attrs_), "key outside the relation scheme");
    keys_.push_back(KeyTable{key, {}});
  }
  for (KeyTable& table : keys_) {
    for (uint32_t row = 0; row < size(); ++row) {
      const uint32_t holder = IndexRow(table, row);
      if (holder != row && tuples_[holder] != tuples_[row]) {
        keys_.clear();
        return Inconsistent("key violation inside one relation");
      }
    }
  }
  return OkStatus();
}

const PartialTuple* PartialRelation::FindByKey(
    const AttributeSet& key, const PartialTuple& tuple) const {
  for (const KeyTable& table : keys_) {
    if (table.key != key) continue;
    const uint32_t row = table.rows.RowAt(
        table.rows.Find(tuple.HashOn(key), [&](uint32_t r) {
          return tuples_[r].AgreesOn(tuple, key);
        }));
    return row == RowTable::kNoRow ? nullptr : &tuples_[row];
  }
  IRD_CHECK_MSG(false, "FindByKey with a key the relation does not index");
  return nullptr;
}

bool PartialRelation::SetEquals(const PartialRelation& other) const {
  if (attrs_ != other.attrs_) return false;
  for (size_t row = 0; row < size(); ++row) {
    if (other.dedup_.RowAt(other.FindSlot(tuples_[row], hashes_[row],
                                          nullptr)) == RowTable::kNoRow) {
      return false;
    }
  }
  for (size_t row = 0; row < other.size(); ++row) {
    if (dedup_.RowAt(FindSlot(other.tuples_[row], other.hashes_[row],
                              nullptr)) == RowTable::kNoRow) {
      return false;
    }
  }
  return true;
}

bool PartialRelation::Satisfies(const FdSet& fds) const {
  for (const FunctionalDependency& fd : fds.fds()) {
    if (!fd.IsEmbeddedIn(attrs_) || fd.IsTrivial()) continue;
    // Each row must agree on the right side with the first row holding
    // its left-side value.
    KeyTable holders{fd.lhs, {}};
    for (uint32_t row = 0; row < size(); ++row) {
      if (!tuples_[IndexRow(holders, row)].AgreesOn(tuples_[row], fd.rhs)) {
        return false;
      }
    }
  }
  return true;
}

std::string PartialRelation::ToString(const Universe& universe) const {
  std::string out = "{";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuples_[i].ToString(universe);
  }
  out += "}";
  return out;
}

}  // namespace ird
