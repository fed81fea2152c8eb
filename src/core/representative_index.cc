#include "core/representative_index.h"

#include <optional>

#include "core/key_equivalence.h"

namespace ird {

Result<RepresentativeIndex> RepresentativeIndex::Build(
    const DatabaseState& state, std::vector<size_t> pool) {
  pool = state.scheme().PoolOrAll(pool);
  IRD_CHECK_MSG(IsKeyEquivalentSubset(state.scheme(), pool),
                "RepresentativeIndex requires a key-equivalent (sub)scheme");
  RepresentativeIndex idx;
  idx.keys_ = state.scheme().DistinctKeys(pool);
  idx.tables_.resize(idx.keys_.size());
  for (size_t i : pool) {
    for (const PartialTuple& tuple : state.relation(i).tuples()) {
      IRD_RETURN_IF_ERROR(idx.InsertTuple(i, tuple));
    }
  }
  return idx;
}

size_t RepresentativeIndex::FindSlot(size_t k, const PartialTuple& t) const {
  const AttributeSet& key = keys_[k];
  return tables_[k].Find(t.HashOn(key), [&](uint32_t row) {
    return rows_[row].AgreesOn(t, key);
  });
}

Status RepresentativeIndex::Settle(uint32_t row) {
  size_t k = 0;
  while (k < keys_.size()) {
    const AttributeSet& key = keys_[k];
    if (!key.IsSubsetOf(rows_[row].attrs())) {
      ++k;
      continue;
    }
    const size_t slot = FindSlot(k, rows_[row]);
    const uint32_t other = tables_[k].RowAt(slot);
    if (other == RowTable::kNoRow) {
      tables_[k].Insert(slot, row, rows_[row].HashOn(key), [&](uint32_t r) {
        return rows_[r].HashOn(key);
      });
    }
    if (other == RowTable::kNoRow || other == row) {
      ++k;
      continue;
    }
    IRD_CHECK_MSG(alive_[other], "a key table holds a merged-away row");
    // fd-rule: the two rows agree on a key; since any key determines ∪S
    // (key-equivalence), their shared constants must all agree, and they
    // collapse into one row on the union of their columns.
    std::optional<PartialTuple> joined = rows_[row].Join(rows_[other]);
    if (!joined.has_value()) {
      return Inconsistent(
          "two tuples agree on a key but clash on a shared attribute");
    }
    // The merged-away row's slots pass to `row`, which now agrees with it
    // on each of its keys. No other live row holds those key values, so
    // `row` was entered under none of them before.
    for (size_t k2 = 0; k2 < keys_.size(); ++k2) {
      if (keys_[k2].IsSubsetOf(rows_[other].attrs())) {
        tables_[k2].Replace(FindSlot(k2, rows_[other]), row);
      }
    }
    alive_[other] = false;
    rows_[row] = std::move(*joined);
    k = 0;  // `row` grew: probe its keys again
  }
  return OkStatus();
}

Status RepresentativeIndex::InsertTuple(size_t /*rel*/,
                                        const PartialTuple& tuple) {
  for (size_t k = 0; k < keys_.size(); ++k) {
    if (!keys_[k].IsSubsetOf(tuple.attrs())) continue;
    const uint32_t row = tables_[k].RowAt(FindSlot(k, tuple));
    if (row == RowTable::kNoRow) continue;
    std::optional<PartialTuple> joined = rows_[row].Join(tuple);
    if (!joined.has_value()) {
      return Inconsistent(
          "two tuples agree on a key but clash on a shared attribute");
    }
    // A row that did not grow agrees with no other live row on any key.
    if (joined->attrs() == rows_[row].attrs()) return OkStatus();
    rows_[row] = std::move(*joined);
    return Settle(row);
  }
  IRD_CHECK_MSG(rows_.size() < RowTable::kNoRow,
                "representative instance exceeds 2^32 - 1 rows");
  rows_.push_back(tuple);
  alive_.push_back(true);
  return Settle(static_cast<uint32_t>(rows_.size() - 1));
}

std::vector<const PartialTuple*> RepresentativeIndex::Rows() const {
  std::vector<const PartialTuple*> out;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (alive_[i]) out.push_back(&rows_[i]);
  }
  return out;
}

const PartialTuple* RepresentativeIndex::Lookup(
    const AttributeSet& key, const PartialTuple& key_values) const {
  IRD_CHECK_MSG(key_values.attrs() == key,
                "Lookup values must be a tuple on exactly the key");
  for (size_t k = 0; k < keys_.size(); ++k) {
    if (keys_[k] != key) continue;
    const uint32_t row = tables_[k].RowAt(FindSlot(k, key_values));
    return row == RowTable::kNoRow ? nullptr : &rows_[row];
  }
  IRD_CHECK_MSG(false, "Lookup with a key not embedded in the scheme");
  return nullptr;
}

PartialRelation RepresentativeIndex::TotalProjection(
    const AttributeSet& x) const {
  PartialRelation out(x);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (alive_[i] && x.IsSubsetOf(rows_[i].attrs())) {
      out.AddUnique(rows_[i].Restrict(x));
    }
  }
  return out;
}

size_t RepresentativeIndex::RowCount() const {
  size_t n = 0;
  for (bool a : alive_) n += a ? 1 : 0;
  return n;
}

}  // namespace ird
