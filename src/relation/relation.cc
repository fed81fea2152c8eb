#include "relation/relation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "obs/obs.h"

namespace ird {

namespace {

constexpr uint32_t kEmptyRow = std::numeric_limits<uint32_t>::max();
constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();
constexpr size_t kMinSlots = 16;

// Fibonacci hashing: the top bits of h * 2^64/phi pick the home slot, so
// tuple hashes whose low bits cluster still spread over the table.
size_t HomeSlot(uint64_t h, size_t capacity) {
  return static_cast<size_t>((h * 0x9e3779b97f4a7c15ull) >>
                             (64 - std::countr_zero(capacity)));
}

}  // namespace

size_t PartialRelation::FindSlot(const PartialTuple& tuple, uint64_t h,
                                 size_t* probes) const {
  if (slots_.empty()) return kNoSlot;
  const size_t mask = slots_.size() - 1;
  for (size_t slot = HomeSlot(h, slots_.size());; slot = (slot + 1) & mask) {
    ++*probes;
    uint32_t row = slots_[slot];
    if (row == kEmptyRow ||
        (hashes_[row] == h && tuples_[row] == tuple)) {
      return slot;
    }
  }
}

bool PartialRelation::Holds(size_t slot) const {
  return slot != kNoSlot && slots_[slot] != kEmptyRow;
}

size_t PartialRelation::FreeSlot(uint64_t h) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = HomeSlot(h, slots_.size());
  while (slots_[slot] != kEmptyRow) slot = (slot + 1) & mask;
  return slot;
}

void PartialRelation::Grow() {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, std::bit_ceil(2 * size())), kEmptyRow);
  for (uint32_t row : old) {
    if (row != kEmptyRow) slots_[FreeSlot(hashes_[row])] = row;
  }
}

template <typename T>
void PartialRelation::Append(T&& tuple, uint64_t h, bool index,
                             size_t slot) {
  IRD_CHECK_MSG(size() < kEmptyRow, "relation exceeds 2^32 - 1 rows");
  const uint32_t row = static_cast<uint32_t>(size());
  tuples_.push_back(std::forward<T>(tuple));
  hashes_.push_back(h);
  if (!index) return;
  if (2 * size() > slots_.size()) {
    Grow();
    slot = FreeSlot(h);
  }
  slots_[slot] = row;
}

void PartialRelation::Add(PartialTuple tuple) {
  IRD_CHECK_MSG(tuple.attrs() == attrs_,
                "tuple attribute set must match the relation's");
  const uint64_t h = tuple.Hash();
  size_t probes = 0;
  const size_t slot = FindSlot(tuple, h, &probes);
  Append(std::move(tuple), h, !Holds(slot), slot);
}

template <typename T>
bool PartialRelation::InsertUnique(T&& tuple) {
  IRD_CHECK_MSG(tuple.attrs() == attrs_,
                "tuple attribute set must match the relation's");
  const uint64_t h = tuple.Hash();
  size_t probes = 0;
  const size_t slot = FindSlot(tuple, h, &probes);
  IRD_COUNT_ADD(relation.dedup_probes, probes);
  if (Holds(slot)) return false;
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
  return Holds(slot);
}

bool PartialRelation::SetEquals(const PartialRelation& other) const {
  if (attrs_ != other.attrs_) return false;
  size_t probes = 0;
  for (size_t row = 0; row < size(); ++row) {
    if (!other.Holds(other.FindSlot(tuples_[row], hashes_[row], &probes))) {
      return false;
    }
  }
  for (size_t row = 0; row < other.size(); ++row) {
    if (!Holds(FindSlot(other.tuples_[row], other.hashes_[row], &probes))) {
      return false;
    }
  }
  return true;
}

bool PartialRelation::Satisfies(const FdSet& fds) const {
  for (const FunctionalDependency& fd : fds.fds()) {
    if (!fd.IsEmbeddedIn(attrs_) || fd.IsTrivial()) continue;
    AttributeSet rhs = fd.rhs.Minus(fd.lhs);
    // Map lhs values -> rows; any rhs disagreement is a violation.
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    for (size_t i = 0; i < tuples_.size(); ++i) {
      auto& bucket = buckets[tuples_[i].HashOn(fd.lhs)];
      for (size_t j : bucket) {
        if (tuples_[j].AgreesOn(tuples_[i], fd.lhs) &&
            !tuples_[j].AgreesOn(tuples_[i], rhs)) {
          return false;
        }
      }
      bucket.push_back(i);
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
