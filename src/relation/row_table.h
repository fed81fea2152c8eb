// RowTable: the open-addressing index behind every unique lookup by value
// in the library — a relation's dedup index and its key indexes, and the
// representative instance's key indexes. A power-of-two table of uint32_t
// row ids probed linearly from a Fibonacci-hashed home slot, kept at load
// <= 1/2 with at least kMinSlots slots, so a lookup is O(1) expected.
//
// The table stores row ids only. Its owner holds the rows and passes, per
// call, the probe's 64-bit hash and an equality test on row ids, plus a
// row id -> hash function for re-entering the rows when the table grows.

#ifndef IRD_RELATION_ROW_TABLE_H_
#define IRD_RELATION_ROW_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace ird {

class RowTable {
 public:
  // The row id of a free slot; also RowAt's answer when a slot holds none.
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  // Walks the probe path of hash `h`: the slot of the first row `same`
  // accepts, or else the free slot that ends the path (a slot RowAt maps
  // to kNoRow while the table is unallocated). Adds the slots inspected
  // to *probes when `probes` is given.
  template <typename Same>
  size_t Find(uint64_t h, const Same& same, size_t* probes = nullptr) const {
    if (slots_.empty()) return 0;
    const size_t mask = slots_.size() - 1;
    for (size_t slot = HomeSlot(h);; slot = (slot + 1) & mask) {
      if (probes != nullptr) ++*probes;
      const uint32_t row = slots_[slot];
      if (row == kNoRow || same(row)) return slot;
    }
  }

  // The row a Find result holds, or kNoRow.
  uint32_t RowAt(size_t slot) const {
    return slot < slots_.size() ? slots_[slot] : kNoRow;
  }

  // Enters `row` at `slot`, the free slot Find returned for hash `h`. When
  // the entry would lift the load above 1/2, the table first grows to
  // twice its entries (at least kMinSlots) and re-enters every row at the
  // hash `hash_of(row)` gives.
  template <typename HashOf>
  void Insert(size_t slot, uint32_t row, uint64_t h, const HashOf& hash_of) {
    ++entries_;
    if (2 * entries_ > slots_.size()) {
      std::vector<uint32_t> old = std::move(slots_);
      slots_.assign(std::max(kMinSlots, std::bit_ceil(2 * entries_)), kNoRow);
      for (uint32_t r : old) {
        if (r != kNoRow) slots_[Find(hash_of(r), Never)] = r;
      }
      slot = Find(h, Never);
    }
    slots_[slot] = row;
  }

  // Points a slot that holds a row at `row` instead, which must agree with
  // the row it displaces wherever the owner's equality test looks.
  void Replace(size_t slot, uint32_t row) { slots_[slot] = row; }

 private:
  static constexpr size_t kMinSlots = 16;

  static bool Never(uint32_t) { return false; }

  // Fibonacci hashing: the top bits of h * 2^64/phi pick the home slot, so
  // hashes whose low bits cluster still spread over the table.
  size_t HomeSlot(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ull) >>
                               (64 - std::countr_zero(slots_.size())));
  }

  std::vector<uint32_t> slots_;
  size_t entries_ = 0;
};

}  // namespace ird

#endif  // IRD_RELATION_ROW_TABLE_H_
