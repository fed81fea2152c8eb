// PartialRelation: a set of tuples all defined on the same attribute set.
// Serves both as the relations of a database state (attrs = a relation
// scheme) and as intermediate results of relational-algebra evaluation.
//
// Set semantics run through an open-addressing dedup index: a
// power-of-two table of row ids probed linearly from a hash-derived home
// slot, with one stored 64-bit hash per row. The table keeps at least
// twice as many slots as rows (load <= 1/2), so AddUnique and Contains
// are O(1) expected and SetEquals is O(n). Only the first copy of a tuple
// is indexed; later copies appended with Add are kept in tuples() but not
// entered into the table, so probe chains stay short.

#ifndef IRD_RELATION_RELATION_H_
#define IRD_RELATION_RELATION_H_

#include <cstdint>
#include <vector>

#include "base/attribute_set.h"
#include "fd/fd_set.h"
#include "relation/partial_tuple.h"

namespace ird {

class PartialRelation {
 public:
  PartialRelation() = default;
  explicit PartialRelation(AttributeSet attrs) : attrs_(std::move(attrs)) {}

  const AttributeSet& attrs() const { return attrs_; }
  // Rows in insertion order, duplicates added with Add included.
  const std::vector<PartialTuple>& tuples() const { return tuples_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  // Appends `tuple` (its attribute set must equal attrs()); duplicates are
  // allowed — use AddUnique for set semantics.
  void Add(PartialTuple tuple);

  // Appends only if not already present. Returns true if added. The
  // const& form copies the tuple only when it is new.
  bool AddUnique(const PartialTuple& tuple);
  bool AddUnique(PartialTuple&& tuple);

  // Convenience: tuple from raw values in increasing-attribute order.
  void Add(std::vector<Value> values) {
    Add(PartialTuple(attrs_, std::move(values)));
  }

  bool Contains(const PartialTuple& tuple) const;

  // Set-semantics equality (order-insensitive, duplicates collapse).
  bool SetEquals(const PartialRelation& other) const;

  // True iff the relation satisfies every FD of `fds` that is embedded in
  // attrs() (non-embedded FDs are ignored). Hash-based, O(n) per FD.
  bool Satisfies(const FdSet& fds) const;

  std::string ToString(const Universe& universe) const;

 private:
  // The slot holding the row equal to `tuple` (hash `h`), or else the
  // empty slot that ends its probe chain; kNoSlot while the table is
  // unallocated. Adds the slots inspected to *probes.
  size_t FindSlot(const PartialTuple& tuple, uint64_t h,
                  size_t* probes) const;
  // True iff `slot`, a FindSlot result, holds a row (the tuple's twin).
  bool Holds(size_t slot) const;
  // The first free slot on the probe path of hash `h`.
  size_t FreeSlot(uint64_t h) const;
  // Appends a row; when `index`, also enters it into the table at `slot`
  // (the empty slot FindSlot returned), growing the table first if the
  // row count would exceed half the capacity.
  template <typename T>
  void Append(T&& tuple, uint64_t h, bool index, size_t slot);
  template <typename T>
  bool InsertUnique(T&& tuple);
  void Grow();

  AttributeSet attrs_;
  std::vector<PartialTuple> tuples_;
  std::vector<uint64_t> hashes_;  // hashes_[row] == tuples_[row].Hash()
  std::vector<uint32_t> slots_;   // row ids; kEmptyRow marks a free slot
};

}  // namespace ird

#endif  // IRD_RELATION_RELATION_H_
