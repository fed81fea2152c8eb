// PartialRelation: a set of tuples all defined on the same attribute set.
// Serves both as the relations of a database state (attrs = a relation
// scheme) and as intermediate results of relational-algebra evaluation.
//
// Set semantics run through a dedup index, a RowTable keyed by one stored
// 64-bit hash per row, so AddUnique and Contains are O(1) expected and
// SetEquals is O(n). Only the first copy of a tuple is indexed; later
// copies appended with Add are kept in tuples() but not entered into the
// table, so probe chains stay short.
//
// A relation of a database state can also index its declared keys
// (IndexKeys): one RowTable per key, mapping each key value to the first
// row holding it. These answer the single-tuple selections σ_{K='k'}(S)
// of Algorithm 4 in O(1) expected time, in place on the relation.

#ifndef IRD_RELATION_RELATION_H_
#define IRD_RELATION_RELATION_H_

#include <cstdint>
#include <vector>

#include "base/attribute_set.h"
#include "base/status.h"
#include "fd/fd_set.h"
#include "relation/partial_tuple.h"
#include "relation/row_table.h"

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
  // allowed — use AddUnique for set semantics. A new tuple is entered into
  // every key table whose key value no earlier row holds.
  void Add(PartialTuple tuple);

  // Appends only if not already present, keeping the key tables current
  // as Add does. Returns true if added. The const& form copies the tuple
  // only when it is new.
  bool AddUnique(const PartialTuple& tuple);
  bool AddUnique(PartialTuple&& tuple);

  // Convenience: tuple from raw values in increasing-attribute order.
  void Add(std::vector<Value> values) {
    Add(PartialTuple(attrs_, std::move(values)));
  }

  bool Contains(const PartialTuple& tuple) const;

  // Replaces the key tables with one per key of `keys` (each ⊆ attrs()),
  // holding every row. Fails with kInconsistent, keeping no key tables,
  // when two distinct rows agree on a key: a local key violation.
  Status IndexKeys(const std::vector<AttributeSet>& keys);

  // The first row agreeing with `tuple` on `key`, one of the keys passed
  // to IndexKeys (`tuple` must be defined on all of it, and may carry
  // other attributes); nullptr if none. O(1) expected.
  const PartialTuple* FindByKey(const AttributeSet& key,
                                const PartialTuple& tuple) const;

  // Set-semantics equality (order-insensitive, duplicates collapse).
  bool SetEquals(const PartialRelation& other) const;

  // True iff the relation satisfies every FD of `fds` that is embedded in
  // attrs() (non-embedded FDs are ignored). Checks each FD through a table
  // of the first row holding each left-side value: O(n) expected per FD.
  bool Satisfies(const FdSet& fds) const;

  std::string ToString(const Universe& universe) const;

 private:
  struct KeyTable {
    AttributeSet key;
    RowTable rows;  // the first row holding each value on `key`
  };

  // The dedup slot holding the row equal to `tuple` (hash `h`), or else
  // the free slot that ends its probe path. Adds the slots inspected to
  // *probes when `probes` is given.
  size_t FindSlot(const PartialTuple& tuple, uint64_t h,
                  size_t* probes) const;
  // Enters `row` into `table` unless an earlier row holds its key value;
  // returns the row that holds it afterwards.
  uint32_t IndexRow(KeyTable& table, uint32_t row) const;
  // Appends a row; when `index`, also enters it into the dedup table at
  // `slot` (the free slot FindSlot returned) and into the key tables.
  template <typename T>
  void Append(T&& tuple, uint64_t h, bool index, size_t slot);
  template <typename T>
  bool InsertUnique(T&& tuple);

  AttributeSet attrs_;
  std::vector<PartialTuple> tuples_;
  std::vector<uint64_t> hashes_;  // hashes_[row] == tuples_[row].Hash()
  RowTable dedup_;
  std::vector<KeyTable> keys_;
};

}  // namespace ird

#endif  // IRD_RELATION_RELATION_H_
