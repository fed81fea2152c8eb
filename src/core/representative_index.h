// Algorithm 1 (paper §3.1) as an incremental engine: the representative
// instance of a consistent state on a key-equivalent database scheme,
// maintained as a set of partial tuples ("rows" = the constant components of
// the chased tableau's rows; the ndv's are implicit and all distinct, per
// Corollary 3.1(a)) with a RowTable per distinct key over the live rows.
//
// Invariants at rest (the paper's loop-termination conditions):
//   * no two rows agree on a key (Lemma 3.2(c) + step (2) deduplication);
//   * every row's constant component is derivable by a join of a lossless
//     subset of S (Lemma 3.2(b)).

#ifndef IRD_CORE_REPRESENTATIVE_INDEX_H_
#define IRD_CORE_REPRESENTATIVE_INDEX_H_

#include <vector>

#include "base/status.h"
#include "relation/database_state.h"
#include "relation/row_table.h"

namespace ird {

class RepresentativeIndex {
 public:
  // Builds the representative instance of `state`, which must live on a
  // key-equivalent (sub)scheme. `pool` restricts to a block of R (empty =
  // all relations); keys and tuples outside the pool are ignored — this is
  // how Section 4 runs Algorithm 1 per partition block. Fails with
  // kInconsistent when the substate has no weak instance.
  static Result<RepresentativeIndex> Build(const DatabaseState& state,
                                           std::vector<size_t> pool = {});

  // The distinct keys of the pool's relations, in pool and declaration
  // order — Algorithm 2's key worklist universe.
  const std::vector<AttributeSet>& keys() const { return keys_; }

  // All live rows (total tuples of the representative instance restricted
  // to their constant columns).
  std::vector<const PartialTuple*> Rows() const;

  // The unique row total on `key` with the given key values, if any.
  // `key_values` must be a tuple on exactly `key`. Uniqueness is Lemma
  // 3.2(c). O(1) expected.
  const PartialTuple* Lookup(const AttributeSet& key,
                             const PartialTuple& key_values) const;

  // Inserts one more tuple of relation `rel` and re-establishes the
  // invariants (the incremental form of Algorithm 1's while loop): a
  // tuple agreeing with a live row on a key joins into that row, any
  // other starts a row of its own. Fails with kInconsistent if the
  // enlarged state has no weak instance; the index is left unusable in
  // that case (rebuild to recover).
  Status InsertTuple(size_t rel, const PartialTuple& tuple);

  // The X-total tuples of the representative instance, deduplicated — the
  // ground-truth [X] for the block (paper §2.5). Subsumed rows contribute
  // nothing extra, so scanning live rows suffices.
  PartialRelation TotalProjection(const AttributeSet& x) const;

  // Number of live rows.
  size_t RowCount() const;

 private:
  RepresentativeIndex() = default;

  // The slot of tables_[k] holding the live row that agrees with `t` on
  // keys_[k] (t must be total on it), or else the free slot ending its
  // probe path.
  size_t FindSlot(size_t k, const PartialTuple& t) const;
  // Enters live row `row` into the table of every key it is total on,
  // merging into it each live row that agrees with it on one of them.
  Status Settle(uint32_t row);

  std::vector<AttributeSet> keys_;
  // tables_[k]: every live row total on keys_[k], one per key value.
  std::vector<RowTable> tables_;
  std::vector<PartialTuple> rows_;
  std::vector<bool> alive_;
};

}  // namespace ird

#endif  // IRD_CORE_REPRESENTATIVE_INDEX_H_
