// DatabaseState: r = <r1, ..., rn>, one relation per relation scheme
// (paper §2.1). Owns a copy of its DatabaseScheme (schemes are small,
// cheaply copyable values sharing their Universe).

#ifndef IRD_RELATION_DATABASE_STATE_H_
#define IRD_RELATION_DATABASE_STATE_H_

#include <string_view>
#include <vector>

#include "relation/relation.h"
#include "schema/database_scheme.h"

namespace ird {

class DatabaseState {
 public:
  explicit DatabaseState(DatabaseScheme scheme);

  const DatabaseScheme& scheme() const { return scheme_; }
  const Universe& universe() const { return scheme_.universe(); }

  size_t relation_count() const { return relations_.size(); }
  const PartialRelation& relation(size_t i) const {
    IRD_CHECK(i < relations_.size());
    return relations_[i];
  }
  PartialRelation& mutable_relation(size_t i) {
    IRD_CHECK(i < relations_.size());
    return relations_[i];
  }
  const std::vector<PartialRelation>& relations() const { return relations_; }

  // Inserts a tuple (values in increasing-attribute order) into relation i.
  void Insert(size_t i, std::vector<Value> values);
  // Inserts into the relation named `name` (must exist).
  void Insert(std::string_view name, std::vector<Value> values);

  // Total number of tuples across all relations.
  size_t TupleCount() const;

  // The block substate r_pool of §4.2: a state on the same scheme holding
  // only the tuples of the relations in `pool` (every other relation stays
  // empty, so relation indices remain valid across the restriction).
  DatabaseState Restrict(const std::vector<size_t>& pool) const;

  // Indexes each relation of `pool` under its declared keys
  // (PartialRelation::IndexKeys): the access structure of Algorithm 4's
  // single-tuple selections. Fails with kInconsistent on a local key
  // violation.
  Status IndexKeys(const std::vector<size_t>& pool);

  // Replaces relation i's contents wholesale (the fan-in primitive for
  // reassembling a state from block substates). `rel.attrs()` must equal
  // the scheme's attribute set for relation i.
  void SetRelation(size_t i, PartialRelation rel);

  // A tuple on relation i's scheme built from raw values (not inserted).
  PartialTuple MakeTuple(size_t i, std::vector<Value> values) const {
    return PartialTuple(scheme_.relation(i).attrs, std::move(values));
  }

 private:
  DatabaseScheme scheme_;
  std::vector<PartialRelation> relations_;
};

}  // namespace ird

#endif  // IRD_RELATION_DATABASE_STATE_H_
