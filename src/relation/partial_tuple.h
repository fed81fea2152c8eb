// PartialTuple: a total tuple defined on a subset of the universe — the
// paper's "X-total tuple". Ordinary relation tuples are the special case
// where the subset is the relation scheme.

#ifndef IRD_RELATION_PARTIAL_TUPLE_H_
#define IRD_RELATION_PARTIAL_TUPLE_H_

#include <optional>
#include <string>
#include <vector>

#include "base/attribute_set.h"
#include "base/universe.h"
#include "tableau/tableau.h"

namespace ird {

class PartialTuple {
 public:
  PartialTuple() = default;

  // A tuple over `attrs`; `values` aligned with the attributes in
  // increasing-id order.
  PartialTuple(AttributeSet attrs, std::vector<Value> values)
      : attrs_(std::move(attrs)), values_(std::move(values)) {
    IRD_CHECK_MSG(attrs_.Count() == values_.size(),
                  "tuple arity must match its attribute set");
  }

  const AttributeSet& attrs() const { return attrs_; }
  const std::vector<Value>& values() const { return values_; }
  size_t arity() const { return values_.size(); }
  bool Empty() const { return values_.empty(); }

  // True iff the tuple is defined on attribute a.
  bool DefinedOn(AttributeId a) const { return attrs_.Contains(a); }
  bool DefinedOnAll(const AttributeSet& x) const {
    return x.IsSubsetOf(attrs_);
  }

  // The value at attribute a (must be defined).
  Value At(AttributeId a) const {
    IRD_CHECK_MSG(attrs_.Contains(a), "tuple not defined on attribute");
    return values_[attrs_.Rank(a)];
  }

  // t[X]: the restriction to X, which must be ⊆ attrs().
  PartialTuple Restrict(const AttributeSet& x) const;

  // Scratch-reusing form of Restrict: overwrites *out, reusing its value
  // buffer. `out` must not alias this.
  void RestrictInto(const AttributeSet& x, PartialTuple* out) const;

  // True iff this and `other` have equal values on every attribute of x
  // (both must be defined on all of x).
  bool AgreesOn(const PartialTuple& other, const AttributeSet& x) const;

  // True iff this and `other` agree on every shared attribute.
  bool JoinableWith(const PartialTuple& other) const;

  // Natural join of two joinable tuples: defined on the union of their
  // attribute sets. Returns nullopt if they clash on a shared attribute —
  // the "q := q ⋈ v is empty" tests of Algorithms 2 and 5.
  std::optional<PartialTuple> Join(const PartialTuple& other) const;

  // Scratch-reusing form of Join: on success overwrites *out (reusing its
  // value buffer) and returns true; returns false on a clash, leaving *out
  // unspecified. `out` must alias neither operand.
  bool JoinInto(const PartialTuple& other, PartialTuple* out) const;

  bool operator==(const PartialTuple& other) const {
    return attrs_ == other.attrs_ && values_ == other.values_;
  }
  bool operator!=(const PartialTuple& other) const {
    return !(*this == other);
  }

  size_t Hash() const;

  // Hash of the tuple's values on x (which must be ⊆ attrs()), equal for
  // any two tuples that agree on x whatever their other attributes: the
  // key of the hash joins, key indexes and FD checks, computed in place
  // instead of on a Restrict() temporary.
  uint64_t HashOn(const AttributeSet& x) const;

  // "<A=1,B=7>" with universe names.
  std::string ToString(const Universe& universe) const;

 private:
  AttributeSet attrs_;
  std::vector<Value> values_;
};

struct PartialTupleHash {
  size_t operator()(const PartialTuple& t) const { return t.Hash(); }
};

}  // namespace ird

#endif  // IRD_RELATION_PARTIAL_TUPLE_H_
