// Relational-algebra expressions over a database state: base relations,
// natural joins, projections, conjunctive selections and unions — the
// operator set the paper's bounded expressions are built from (extension
// joins and sequential joins, §2.6; single-tuple conjunctive selections,
// §2.7; unions of projections of joins of lossless subsets, §3.1).
//
// Expressions are immutable trees shared via shared_ptr; a join fixes its
// members' order when it is built (ConnectedJoinOrder), and evaluation is
// hash-join based and reads base relations in place.

#ifndef IRD_ALGEBRA_EXPRESSION_H_
#define IRD_ALGEBRA_EXPRESSION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/attribute_set.h"
#include "relation/database_state.h"

namespace ird {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

// One conjunct A = 'a' of a conjunctive selection formula (paper §2.7).
struct EqualityAtom {
  AttributeId attr;
  Value value;
};

class Expression {
 public:
  enum class Kind {
    kBase,     // a relation of the state
    kProject,  // π_X(child)
    kJoin,     // child_1 ⋈ ... ⋈ child_k (natural join, left-to-right in
               // connected order, fixed at construction)
    kSelect,   // σ_Φ(child), Φ a conjunctive formula
    kUnion,    // child_1 ∪ ... ∪ child_k (same output attributes)
  };

  // Factories. All children must be non-null. Join stores its children in
  // ConnectedJoinOrder of their output attributes.
  static ExprPtr Base(size_t relation_index, AttributeSet relation_attrs);
  static ExprPtr Project(AttributeSet attrs, ExprPtr child);
  static ExprPtr Join(std::vector<ExprPtr> children);
  static ExprPtr Select(std::vector<EqualityAtom> formula, ExprPtr child);
  static ExprPtr Union(std::vector<ExprPtr> children);

  Kind kind() const { return kind_; }
  size_t relation_index() const { return relation_index_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const std::vector<EqualityAtom>& formula() const { return formula_; }

  // The attribute set of the expression's output.
  const AttributeSet& output_attrs() const { return output_attrs_; }

  // Number of operator nodes — the "size of the expression" that
  // boundedness requires to be state-independent.
  size_t NodeCount() const;

  std::string ToString(const DatabaseScheme& scheme) const;

 private:
  Expression() = default;

  Kind kind_ = Kind::kBase;
  size_t relation_index_ = 0;
  AttributeSet output_attrs_;
  std::vector<ExprPtr> children_;
  std::vector<EqualityAtom> formula_;
};

// The connected order of a join's members, given their attribute sets:
// member 0 first, then repeatedly the first remaining member, in the given
// order, that shares an attribute with those already placed, or the first
// remaining member when none does. An order that is already connected is
// returned unchanged. Returns the member indices in join order.
std::vector<size_t> ConnectedJoinOrder(
    const std::vector<AttributeSet>& members);

// Evaluates `expr` against base relations read in place: relation i of
// the plan is *relations[i], which must be non-null for every relation the
// expression reads (the others may be null). No base relation is copied,
// except when `expr` is itself a bare base relation. All tuples in a state
// are total, so projection and restricted projection coincide here.
PartialRelation Evaluate(const Expression& expr,
                         const std::vector<const PartialRelation*>& relations);

// Evaluates `expr` against `state`'s relations, borrowed as above.
PartialRelation Evaluate(const Expression& expr, const DatabaseState& state);

// Natural join of two relations (hash join on the shared attributes).
PartialRelation NaturalJoin(const PartialRelation& left,
                            const PartialRelation& right);

}  // namespace ird

#endif  // IRD_ALGEBRA_EXPRESSION_H_
