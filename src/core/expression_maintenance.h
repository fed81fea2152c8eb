// The §3.2 machinery behind Theorem 3.2, verbatim: constraint enforcement
// for key-equivalent schemes through *predetermined relational expressions*
// on the raw state — no auxiliary index at all.
//
// For a key value t[K], the (unique) total tuple of the representative
// instance embedding it is found by evaluating the single-tuple conjunctive
// selections σ_{K='k'}(E_i) over the joins E_i of lossless subsets covering
// K, and taking the result of the greatest expression that returned a tuple
// (greater = defined on a superset of attributes; §3.2 proves the greatest
// nonempty one exists on consistent states). Algorithm 2 then runs
// unchanged with this lookup in place of the representative-instance probe.
//
// This module exists for fidelity and for the E3/E2 ablations; the indexed
// maintainers in key_equivalent_maintainer.h are the production engines.

#ifndef IRD_CORE_EXPRESSION_MAINTENANCE_H_
#define IRD_CORE_EXPRESSION_MAINTENANCE_H_

#include <optional>
#include <vector>

#include "core/key_equivalent_maintainer.h"
#include "relation/database_state.h"

namespace ird {

// The precompiled lookup plans for every key of a key-equivalent (sub)
// scheme: per key, the lossless subsets covering it, largest-first.
class ExpressionLookupPlan {
 public:
  // `pool` empty = all of R. The pool must be key-equivalent.
  static ExpressionLookupPlan Build(const DatabaseScheme& scheme,
                                    std::vector<size_t> pool = {});

  // The total tuple embedding `key_values` (a tuple on exactly `key`), or
  // nullopt if the representative instance has none. kInconsistent if the
  // state itself is locally inconsistent (a selection returned two tuples).
  Result<std::optional<PartialTuple>> LookupTotalTuple(
      const DatabaseState& state, const AttributeSet& key,
      const PartialTuple& key_values) const;

  const std::vector<size_t>& pool() const { return pool_; }
  // Distinct keys of the pool (lookup targets), in pool and declaration
  // order like RepresentativeIndex::keys().
  const std::vector<AttributeSet>& keys() const { return keys_; }
  // Number of lossless expressions precompiled for keys()[k].
  size_t ExpressionCount(size_t k) const { return subsets_[k].size(); }

 private:
  std::vector<size_t> pool_;
  std::vector<AttributeSet> keys_;
  // Per key: lossless subsets covering it, sorted by decreasing attribute
  // union (so the first nonempty evaluation is the greatest). Each subset
  // is stored in join order: the relation seeing the most key attributes
  // first, then ConnectedJoinOrder.
  std::vector<std::vector<std::vector<size_t>>> subsets_;
};

// Algorithm 2 with the §3.2 expression lookup (RunAlgorithm2, the worklist
// CheckInsertKeyEquivalent runs): decides whether state ∪ {tuple on
// scheme[rel]} is consistent. The state must be consistent. Returns the
// extended tuple q on yes, kInconsistent on no.
Result<PartialTuple> CheckInsertByExpressions(
    const DatabaseScheme& scheme, const ExpressionLookupPlan& plan,
    const DatabaseState& state, size_t rel, const PartialTuple& tuple,
    MaintenanceStats* stats = nullptr);

}  // namespace ird

#endif  // IRD_CORE_EXPRESSION_MAINTENANCE_H_
