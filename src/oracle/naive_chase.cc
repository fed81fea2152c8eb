#include "oracle/naive_chase.h"

#include <set>
#include <utility>
#include <vector>

#include "relation/weak_instance.h"

namespace ird::oracle {

bool NaiveChase(Tableau* t, const FdSet& fds) {
  const size_t n = t->row_count();
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionalDependency& fd : fds.fds()) {
      std::vector<AttributeId> lhs = fd.lhs.ToVector();
      std::vector<AttributeId> rhs = fd.rhs.ToVector();
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          bool agree = true;
          for (AttributeId a : lhs) {
            if (t->Cell(i, a) != t->Cell(j, a)) {
              agree = false;
              break;
            }
          }
          if (!agree) continue;
          for (AttributeId b : rhs) {
            SymId x = t->Cell(i, b);
            SymId y = t->Cell(j, b);
            if (x == y) continue;
            if (!t->Equate(x, y)) return false;
            changed = true;
          }
        }
      }
    }
  }
  return true;
}

bool IsConsistentNaive(const DatabaseState& state) {
  Tableau t = StateTableau(state);
  return NaiveChase(&t, state.scheme().key_dependencies());
}

Result<PartialRelation> TotalProjectionNaive(const DatabaseState& state,
                                             const AttributeSet& x) {
  Tableau t = StateTableau(state);
  if (!NaiveChase(&t, state.scheme().key_dependencies())) {
    return Inconsistent("state has no weak instance");
  }
  // Dedup through a std container, not AddUnique: the engines' results
  // are built on PartialRelation's dedup index, which this oracle judges.
  std::set<std::vector<Value>> seen;
  PartialRelation out(x);
  for (size_t row = 0; row < t.row_count(); ++row) {
    if (!t.TotalOn(row, x)) continue;
    std::vector<Value> values = t.ValuesOn(row, x);
    if (seen.insert(values).second) {
      out.Add(PartialTuple(x, std::move(values)));
    }
  }
  return out;
}

bool WouldRemainConsistentNaive(const DatabaseState& state, size_t rel,
                                const PartialTuple& tuple) {
  Tableau t = StateTableau(state);
  t.AddTupleRow(state.scheme().relation(rel).attrs, tuple.values());
  return NaiveChase(&t, state.scheme().key_dependencies());
}

bool IsLosslessNaive(const DatabaseScheme& scheme) {
  Tableau t = SchemeTableau(scheme);
  IRD_CHECK_MSG(NaiveChase(&t, scheme.key_dependencies()),
                "scheme tableaux cannot be inconsistent");
  AttributeSet all = scheme.AllAttrs();
  for (size_t row = 0; row < t.row_count(); ++row) {
    if (all.IsSubsetOf(t.DvColumns(row))) return true;
  }
  return false;
}

}  // namespace ird::oracle
