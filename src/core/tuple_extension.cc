#include "core/tuple_extension.h"

#include <utility>

namespace ird {

Result<PartialTuple> ExtendTuple(const DatabaseState& state,
                                 const std::vector<size_t>& pool,
                                 const PartialTuple& seed,
                                 ExtensionStats* stats,
                                 MaintainScratch* scratch) {
  MaintainScratch local_scratch;
  MaintainScratch* s = scratch != nullptr ? scratch : &local_scratch;
  PartialTuple t = seed;
  // Step (2): while some tuple p of some si has a key Ki ⊆ C with
  // p[Ki] = t'[Ki] and Si - C ≠ ∅, absorb p. A (relation, key) probe that
  // missed can never hit later (C only grows, the state is fixed), so each
  // pair is probed at most once per growth epoch; we simply rescan until a
  // full pass makes no progress — the number of passes is at most the
  // number of relations in the pool.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t rel : pool) {
      const RelationScheme& r = state.scheme().relation(rel);
      if (r.attrs.IsSubsetOf(t.attrs())) continue;  // Si - C = ∅
      for (const AttributeSet& key : r.keys) {
        if (!key.IsSubsetOf(t.attrs())) continue;
        if (stats != nullptr) ++stats->probes;
        const PartialTuple* p = state.relation(rel).FindByKey(key, t);
        if (p == nullptr) continue;
        // Step (3): t'[Si] := p[Si]; C := C ∪ Si. On a consistent state the
        // shared attributes agree; a clash means the state itself is
        // inconsistent.
        if (!t.JoinInto(*p, &s->joined)) {
          return Inconsistent(
              "state tuples disagree on chase-equated attributes");
        }
        // Swap rather than move so t's displaced buffer becomes the next
        // join target.
        std::swap(t, s->joined);
        if (stats != nullptr) ++stats->extensions;
        changed = true;
        break;
      }
      if (changed) break;
    }
  }
  return t;
}

}  // namespace ird
