#include "core/split_witness.h"

#include "core/key_equivalence.h"
#include "core/split.h"

namespace ird {

namespace {

// Fresh-value generators for the two universal tuples of the construction.
Value T1Value(AttributeId a) { return 10000 + static_cast<Value>(a); }
Value TQValue(AttributeId a) { return 20000 + static_cast<Value>(a); }

PartialTuple ProjectOnto(const AttributeSet& attrs, const AttributeSet& key,
                         bool from_t1) {
  std::vector<Value> values;
  values.reserve(attrs.Count());
  attrs.ForEach([&](AttributeId a) {
    // t_q agrees with t_1 exactly on K.
    values.push_back(from_t1 || key.Contains(a) ? T1Value(a) : TQValue(a));
  });
  return PartialTuple(attrs, std::move(values));
}

}  // namespace

Result<SplitWitness> BuildSplitWitness(const DatabaseScheme& scheme,
                                       const AttributeSet& key,
                                       std::vector<size_t> pool) {
  pool = scheme.PoolOrAll(pool);
  IRD_CHECK_MSG(IsKeyEquivalentSubset(scheme, pool),
                "split witness requires a key-equivalent (sub)scheme");
  // --- The covering fragments S_l: a partial computation over W (the
  // schemes not containing K) that covers K without any member containing
  // it (Lemma 3.8's witness sequence).
  std::vector<size_t> s_l = CoveringFragments(scheme, key, pool);
  if (s_l.empty()) {
    return FailedPrecondition("key is not split; no witness exists");
  }
  AttributeSet u_l = scheme.UnionAttrs(s_l);

  // --- The S_q sequence: a partial computation of S_p+ (S_p ⊇ K) whose
  // prefix avoids U_l - K and whose last element meets it.
  AttributeSet forbidden = u_l.Minus(key);
  size_t s_p = static_cast<size_t>(-1);
  for (size_t i : pool) {
    if (key.IsSubsetOf(scheme.relation(i).attrs)) {
      s_p = i;
      break;
    }
  }
  IRD_CHECK_MSG(s_p != static_cast<size_t>(-1),
                "a split key is a key of some scheme");
  std::vector<size_t> prefix;  // S_q1 .. S_qp
  size_t last = s_p;
  if (scheme.relation(s_p).attrs.Intersects(forbidden)) {
    // p = 0: u lives on S_p itself; no s'_q fragments.
  } else {
    prefix.push_back(s_p);
    AttributeSet closure = scheme.relation(s_p).attrs;
    bool found = false;
    while (!found) {
      // Prefer an applicable scheme meeting U_l - K (it terminates the
      // sequence); otherwise absorb a disjoint applicable one.
      int disjoint_choice = -1;
      for (size_t j : pool) {
        const RelationScheme& sj = scheme.relation(j);
        if (sj.attrs.IsSubsetOf(closure)) continue;
        if (!sj.ContainsKey(closure)) continue;
        if (sj.attrs.Intersects(forbidden)) {
          last = j;
          found = true;
          break;
        }
        if (disjoint_choice < 0) disjoint_choice = static_cast<int>(j);
      }
      if (found) break;
      // Key-equivalence guarantees the closure reaches ∪pool ⊇ U_l - K, so
      // some step must eventually meet it; absorb and continue.
      IRD_CHECK_MSG(disjoint_choice >= 0,
                    "computation stalled before reaching U_l - K");
      prefix.push_back(static_cast<size_t>(disjoint_choice));
      closure.UnionWith(
          scheme.relation(static_cast<size_t>(disjoint_choice)).attrs);
    }
  }

  // --- Assemble the state.
  SplitWitness witness{DatabaseState(scheme)};
  for (size_t rel : s_l) {
    witness.state.mutable_relation(rel).AddUnique(
        ProjectOnto(scheme.relation(rel).attrs, key, /*from_t1=*/true));
  }
  for (size_t rel : prefix) {
    witness.state.mutable_relation(rel).AddUnique(
        ProjectOnto(scheme.relation(rel).attrs, key, /*from_t1=*/false));
  }
  witness.covering_relations = s_l;
  witness.insert_rel = last;
  witness.insert =
      ProjectOnto(scheme.relation(last).attrs, key, /*from_t1=*/false);
  return witness;
}

}  // namespace ird
