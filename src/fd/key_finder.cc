#include "fd/key_finder.h"

#include "fd/closure_engine.h"

namespace ird {

namespace {

// Generates all subsets of attrs[0..n) of size `k` and calls `fn` on each;
// stops early if `fn` returns false.
template <typename Fn>
bool ForEachSubsetOfSize(const AttributeId* attrs, size_t n, size_t k,
                         Fn&& fn) {
  if (k > n) return true;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    AttributeSet subset;
    for (size_t i : idx) subset.Add(attrs[i]);
    if (!fn(subset)) return false;
    // Advance the combination.
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return true;
    }
    if (k == 0) return true;
  }
}

}  // namespace

bool IsCandidateKey(const AttributeSet& key, const AttributeSet& scheme,
                    const FdSet& fds) {
  if (key.Empty() || !key.IsSubsetOf(scheme)) return false;
  ClosureEngine f(fds);
  if (!f.Implies(key, scheme)) return false;
  bool minimal = true;
  key.ForEach([&](AttributeId a) {
    if (!minimal) return;
    AttributeSet smaller = key;
    smaller.Remove(a);
    if (f.Implies(smaller, scheme)) minimal = false;
  });
  return minimal;
}

AttributeSet ReduceToKey(const AttributeSet& superkey,
                         const AttributeSet& scheme, const FdSet& fds) {
  ClosureEngine f(fds);
  IRD_CHECK_MSG(f.Implies(superkey, scheme),
                "ReduceToKey: input is not a superkey");
  AttributeSet key = superkey;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    // Iterating key directly (no ToVector temporary) is safe only because
    // `break` immediately follows the mutation of key — the iterator is
    // never advanced past the assignment.
    for (AttributeId a : key) {
      AttributeSet smaller = key;
      smaller.Remove(a);
      if (!smaller.Empty() && f.Implies(smaller, scheme)) {
        key = smaller;
        shrunk = true;
        break;
      }
    }
  }
  return key;
}

std::vector<AttributeSet> FindCandidateKeys(const AttributeSet& scheme,
                                            const FdSet& fds) {
  IRD_CHECK_MSG(scheme.Count() <= 24,
                "candidate-key enumeration is exponential; scheme too large");
  // The ≤24 guard above bounds the stack buffer.
  AttributeId attrs[24];
  size_t n = 0;
  scheme.ForEach([&](AttributeId a) { attrs[n++] = a; });
  ClosureEngine f(fds);
  std::vector<AttributeSet> keys;
  // Enumerate by increasing size; a set is a candidate key iff it determines
  // the scheme and contains no previously found (smaller or equal) key.
  for (size_t k = 1; k <= n; ++k) {
    ForEachSubsetOfSize(attrs, n, k, [&](const AttributeSet& subset) {
      for (const AttributeSet& key : keys) {
        if (key.IsSubsetOf(subset)) return true;  // not minimal
      }
      if (f.Implies(subset, scheme)) {
        keys.push_back(subset);
      }
      return true;
    });
  }
  return keys;
}

}  // namespace ird
