#include "tableau/lossless.h"

#include "tableau/chase.h"

namespace ird {

bool IsLosslessSubset(const DatabaseScheme& scheme,
                      const std::vector<size_t>& subset,
                      const FdSet& ambient_fds) {
  if (subset.empty()) return false;
  Tableau t(scheme.universe().size());
  AttributeSet all;
  for (size_t i : subset) {
    t.AddSchemeRow(scheme.relation(i).attrs);
    all.UnionWith(scheme.relation(i).attrs);
  }
  ChaseStats stats = ChaseFds(&t, ambient_fds);
  IRD_CHECK_MSG(stats.consistent, "scheme tableaux cannot be inconsistent");
  for (size_t row = 0; row < t.row_count(); ++row) {
    if (all.IsSubsetOf(t.DvColumns(row))) return true;
  }
  return false;
}

bool IsLosslessSubset(const DatabaseScheme& scheme,
                      const std::vector<size_t>& subset) {
  return IsLosslessSubset(scheme, subset, scheme.key_dependencies());
}

namespace {

std::vector<size_t> SubsetOf(const std::vector<size_t>& pool, uint64_t mask) {
  std::vector<size_t> subset;
  for (size_t b = 0; b < pool.size(); ++b) {
    if ((mask >> b) & 1) subset.push_back(pool[b]);
  }
  return subset;
}

// The one enumeration: every nonempty subset of `pool`, as a bitmask over
// pool positions in increasing order, that covers x and is lossless.
std::vector<uint64_t> LosslessMasksCovering(const DatabaseScheme& scheme,
                                            const std::vector<size_t>& pool,
                                            const AttributeSet& x,
                                            const FdSet& ambient_fds) {
  IRD_CHECK_MSG(pool.size() <= kMaxLosslessSubsetPool,
                "lossless-subset enumeration is exponential; pool too large");
  std::vector<uint64_t> masks;
  for (uint64_t mask = 1; mask < (uint64_t{1} << pool.size()); ++mask) {
    std::vector<size_t> subset = SubsetOf(pool, mask);
    if (!x.IsSubsetOf(scheme.UnionAttrs(subset))) continue;
    if (IsLosslessSubset(scheme, subset, ambient_fds)) masks.push_back(mask);
  }
  return masks;
}

}  // namespace

std::vector<std::vector<size_t>> MinimalLosslessSubsetsCovering(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const AttributeSet& x, const FdSet& ambient_fds) {
  std::vector<uint64_t> masks =
      LosslessMasksCovering(scheme, pool, x, ambient_fds);
  // Keep only masks with no qualifying proper subset.
  std::vector<std::vector<size_t>> out;
  for (uint64_t mask : masks) {
    bool minimal = true;
    for (uint64_t other : masks) {
      if (other != mask && (other & mask) == other) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(SubsetOf(pool, mask));
  }
  return out;
}

std::vector<std::vector<size_t>> MinimalLosslessSubsetsCovering(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const AttributeSet& x) {
  return MinimalLosslessSubsetsCovering(scheme, pool, x,
                                        scheme.key_dependencies());
}

std::vector<std::vector<size_t>> AllLosslessSubsetsCovering(
    const DatabaseScheme& scheme, const std::vector<size_t>& pool,
    const AttributeSet& x, const FdSet& ambient_fds) {
  std::vector<std::vector<size_t>> out;
  for (uint64_t mask : LosslessMasksCovering(scheme, pool, x, ambient_fds)) {
    out.push_back(SubsetOf(pool, mask));
  }
  return out;
}

}  // namespace ird
