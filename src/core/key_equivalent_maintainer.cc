#include "core/key_equivalent_maintainer.h"

namespace ird {

Result<PartialTuple> CheckInsertKeyEquivalent(
    const DatabaseScheme& scheme, const RepresentativeIndex& index,
    size_t rel, const PartialTuple& tuple, MaintenanceStats* stats,
    MaintainScratch* scratch) {
  return RunAlgorithm2(
      scheme, index.keys(), rel, tuple, stats, scratch,
      [&index](const AttributeSet& key, const PartialTuple& key_values)
          -> Result<const PartialTuple*> {
        return index.Lookup(key, key_values);
      });
}

}  // namespace ird
