#include "core/augmentation.h"

namespace ird {

Status Augment(DatabaseScheme* scheme, std::string name,
               const AttributeSet& attrs) {
  if (attrs.Empty()) {
    return InvalidArgument("augmentation scheme must be nonempty");
  }
  bool inside_some = false;
  for (const RelationScheme& r : scheme->relations()) {
    if (attrs.IsSubsetOf(r.attrs)) {
      inside_some = true;
      break;
    }
  }
  if (!inside_some) {
    return InvalidArgument(
        "augmentation scheme must be a subset of an existing relation");
  }
  RelationScheme added;
  added.name = std::move(name);
  added.attrs = attrs;
  // Keys embedded in the new scheme, if any.
  for (const AttributeSet& key : scheme->DistinctKeys()) {
    if (key.IsSubsetOf(attrs)) added.keys.push_back(key);
  }
  if (added.keys.empty()) {
    // Case 1 of Theorem 4.3: S embeds no key of R; its only key is itself.
    added.keys.push_back(attrs);
  }
  scheme->AddRelation(std::move(added));
  return OkStatus();
}

DatabaseScheme Reduce(const DatabaseScheme& scheme) {
  DatabaseScheme reduced(scheme.universe_ptr());
  for (size_t i = 0; i < scheme.size(); ++i) {
    const RelationScheme& r = scheme.relation(i);
    bool drop = false;
    for (size_t j = 0; j < scheme.size() && !drop; ++j) {
      if (i == j) continue;
      const AttributeSet& other = scheme.relation(j).attrs;
      if (r.attrs.IsProperSubsetOf(other)) drop = true;
      if (r.attrs == other && j < i) drop = true;  // duplicate, keep first
    }
    if (!drop) reduced.AddRelation(r);
  }
  return reduced;
}

}  // namespace ird
