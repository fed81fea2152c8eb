#include "relation/partial_tuple.h"

namespace ird {

PartialTuple PartialTuple::Restrict(const AttributeSet& x) const {
  PartialTuple out;
  RestrictInto(x, &out);
  return out;
}

void PartialTuple::RestrictInto(const AttributeSet& x,
                                PartialTuple* out) const {
  IRD_CHECK_MSG(x.IsSubsetOf(attrs_), "restriction outside tuple's scheme");
  out->attrs_ = x;
  out->values_.clear();
  out->values_.reserve(x.Count());
  x.ForEach([&](AttributeId a) { out->values_.push_back(At(a)); });
}

bool PartialTuple::AgreesOn(const PartialTuple& other,
                            const AttributeSet& x) const {
  IRD_CHECK(x.IsSubsetOf(attrs_) && x.IsSubsetOf(other.attrs_));
  bool agree = true;
  x.ForEach([&](AttributeId a) {
    if (agree && At(a) != other.At(a)) agree = false;
  });
  return agree;
}

bool PartialTuple::JoinableWith(const PartialTuple& other) const {
  AttributeSet shared = attrs_.Intersect(other.attrs_);
  bool ok = true;
  shared.ForEach([&](AttributeId a) {
    if (ok && At(a) != other.At(a)) ok = false;
  });
  return ok;
}

std::optional<PartialTuple> PartialTuple::Join(
    const PartialTuple& other) const {
  PartialTuple out;
  if (!JoinInto(other, &out)) return std::nullopt;
  return out;
}

bool PartialTuple::JoinInto(const PartialTuple& other,
                            PartialTuple* out) const {
  if (!JoinableWith(other)) return false;
  out->attrs_ = attrs_;
  out->attrs_.UnionWith(other.attrs_);
  out->values_.clear();
  out->values_.reserve(out->attrs_.Count());
  out->attrs_.ForEach([&](AttributeId a) {
    out->values_.push_back(attrs_.Contains(a) ? At(a) : other.At(a));
  });
  return true;
}

size_t PartialTuple::Hash() const {
  uint64_t h = attrs_.Hash();
  for (Value v : values_) {
    h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return static_cast<size_t>(h);
}

uint64_t PartialTuple::HashOn(const AttributeSet& x) const {
  IRD_CHECK_MSG(x.IsSubsetOf(attrs_), "hash outside tuple's scheme");
  uint64_t h = 1469598103934665603ull;
  x.ForEach([&](AttributeId a) {
    h ^= static_cast<uint64_t>(values_[attrs_.Rank(a)]) +
         0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  });
  return h;
}

std::string PartialTuple::ToString(const Universe& universe) const {
  std::string out = "<";
  bool first = true;
  attrs_.ForEach([&](AttributeId a) {
    if (!first) out += ",";
    out += universe.Name(a) + "=" + std::to_string(At(a));
    first = false;
  });
  out += ">";
  return out;
}

}  // namespace ird
