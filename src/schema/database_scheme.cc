#include "schema/database_scheme.h"

#include <numeric>
#include <unordered_set>

#include "fd/closure_engine.h"

namespace ird {

std::string RelationScheme::ToString(const Universe& universe) const {
  std::string out = name + "(" + universe.Format(attrs) + ") keys ";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += universe.Format(keys[i]);
  }
  return out;
}

size_t DatabaseScheme::AddRelation(RelationScheme scheme) {
  IRD_CHECK_MSG(!scheme.attrs.Empty(), "relation scheme must be nonempty");
  IRD_CHECK_MSG(!scheme.keys.empty(),
                "relation scheme must declare at least one key");
  for (const AttributeSet& key : scheme.keys) {
    IRD_CHECK_MSG(!key.Empty(), "keys must be nonempty");
    IRD_CHECK_MSG(key.IsSubsetOf(scheme.attrs),
                  "key must be a subset of its scheme");
  }
  fds_.AddAll(scheme.KeyDependencies());
  relations_.push_back(std::move(scheme));
  ++revision_;
  return relations_.size() - 1;
}

size_t DatabaseScheme::AddRelation(
    std::string name, std::string_view attr_letters,
    std::initializer_list<std::string_view> key_letters) {
  RelationScheme scheme;
  scheme.name = std::move(name);
  scheme.attrs = universe_->Chars(attr_letters);
  for (std::string_view key : key_letters) {
    scheme.keys.push_back(universe_->Chars(key));
  }
  return AddRelation(std::move(scheme));
}

Result<size_t> DatabaseScheme::FindRelation(std::string_view name) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name == name) return i;
  }
  return NotFound("no relation named '" + std::string(name) + "'");
}

FdSet DatabaseScheme::KeyDependenciesOf(
    const std::vector<size_t>& indices) const {
  FdSet out;
  for (size_t i : indices) {
    IRD_CHECK(i < relations_.size());
    out.AddAll(relations_[i].KeyDependencies());
  }
  return out;
}

FdSet DatabaseScheme::KeyDependenciesExcept(size_t excluded) const {
  FdSet out;
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (i != excluded) out.AddAll(relations_[i].KeyDependencies());
  }
  return out;
}

AttributeSet DatabaseScheme::UnionAttrs(
    const std::vector<size_t>& indices) const {
  AttributeSet out;
  for (size_t i : indices) {
    IRD_CHECK(i < relations_.size());
    out.UnionWith(relations_[i].attrs);
  }
  return out;
}

AttributeSet DatabaseScheme::AllAttrs() const {
  AttributeSet out;
  for (const RelationScheme& r : relations_) {
    out.UnionWith(r.attrs);
  }
  return out;
}

std::vector<std::pair<size_t, AttributeSet>> DatabaseScheme::AllKeys() const {
  std::vector<std::pair<size_t, AttributeSet>> out;
  std::unordered_set<AttributeSet, AttributeSetHash> seen;
  for (size_t i = 0; i < relations_.size(); ++i) {
    for (const AttributeSet& key : relations_[i].keys) {
      if (seen.insert(key).second) {
        out.emplace_back(i, key);
      }
    }
  }
  return out;
}

std::vector<size_t> DatabaseScheme::PoolOrAll(
    const std::vector<size_t>& pool) const {
  if (!pool.empty()) return pool;
  std::vector<size_t> all(relations_.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

std::vector<AttributeSet> DatabaseScheme::DistinctKeys(
    const std::vector<size_t>& pool) const {
  std::vector<size_t> all;
  const std::vector<size_t>& p = pool.empty() ? (all = PoolOrAll()) : pool;
  std::vector<AttributeSet> distinct;
  std::unordered_set<AttributeSet, AttributeSetHash> seen;
  for (size_t i : p) {
    for (const AttributeSet& key : relation(i).keys) {
      if (seen.insert(key).second) distinct.push_back(key);
    }
  }
  return distinct;
}

Status DatabaseScheme::Validate() const {
  if (relations_.empty()) {
    return InvalidArgument("database scheme has no relations");
  }
  if (AllAttrs() != universe_->All()) {
    return InvalidArgument(
        "the union of the relation schemes must equal the universe");
  }
  ClosureEngine f(fds_);
  for (size_t i = 0; i < relations_.size(); ++i) {
    const RelationScheme& r = relations_[i];
    for (const AttributeSet& key : r.keys) {
      // K -> r.attrs holds by construction; minimality must hold wrt the
      // *global* F (paper §2.3: "no proper subset of K has this property").
      bool minimal = true;
      key.ForEach([&](AttributeId a) {
        if (!minimal) return;
        AttributeSet smaller = key;
        smaller.Remove(a);
        if (!smaller.Empty() && f.Implies(smaller, r.attrs)) minimal = false;
      });
      if (!minimal) {
        return InvalidArgument("declared key " + universe_->Format(key) +
                               " of " + r.name +
                               " is not minimal wrt the key dependencies");
      }
    }
    for (size_t j = i + 1; j < relations_.size(); ++j) {
      if (relations_[j].attrs == r.attrs) {
        return InvalidArgument("relations " + r.name + " and " +
                               relations_[j].name +
                               " have identical attribute sets");
      }
    }
  }
  return OkStatus();
}

bool DatabaseScheme::IsBcnf() const {
  ClosureEngine f(fds_);
  for (const RelationScheme& r : relations_) {
    if (FindBcnfViolation(r, f).has_value()) return false;
  }
  return true;
}

std::optional<BcnfViolation> FindBcnfViolation(const RelationScheme& r,
                                               const ClosureEngine& f) {
  IRD_CHECK_MSG(r.attrs.Count() <= DatabaseScheme::kMaxBcnfAttrs,
                "BCNF test is exponential; scheme too large");
  std::vector<AttributeId> attrs = r.attrs.ToVector();
  const size_t n = attrs.size();
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    AttributeSet x;
    for (size_t b = 0; b < n; ++b) {
      if ((mask >> b) & 1) x.Add(attrs[b]);
    }
    AttributeSet closure = f.Closure(x);
    if (!closure.Intersect(r.attrs).Minus(x).Empty() &&
        !r.attrs.IsSubsetOf(closure)) {
      return BcnfViolation{std::move(x), std::move(closure)};
    }
  }
  return std::nullopt;
}

std::string DatabaseScheme::ToString() const {
  std::string out;
  for (const RelationScheme& r : relations_) {
    out += r.ToString(*universe_);
    out += "\n";
  }
  return out;
}

}  // namespace ird
