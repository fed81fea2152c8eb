#include "relation/database_state.h"

namespace ird {

DatabaseState::DatabaseState(DatabaseScheme scheme)
    : scheme_(std::move(scheme)) {
  relations_.reserve(scheme_.size());
  for (const RelationScheme& r : scheme_.relations()) {
    relations_.emplace_back(r.attrs);
  }
}

void DatabaseState::Insert(size_t i, std::vector<Value> values) {
  IRD_CHECK(i < relations_.size());
  relations_[i].Add(PartialTuple(scheme_.relation(i).attrs,
                                 std::move(values)));
}

void DatabaseState::Insert(std::string_view name,
                           std::vector<Value> values) {
  Result<size_t> idx = scheme_.FindRelation(name);
  IRD_CHECK_MSG(idx.ok(), "Insert into unknown relation");
  Insert(idx.value(), std::move(values));
}

DatabaseState DatabaseState::Restrict(
    const std::vector<size_t>& pool) const {
  DatabaseState out(scheme_);
  for (size_t i : pool) {
    IRD_CHECK(i < relations_.size());
    out.relations_[i] = relations_[i];
  }
  return out;
}

Status DatabaseState::IndexKeys(const std::vector<size_t>& pool) {
  for (size_t i : pool) {
    IRD_RETURN_IF_ERROR(
        mutable_relation(i).IndexKeys(scheme_.relation(i).keys));
  }
  return OkStatus();
}

void DatabaseState::SetRelation(size_t i, PartialRelation rel) {
  IRD_CHECK(i < relations_.size());
  IRD_CHECK(rel.attrs() == relations_[i].attrs());
  relations_[i] = std::move(rel);
}

size_t DatabaseState::TupleCount() const {
  size_t n = 0;
  for (const PartialRelation& r : relations_) {
    n += r.size();
  }
  return n;
}

}  // namespace ird
