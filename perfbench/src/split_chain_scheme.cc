#include <algorithm>

#include "maintain_common.h"

namespace perfbench {

using ird::AttributeId;
using ird::AttributeSet;
using ird::DatabaseScheme;
using ird::PartialTuple;
using ird::RelationScheme;
using ird::Value;

namespace {

void AddRelation(DatabaseScheme* scheme, const std::string& name,
                 const std::vector<AttributeId>& attrs,
                 const std::vector<std::vector<AttributeId>>& keys) {
  RelationScheme r;
  r.name = name;
  for (AttributeId a : attrs) r.attrs.Add(a);
  for (const std::vector<AttributeId>& key : keys) {
    AttributeSet k;
    for (AttributeId a : key) k.Add(a);
    r.keys.push_back(k);
  }
  scheme->AddRelation(std::move(r));
}

}  // namespace

DatabaseScheme MakeSplitChainScheme() {
  DatabaseScheme s = DatabaseScheme::Create();
  auto& u = *s.universe_ptr();
  AttributeId a = u.Intern("A");
  AttributeId e = u.Intern("E");
  AttributeId d = u.Intern("D");
  AttributeId b1 = u.Intern("B1");
  AttributeId b2 = u.Intern("B2");
  // Names are built with += throughout: GCC 12 reports a false -Wrestrict
  // on chained std::string operator+.
  AttributeId x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      std::string name = "X";
      name += std::to_string(i + 1);
      name += '_';
      name += std::to_string(j + 1);
      x[i][j] = u.Intern(name);
    }
  }
  // Example 5 with k = 2: the key B1B2 is split.
  AddRelation(&s, "RAE", {a, e}, {{a}, {e}});
  AddRelation(&s, "RAB1", {a, b1}, {{a}});
  AddRelation(&s, "REB1", {e, b1}, {{e}});
  AddRelation(&s, "RAB2", {a, b2}, {{a}});
  AddRelation(&s, "REB2", {e, b2}, {{e}});
  AddRelation(&s, "RBD", {b1, b2, d}, {{b1, b2}, {d}});
  AddRelation(&s, "RDA", {d, a}, {{d}, {a}});
  AddRelation(&s, "RAX1", {a, x[0][0]}, {{a}});
  for (int i = 0; i < 3; ++i) {
    auto name = [&](const char* suffix) {
      std::string n = "C";
      n += std::to_string(i + 1);
      n += suffix;
      return n;
    };
    AddRelation(&s, name("R1"), {x[i][0], x[i][1]}, {{x[i][0]}, {x[i][1]}});
    AddRelation(&s, name("R2"), {x[i][1], x[i][2]}, {{x[i][1]}, {x[i][2]}});
    if (i + 1 < 3) {
      AddRelation(&s, name("bridge"), {x[i][0], x[i + 1][0]}, {{x[i][0]}});
    }
  }
  return s;
}

std::string EntityModel::FromState(const ird::DatabaseState& state,
                                   size_t entities, EntityModel* out) {
  out->scheme_ = state.scheme();
  out->universe_size_ = state.universe().size();
  out->initial_ = entities;
  out->present_.assign(entities, 0);
  if (state.scheme().size() > 32) return "scheme has more than 32 relations";
  for (size_t rel = 0; rel < state.relation_count(); ++rel) {
    for (const PartialTuple& t : state.relation(rel).tuples()) {
      AttributeId first = t.attrs().First();
      size_t entity = out->EntityOf(t.At(first), first);
      if (entity >= entities) return "tuple value outside the entity range";
      bool matches = true;
      t.attrs().ForEach([&](AttributeId attr) {
        if (t.At(attr) != out->ValueOf(entity, attr)) matches = false;
      });
      if (!matches) {
        return "MakeConsistentState no longer gives each entity fresh values"
               " entity * |U| + attribute + 1";
      }
      out->MarkPresent(entity, rel);
    }
  }
  for (size_t e = 0; e < entities; ++e) {
    if (out->present_[e] == 0) return "an entity has no tuple";
  }
  return "";
}

size_t EntityModel::NewEntity() {
  present_.push_back(0);
  return present_.size() - 1;
}

PartialTuple EntityModel::Project(size_t entity, size_t rel) const {
  const AttributeSet& attrs = scheme_.relation(rel).attrs;
  std::vector<Value> values;
  values.reserve(attrs.Count());
  attrs.ForEach([&](AttributeId a) { values.push_back(ValueOf(entity, a)); });
  return PartialTuple(attrs, std::move(values));
}

OpGenerator::OpGenerator(EntityModel* model, double fresh, double extend,
                         uint64_t seed)
    : model_(model),
      fresh_(fresh),
      extend_(extend),
      rng_(seed),
      zipf_(model->initial_entities(), 0.99),
      rank_to_entity_(model->initial_entities()) {
  for (size_t i = 0; i < rank_to_entity_.size(); ++i) rank_to_entity_[i] = i;
}

size_t OpGenerator::DrawEntity() {
  if (draws_++ % kHotSetDraws == 0) {
    std::shuffle(rank_to_entity_.begin(), rank_to_entity_.end(), rng_);
  }
  return rank_to_entity_[zipf_(rng_)];
}

void OpGenerator::NextBatch(size_t n, std::vector<GenOp>* out) {
  out->clear();
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const size_t relations = model_->scheme().size();
  for (size_t i = 0; i < n; ++i) {
    GenOp op;
    double c = coin(rng_);
    if (c < fresh_) {
      op.kind = GenOp::Kind::kFresh;
      op.entity = model_->NewEntity();
      op.rel = rng_() % relations;
      op.tuple = model_->Project(op.entity, op.rel);
      model_->MarkPresent(op.entity, op.rel);
    } else if (c < fresh_ + extend_) {
      op.kind = GenOp::Kind::kExtend;
      op.entity = DrawEntity();
      op.rel = rng_() % relations;
      op.tuple = model_->Project(op.entity, op.rel);
      op.duplicate = model_->Present(op.entity, op.rel);
      model_->MarkPresent(op.entity, op.rel);
    } else {
      // Key values of the entity's tuple in `rel`, fresh values on the
      // other attributes: contradicts that tuple through the first key.
      op.kind = GenOp::Kind::kConflict;
      op.entity = DrawEntity();
      uint32_t mask = model_->PresentMask(op.entity);
      size_t pick = rng_() % static_cast<size_t>(__builtin_popcount(mask));
      for (op.rel = 0;; ++op.rel) {
        if (((mask >> op.rel) & 1u) && pick-- == 0) break;
      }
      PartialTuple own = model_->Project(op.entity, op.rel);
      PartialTuple fresh = model_->Project(model_->NewEntity(), op.rel);
      std::vector<Value> values = fresh.values();
      const AttributeSet& key = model_->scheme().relation(op.rel).keys.front();
      size_t idx = 0;
      own.attrs().ForEach([&](AttributeId a) {
        if (key.Contains(a)) values[idx] = own.At(a);
        ++idx;
      });
      op.tuple = PartialTuple(own.attrs(), std::move(values));
    }
    out->push_back(std::move(op));
  }
}

}  // namespace perfbench
