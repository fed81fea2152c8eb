#include "algebra/expression.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/obs.h"

namespace ird {

ExprPtr Expression::Base(size_t relation_index, AttributeSet relation_attrs) {
  auto e = std::make_shared<Expression>(Expression());
  e->kind_ = Kind::kBase;
  e->relation_index_ = relation_index;
  e->output_attrs_ = std::move(relation_attrs);
  return e;
}

ExprPtr Expression::Project(AttributeSet attrs, ExprPtr child) {
  IRD_CHECK(child != nullptr);
  IRD_CHECK_MSG(attrs.IsSubsetOf(child->output_attrs()),
                "projection attributes must come from the child");
  auto e = std::make_shared<Expression>(Expression());
  e->kind_ = Kind::kProject;
  e->output_attrs_ = std::move(attrs);
  e->children_.push_back(std::move(child));
  return e;
}

ExprPtr Expression::Join(std::vector<ExprPtr> children) {
  IRD_CHECK_MSG(!children.empty(), "join of zero expressions");
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expression>(Expression());
  e->kind_ = Kind::kJoin;
  std::vector<AttributeSet> members;
  members.reserve(children.size());
  for (const ExprPtr& c : children) {
    IRD_CHECK(c != nullptr);
    members.push_back(c->output_attrs());
    e->output_attrs_.UnionWith(c->output_attrs());
  }
  e->children_.reserve(children.size());
  for (size_t i : ConnectedJoinOrder(members)) {
    e->children_.push_back(std::move(children[i]));
  }
  return e;
}

ExprPtr Expression::Select(std::vector<EqualityAtom> formula, ExprPtr child) {
  IRD_CHECK(child != nullptr);
  for (const EqualityAtom& atom : formula) {
    IRD_CHECK_MSG(child->output_attrs().Contains(atom.attr),
                  "selection attribute must come from the child");
  }
  auto e = std::make_shared<Expression>(Expression());
  e->kind_ = Kind::kSelect;
  e->output_attrs_ = child->output_attrs();
  e->children_.push_back(std::move(child));
  e->formula_ = std::move(formula);
  return e;
}

ExprPtr Expression::Union(std::vector<ExprPtr> children) {
  IRD_CHECK_MSG(!children.empty(), "union of zero expressions");
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expression>(Expression());
  e->kind_ = Kind::kUnion;
  e->output_attrs_ = children[0]->output_attrs();
  for (const ExprPtr& c : children) {
    IRD_CHECK(c != nullptr);
    IRD_CHECK_MSG(c->output_attrs() == e->output_attrs_,
                  "union branches must have equal output attributes");
  }
  e->children_ = std::move(children);
  return e;
}

size_t Expression::NodeCount() const {
  size_t n = 1;
  for (const ExprPtr& c : children_) {
    n += c->NodeCount();
  }
  return n;
}

std::string Expression::ToString(const DatabaseScheme& scheme) const {
  switch (kind_) {
    case Kind::kBase:
      return scheme.relation(relation_index_).name;
    case Kind::kProject:
      return "π[" + scheme.universe().Format(output_attrs_) + "](" +
             children_[0]->ToString(scheme) + ")";
    case Kind::kJoin: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " ⋈ ";
        out += children_[i]->ToString(scheme);
      }
      return out + ")";
    }
    case Kind::kSelect: {
      std::string out = "σ[";
      for (size_t i = 0; i < formula_.size(); ++i) {
        if (i > 0) out += " ∧ ";
        out += scheme.universe().Name(formula_[i].attr) + "=" +
               std::to_string(formula_[i].value);
      }
      return out + "](" + children_[0]->ToString(scheme) + ")";
    }
    case Kind::kUnion: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " ∪ ";
        out += children_[i]->ToString(scheme);
      }
      return out + ")";
    }
  }
  return "?";
}

std::vector<size_t> ConnectedJoinOrder(
    const std::vector<AttributeSet>& members) {
  const size_t n = members.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  AttributeSet joined;
  while (order.size() < n) {
    size_t next = n;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      if (next == n) next = i;  // the first remaining member
      if (members[i].Intersects(joined)) {
        next = i;
        break;
      }
    }
    placed[next] = true;
    joined.UnionWith(members[next]);
    order.push_back(next);
  }
  return order;
}

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

using Relations = std::vector<const PartialRelation*>;

// Evaluates `expr`, reading base relations in place: a kBase node returns
// the borrowed relation itself; any other node fills *storage and returns
// it. Each node flushes its counters once.
const PartialRelation& EvaluateNode(const Expression& expr,
                                    const Relations& relations,
                                    PartialRelation* storage) {
  size_t intermediate_rows = 0;
  switch (expr.kind()) {
    case Expression::Kind::kBase: {
      IRD_CHECK(expr.relation_index() < relations.size());
      const PartialRelation* base = relations[expr.relation_index()];
      IRD_CHECK_MSG(base != nullptr, "plan reads a relation not provided");
      return *base;
    }
    case Expression::Kind::kProject: {
      PartialRelation child_storage;
      const PartialRelation& child =
          EvaluateNode(*expr.children()[0], relations, &child_storage);
      *storage = PartialRelation(expr.output_attrs());
      PartialTuple row;
      for (const PartialTuple& t : child.tuples()) {
        t.RestrictInto(expr.output_attrs(), &row);
        storage->AddUnique(row);
      }
      break;
    }
    case Expression::Kind::kJoin: {
      PartialRelation first_storage;
      const PartialRelation* acc =
          &EvaluateNode(*expr.children()[0], relations, &first_storage);
      size_t build_rows = 0;
      size_t probe_rows = 0;
      for (size_t i = 1; i < expr.children().size(); ++i) {
        PartialRelation child_storage;
        const PartialRelation& child =
            EvaluateNode(*expr.children()[i], relations, &child_storage);
        // NaturalJoin builds on the smaller side and probes with the other.
        build_rows += std::min(acc->size(), child.size());
        probe_rows += std::max(acc->size(), child.size());
        *storage = NaturalJoin(*acc, child);
        acc = storage;
        // Every step but the last materializes an intermediate result; the
        // last step's rows are the node's own.
        if (i + 1 < expr.children().size()) intermediate_rows += acc->size();
      }
      IRD_COUNT_ADD(algebra.join.build_rows, build_rows);
      IRD_COUNT_ADD(algebra.join.probe_rows, probe_rows);
      break;
    }
    case Expression::Kind::kSelect: {
      PartialRelation child_storage;
      const PartialRelation& child =
          EvaluateNode(*expr.children()[0], relations, &child_storage);
      *storage = PartialRelation(expr.output_attrs());
      for (const PartialTuple& t : child.tuples()) {
        bool match = true;
        for (const EqualityAtom& atom : expr.formula()) {
          if (t.At(atom.attr) != atom.value) {
            match = false;
            break;
          }
        }
        if (match) storage->Add(t);
      }
      break;
    }
    case Expression::Kind::kUnion: {
      *storage = PartialRelation(expr.output_attrs());
      for (const ExprPtr& c : expr.children()) {
        PartialRelation child_storage;
        const PartialRelation& child =
            EvaluateNode(*c, relations, &child_storage);
        for (const PartialTuple& t : child.tuples()) {
          storage->AddUnique(t);
        }
      }
      break;
    }
  }
  IRD_COUNT_ADD(algebra.rows_materialized,
                intermediate_rows + storage->size());
  return *storage;
}

}  // namespace

PartialRelation NaturalJoin(const PartialRelation& left,
                            const PartialRelation& right) {
  AttributeSet shared = left.attrs().Intersect(right.attrs());
  PartialRelation out(left.attrs().Union(right.attrs()));
  // Build on the smaller side, probe with the larger.
  const PartialRelation& build = left.size() <= right.size() ? left : right;
  const PartialRelation& probe = left.size() <= right.size() ? right : left;
  // The build rows chained per shared-attribute hash in a flat
  // open-addressing table (linear probing, load <= 1/2): head[slot] is the
  // first row of one hash's chain and next[i] the row after i. Built back
  // to front, so every chain runs in row order.
  const size_t n = build.size();
  std::vector<uint64_t> hashes(n);
  std::vector<uint32_t> next(n, kNoRow);
  std::vector<uint32_t> head(std::bit_ceil(std::max<size_t>(16, 2 * n)),
                             kNoRow);
  const size_t mask = head.size() - 1;
  const int shift = 64 - std::countr_zero(head.size());
  auto chain = [&](uint64_t h) -> uint32_t& {
    size_t slot = (h * 0x9e3779b97f4a7c15ull) >> shift;
    while (head[slot] != kNoRow && hashes[head[slot]] != h) {
      slot = (slot + 1) & mask;
    }
    return head[slot];
  };
  for (size_t i = n; i-- > 0;) {
    hashes[i] = build.tuples()[i].HashOn(shared);
    uint32_t& first = chain(hashes[i]);
    next[i] = first;
    first = static_cast<uint32_t>(i);
  }
  for (const PartialTuple& p : probe.tuples()) {
    for (uint32_t i = chain(p.HashOn(shared)); i != kNoRow; i = next[i]) {
      const PartialTuple& b = build.tuples()[i];
      if (p.AgreesOn(b, shared)) {
        std::optional<PartialTuple> joined = p.Join(b);
        IRD_CHECK(joined.has_value());
        out.Add(std::move(*joined));
      }
    }
  }
  return out;
}

PartialRelation Evaluate(const Expression& expr, const Relations& relations) {
  PartialRelation storage;
  const PartialRelation& out = EvaluateNode(expr, relations, &storage);
  if (&out != &storage) return out;  // a bare base relation: copied once
  return storage;
}

PartialRelation Evaluate(const Expression& expr, const DatabaseState& state) {
  Relations relations;
  relations.reserve(state.relation_count());
  for (const PartialRelation& r : state.relations()) {
    relations.push_back(&r);
  }
  return Evaluate(expr, relations);
}

}  // namespace ird
