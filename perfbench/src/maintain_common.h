// The inputs of the insert and query workloads: the 16-relation, 4-block
// split-chain scheme, the entity model behind a MakeConsistentState state,
// and the seeded insert-op generator driven by that model.

#ifndef PERFBENCH_MAINTAIN_COMMON_H_
#define PERFBENCH_MAINTAIN_COMMON_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "relation/database_state.h"
#include "schema/database_scheme.h"

namespace perfbench {

// An Example-5 split block {A, E, D, B1, B2} (checked by Algorithm 2),
// bridged as in Example 11 through a one-way key dependency A -> X1_1 to a
// chain block X1_1..X1_3, which is bridged the same way to X2_*, and that
// to X3_* (three split-free chain blocks, checked by Algorithm 5). 16
// relations, 14 attributes, so 91 two-attribute targets, 61 of which no
// single block covers.
ird::DatabaseScheme MakeSplitChainScheme();

// MakeConsistentState gives entity e a universal tuple of globally fresh
// values and projects it onto a random subset of the relations. The model
// recovers which entity owns each tuple, tracks which relations hold each
// entity's projection, and builds projections of old and new entities.
class EntityModel {
 public:
  // Decodes `state` (as generated for `entities` entities). Returns an
  // error message when a tuple does not carry one entity's values.
  static std::string FromState(const ird::DatabaseState& state,
                               size_t entities, EntityModel* out);

  const ird::DatabaseScheme& scheme() const { return scheme_; }
  size_t initial_entities() const { return initial_; }
  size_t entity_count() const { return present_.size(); }
  // A new entity id, its values fresh everywhere.
  size_t NewEntity();

  ird::Value ValueOf(size_t entity, ird::AttributeId a) const {
    return static_cast<ird::Value>(entity * universe_size_ + a + 1);
  }
  // The entity owning value `v` on attribute `a`.
  size_t EntityOf(ird::Value v, ird::AttributeId a) const {
    return static_cast<size_t>(v - 1 - static_cast<ird::Value>(a)) /
           universe_size_;
  }
  ird::PartialTuple Project(size_t entity, size_t rel) const;

  bool Present(size_t entity, size_t rel) const {
    return (present_[entity] >> rel) & 1u;
  }
  void MarkPresent(size_t entity, size_t rel) {
    present_[entity] |= 1u << rel;
  }
  uint32_t PresentMask(size_t entity) const { return present_[entity]; }

 private:
  ird::DatabaseScheme scheme_ = ird::DatabaseScheme::Create();
  size_t universe_size_ = 0;
  size_t initial_ = 0;
  std::vector<uint32_t> present_;  // bit r: the entity has a tuple in r
};

// One generated insert and the verdict the model expects for it.
struct GenOp {
  enum class Kind { kFresh, kExtend, kConflict };
  size_t rel = 0;
  ird::PartialTuple tuple;
  Kind kind = Kind::kFresh;
  size_t entity = 0;
  // An accepted insert of a tuple the relation already holds.
  bool duplicate = false;
};

// The insert stream: `fresh` projects a new entity, `extend` projects an
// existing entity drawn from Zipf(0.99) (often a tuple already present),
// and the rest are key conflicts on Zipf-drawn entities that already have
// a tuple in the chosen relation. The model is updated as ops are made, on
// the assumption that the system accepts exactly the non-conflicts.
//
// The Zipf ranks are dealt to entities afresh every kHotSetDraws draws: the
// hot set drifts, so a run's cost does not hang on where a handful of hot
// entities happen to sit in their relations.
class OpGenerator {
 public:
  OpGenerator(EntityModel* model, double fresh, double extend,
              uint64_t seed);

  static constexpr size_t kHotSetDraws = 512;

  void NextBatch(size_t n, std::vector<GenOp>* out);

 private:
  size_t DrawEntity();

  EntityModel* model_;
  double fresh_;
  double extend_;
  std::mt19937_64 rng_;
  Zipf zipf_;
  std::vector<size_t> rank_to_entity_;
  size_t draws_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MAINTAIN_COMMON_H_
