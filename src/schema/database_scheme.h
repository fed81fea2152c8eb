// DatabaseScheme: R = {R1, ..., Rn} over a shared Universe, with the set of
// key dependencies F generated from the declared keys (paper §2.1, §2.3).
//
// This is the central input object of the library: every recognition,
// maintenance and query-answering algorithm takes a DatabaseScheme.

#ifndef IRD_SCHEMA_DATABASE_SCHEME_H_
#define IRD_SCHEMA_DATABASE_SCHEME_H_

#include <memory>
#include <string>
#include <vector>

#include "base/attribute_set.h"
#include "base/status.h"
#include "base/universe.h"
#include "fd/fd_set.h"
#include "schema/relation_scheme.h"

namespace ird {

class DatabaseScheme {
 public:
  // Creates an empty scheme over `universe`. The universe may keep growing
  // (Intern) while relations are added.
  explicit DatabaseScheme(std::shared_ptr<Universe> universe)
      : universe_(std::move(universe)) {
    IRD_CHECK(universe_ != nullptr);
  }

  // Convenience: creates the scheme together with a fresh universe.
  static DatabaseScheme Create() {
    return DatabaseScheme(std::make_shared<Universe>());
  }

  DatabaseScheme(const DatabaseScheme&) = default;
  DatabaseScheme& operator=(const DatabaseScheme&) = default;
  DatabaseScheme(DatabaseScheme&&) = default;
  DatabaseScheme& operator=(DatabaseScheme&&) = default;

  // Adds a relation scheme; returns its index. Structural requirements
  // (nonempty attrs, keys nonempty subsets of attrs) are IRD_CHECKed;
  // semantic requirements (key minimality, coverage of U) are verified by
  // Validate().
  size_t AddRelation(RelationScheme scheme);

  // Shorthand used heavily by tests and examples: single-letter attributes.
  // AddRelation("R1", "HRC", {"HR"}) declares R1(HRC) with key HR.
  size_t AddRelation(std::string name, std::string_view attr_letters,
                     std::initializer_list<std::string_view> key_letters);

  const Universe& universe() const { return *universe_; }
  const std::shared_ptr<Universe>& universe_ptr() const { return universe_; }

  size_t size() const { return relations_.size(); }
  const RelationScheme& relation(size_t i) const {
    IRD_CHECK(i < relations_.size());
    return relations_[i];
  }
  const std::vector<RelationScheme>& relations() const { return relations_; }

  // Mutable access to a relation scheme, for in-place edits (key mutation
  // tooling, tests). Conservatively counts as a mutation: bumps the
  // revision and invalidates the FD cache even if the caller only reads.
  RelationScheme& mutable_relation(size_t i) {
    IRD_CHECK(i < relations_.size());
    cache_valid_ = false;
    ++revision_;
    return relations_[i];
  }

  // Monotone mutation counter: bumped by AddRelation and mutable_relation.
  // SchemeAnalysis (src/engine) keys its caches on this to detect staleness
  // without observing the scheme's contents.
  uint64_t revision() const { return revision_; }

  // Index of the relation named `name`.
  Result<size_t> FindRelation(std::string_view name) const;

  // The full set of key dependencies F = F1 ∪ ... ∪ Fn. Rebuilt on demand
  // after mutations; cached otherwise.
  const FdSet& key_dependencies() const;

  // Key dependencies embedded in the relations listed in `indices`.
  FdSet KeyDependenciesOf(const std::vector<size_t>& indices) const;

  // Key dependencies of all relations except `excluded` (the F - Fj of the
  // uniqueness condition, paper §2.7).
  FdSet KeyDependenciesExcept(size_t excluded) const;

  // Union of the attribute sets of the listed relations.
  AttributeSet UnionAttrs(const std::vector<size_t>& indices) const;

  // Union of all relation schemes (should equal U for a valid scheme).
  AttributeSet AllAttrs() const;

  // Every (relation index, key) pair, deduplicated by key set: if the same
  // attribute set is a key of several relations it appears once, tagged with
  // the first relation declaring it.
  std::vector<std::pair<size_t, AttributeSet>> AllKeys() const;

  // The pool-taking algorithms' convention: `pool` itself, or every
  // relation index 0..size()-1 when `pool` is empty.
  std::vector<size_t> PoolOrAll(const std::vector<size_t>& pool = {}) const;

  // The distinct keys of the pool's relations (empty = all of R), each
  // once, in pool and declaration order.
  std::vector<AttributeSet> DistinctKeys(
      const std::vector<size_t>& pool = {}) const;

  // Semantic validation per the paper's definitions:
  //  - ∪ Ri = U;
  //  - every key is a nonempty subset of its scheme;
  //  - every declared key is a *candidate* key wrt the global F (minimal);
  //  - no two relations have identical attribute sets.
  Status Validate() const;

  // BCNF wrt the key dependencies (paper §2.3): for every nontrivial
  // X -> Y ∈ F+ embedded in some Ri, X is a superkey of Ri. Exponential in
  // max |Ri| (inherent for projected dependencies); IRD_CHECKs that every
  // relation has at most kMaxBcnfAttrs attributes.
  static constexpr size_t kMaxBcnfAttrs = 20;
  bool IsBcnf() const;

  std::string ToString() const;

 private:
  std::shared_ptr<Universe> universe_;
  std::vector<RelationScheme> relations_;
  uint64_t revision_ = 0;
  // Lazily built cache of key_dependencies().
  mutable FdSet cached_fds_;
  mutable bool cache_valid_ = false;
};

}  // namespace ird

#endif  // IRD_SCHEMA_DATABASE_SCHEME_H_
