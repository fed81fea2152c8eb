// DatabaseScheme: R = {R1, ..., Rn} over a shared Universe, with the set of
// key dependencies F generated from the declared keys (paper §2.1, §2.3).
//
// This is the central input object of the library: every recognition,
// maintenance and query-answering algorithm takes a DatabaseScheme.

#ifndef IRD_SCHEMA_DATABASE_SCHEME_H_
#define IRD_SCHEMA_DATABASE_SCHEME_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/attribute_set.h"
#include "base/status.h"
#include "base/universe.h"
#include "fd/fd_set.h"
#include "schema/relation_scheme.h"

namespace ird {

class ClosureEngine;

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

  // Monotone mutation counter, bumped by AddRelation (the only mutation).
  // SchemeAnalysis (src/engine) keys its caches on this to detect staleness
  // without observing the scheme's contents.
  uint64_t revision() const { return revision_; }

  // Index of the relation named `name`.
  Result<size_t> FindRelation(std::string_view name) const;

  // The full set of key dependencies F = F1 ∪ ... ∪ Fn, in declaration
  // order. AddRelation appends each relation's dependencies, so a const
  // scheme holds no lazily built state and is safe to read concurrently.
  const FdSet& key_dependencies() const { return fds_; }

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
  // relation has at most kMaxBcnfAttrs attributes. The scan is
  // FindBcnfViolation below with one engine over F.
  static constexpr size_t kMaxBcnfAttrs = 20;
  bool IsBcnf() const;

  std::string ToString() const;

 private:
  std::shared_ptr<Universe> universe_;
  std::vector<RelationScheme> relations_;
  uint64_t revision_ = 0;
  FdSet fds_;  // F, appended to by AddRelation
};

// A BCNF violation in one relation R: X ⊂ R with X -> A embedded for some
// A ∈ R - X, although X is not a superkey of R.
struct BcnfViolation {
  AttributeSet lhs;      // X
  AttributeSet closure;  // X+: meets R beyond X but misses part of R
};

// The BCNF subset scan of `r`: enumerates the nonempty X ⊆ r.attrs in
// bitmask order over r.attrs and returns the first violation, or nullopt
// when r is in BCNF. `f` indexes F: IsBcnf builds one over the scheme's key
// dependencies, the linter passes its analysis's raw engine. Exponential in
// |r.attrs|, which must be at most kMaxBcnfAttrs.
std::optional<BcnfViolation> FindBcnfViolation(const RelationScheme& r,
                                               const ClosureEngine& f);

}  // namespace ird

#endif  // IRD_SCHEMA_DATABASE_SCHEME_H_
