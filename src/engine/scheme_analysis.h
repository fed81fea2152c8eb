// SchemeAnalysis: the compiled form of one DatabaseScheme, shared by every
// stage of the recognition pipeline (KEP, the Lemma 3.8 split test, the
// uniqueness condition, Algorithm 6) and by the layers above it
// (diagnostics, bench CLIs). Built once per scheme, it owns
//
//   * the interned key-dependency FdSets — the full cover, every per-pool
//     cover KEP and the split test ask for, and the leave-one-out covers
//     F - Fj of the uniqueness condition (a leave-one-out pool is just the
//     full pool minus one index, so all three kinds live in one map);
//   * one lazily built ClosureEngine per cover, plus a closure memo table
//     (AttributeSet -> AttributeSet) in front of each engine;
//   * the cached pipeline results: KEP partition, induced scheme (with its
//     own child SchemeAnalysis), uniqueness verdict, per-pool split keys,
//     key-equivalence and losslessness verdicts.
//
// Staleness is detected through DatabaseScheme::revision(): every accessor
// compares the revision it compiled against and drops all caches on a
// mismatch (counter: engine.invalidations). Holding references into the
// caches across a scheme mutation is therefore an error.
//
// Threading: a SchemeAnalysis is NOT thread-safe — memo tables and the
// ClosureEngine scratch buffers are mutated on query. The intended model
// (enforced by BatchAnalyzer, see engine/batch.h) is one SchemeAnalysis per
// scheme per worker. The underlying DatabaseScheme holds no mutable state,
// so a const scheme may be read from any number of threads.
//
// This layer sits between schema and core: it depends only on
// base/obs/fd/schema, and src/core's algorithms fill its typed cache slots.

#ifndef IRD_ENGINE_SCHEME_ANALYSIS_H_
#define IRD_ENGINE_SCHEME_ANALYSIS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/attribute_set.h"
#include "fd/closure_engine.h"
#include "fd/fd_set.h"
#include "schema/database_scheme.h"

namespace ird {

// A witness that the uniqueness condition fails: Closure_{F-Fj}(Ri) embeds
// the key dependency key -> attr of Rj. (Declared here rather than in
// core/independence.h so SchemeAnalysis can cache the verdict; core's
// headers re-export it.)
struct UniquenessViolation {
  size_t i;
  size_t j;
  AttributeSet key;       // a key of Rj
  AttributeId attribute;  // an attribute of Rj - key inside the closure

  std::string ToString(const DatabaseScheme& scheme) const;
};

class SchemeAnalysis {
 public:
  // Typed result slots filled by the core algorithms (core/kep.cc,
  // core/recognition.cc, core/independence.cc, core/split.cc, ...). Each
  // slot is the cached return value of exactly one pipeline entry point;
  // a default-constructed slot means "not computed yet".
  struct Cache {
    // KeyEquivalentPartition: blocks sorted by smallest member.
    std::optional<std::vector<std::vector<size_t>>> kep_partition;
    // InducedScheme of the KEP partition. Heap-allocated so its address is
    // stable for the child analysis below.
    std::unique_ptr<DatabaseScheme> induced;
    // Child analysis over *induced (points into `induced`; reset first).
    std::unique_ptr<SchemeAnalysis> induced_analysis;
    // FindUniquenessViolation on *this* scheme.
    bool uniqueness_computed = false;
    std::optional<UniquenessViolation> uniqueness;
    // SplitKeys per pool (pool key: sorted index vector; the empty vector
    // is never used — callers normalize to the full pool).
    std::map<std::vector<size_t>, std::vector<AttributeSet>> split_keys;
    // IsKeyEquivalent / IsLossless on the whole scheme.
    std::optional<bool> key_equivalent;
    std::optional<bool> lossless;
  };

  explicit SchemeAnalysis(const DatabaseScheme& scheme);
  ~SchemeAnalysis();

  // Non-copyable, non-movable: cached child analyses and returned engine
  // references point into this object.
  SchemeAnalysis(const SchemeAnalysis&) = delete;
  SchemeAnalysis& operator=(const SchemeAnalysis&) = delete;

  const DatabaseScheme& scheme() const { return *scheme_; }

  // The memoized closure of `x` wrt the key dependencies of `pool` (empty
  // pool = all of R). First query per (pool, x) builds/consults the pool's
  // engine and caches the result; later queries are a hash lookup.
  AttributeSet Closure(const std::vector<size_t>& pool, const AttributeSet& x);

  // Closure wrt the full cover F.
  AttributeSet FullClosure(const AttributeSet& x) {
    return Closure(full_pool_, x);
  }

  // Closure wrt F - F_excluded (the uniqueness condition's engines). For a
  // single-relation scheme the leave-one-out cover is empty and the
  // closure is the identity.
  AttributeSet ClosureExcept(size_t excluded, const AttributeSet& x);

  // rhs ⊆ FullClosure(lhs)?
  bool FullImplies(const AttributeSet& lhs, const AttributeSet& rhs) {
    return rhs.IsSubsetOf(FullClosure(lhs));
  }

  // The pool's raw engine, bypassing the memo table — for exponential
  // subset enumerations (BCNF-style scans) whose 2^k distinct queries
  // would only bloat the memo. Valid until the next revision change.
  const ClosureEngine& EngineFor(const std::vector<size_t>& pool);

  // The cached pipeline results. Calling this (or any query above) first
  // revalidates against the scheme's revision counter, dropping every
  // cover, memo and slot on a mismatch.
  Cache& cache() {
    Revalidate();
    return cache_;
  }

  // Introspection for tests: engines built so far / revision compiled
  // against.
  size_t built_engine_count() const { return covers_.size(); }
  uint64_t seen_revision() const { return seen_revision_; }

 private:
  struct CoverEntry {
    explicit CoverEntry(FdSet fds) : cover(std::move(fds)), engine(cover) {}
    FdSet cover;
    ClosureEngine engine;
    std::unordered_map<AttributeSet, AttributeSet, AttributeSetHash> memo;
  };

  void Revalidate();
  CoverEntry& Entry(const std::vector<size_t>& pool);

  const DatabaseScheme* scheme_;
  uint64_t seen_revision_;
  std::vector<size_t> full_pool_;
  // Keyed by sorted pool index vector; entries heap-allocated so engine
  // and cover references survive map rehash/rebalance.
  std::map<std::vector<size_t>, std::unique_ptr<CoverEntry>> covers_;
  Cache cache_;
};

// True iff R is lossless wrt F: CHASE_F(T_R) has a row of all dv's. Uses
// the BMSU closure characterization (valid because F is embedded in R):
// the row for Ri is a dv exactly on Closure_F(Ri), so R is lossless iff
// some Ri's full closure covers ∪R. The closures are memoized, and they
// are the same queries KEP's root refinement makes.
bool IsLossless(SchemeAnalysis& analysis);

}  // namespace ird

#endif  // IRD_ENGINE_SCHEME_ANALYSIS_H_
