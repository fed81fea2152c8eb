#include "engine/scheme_analysis.h"

#include "obs/obs.h"

namespace ird {

std::string UniquenessViolation::ToString(
    const DatabaseScheme& scheme) const {
  return "closure of " + scheme.relation(i).name + " without the keys of " +
         scheme.relation(j).name + " embeds the key dependency " +
         scheme.universe().Format(key) + " -> " +
         scheme.universe().Name(attribute);
}

SchemeAnalysis::SchemeAnalysis(const DatabaseScheme& scheme)
    : scheme_(&scheme),
      seen_revision_(scheme.revision()),
      full_pool_(scheme.PoolOrAll()) {}

SchemeAnalysis::~SchemeAnalysis() = default;

void SchemeAnalysis::Revalidate() {
  if (seen_revision_ == scheme_->revision()) return;
  IRD_COUNT(engine.invalidations);
  // The child analysis points into cache_.induced; drop it first.
  cache_.induced_analysis.reset();
  cache_ = Cache{};
  covers_.clear();
  full_pool_ = scheme_->PoolOrAll();
  seen_revision_ = scheme_->revision();
}

SchemeAnalysis::CoverEntry& SchemeAnalysis::Entry(
    const std::vector<size_t>& pool) {
  Revalidate();
  const std::vector<size_t>& key = pool.empty() ? full_pool_ : pool;
  auto it = covers_.find(key);
  if (it == covers_.end()) {
    // Exactly one engine is ever built per distinct cover of this scheme
    // (until invalidation) — the acceptance invariant behind this counter.
    IRD_COUNT(engine.closure_engine.builds);
    it = covers_
             .emplace(key, std::make_unique<CoverEntry>(
                               scheme_->KeyDependenciesOf(key)))
             .first;
  }
  return *it->second;
}

AttributeSet SchemeAnalysis::Closure(const std::vector<size_t>& pool,
                                     const AttributeSet& x) {
  CoverEntry& entry = Entry(pool);
  auto it = entry.memo.find(x);
  if (it != entry.memo.end()) {
    IRD_COUNT(engine.closure_memo.hits);
    return it->second;
  }
  IRD_COUNT(engine.closure_memo.misses);
  AttributeSet closure = entry.engine.Closure(x);
  entry.memo.emplace(x, closure);
  return closure;
}

AttributeSet SchemeAnalysis::ClosureExcept(size_t excluded,
                                           const AttributeSet& x) {
  IRD_DCHECK(excluded < scheme_->size());
  std::vector<size_t> pool;
  pool.reserve(scheme_->size());
  for (size_t i = 0; i < scheme_->size(); ++i) {
    if (i != excluded) pool.push_back(i);
  }
  // An empty leave-one-out cover closes nothing (and must not fall back to
  // the full pool, which is what an empty `pool` argument means).
  if (pool.empty()) return x;
  return Closure(pool, x);
}

const ClosureEngine& SchemeAnalysis::EngineFor(
    const std::vector<size_t>& pool) {
  return Entry(pool).engine;
}

bool IsLossless(SchemeAnalysis& analysis) {
  SchemeAnalysis::Cache& cache = analysis.cache();
  if (cache.lossless.has_value()) return *cache.lossless;
  const DatabaseScheme& scheme = analysis.scheme();
  AttributeSet all = scheme.AllAttrs();
  bool lossless = false;
  for (size_t i = 0; i < scheme.size() && !lossless; ++i) {
    lossless = all.IsSubsetOf(analysis.FullClosure(scheme.relation(i).attrs));
  }
  cache.lossless = lossless;
  return lossless;
}

}  // namespace ird
