#include "core/recognition.h"

#include <memory>
#include <utility>

#include "obs/obs.h"

namespace ird {

DatabaseScheme InducedScheme(
    const DatabaseScheme& scheme,
    const std::vector<std::vector<size_t>>& partition) {
  DatabaseScheme induced(scheme.universe_ptr());
  for (const std::vector<size_t>& block : partition) {
    RelationScheme merged;
    merged.name = 'D' + std::to_string(induced.size() + 1);
    merged.attrs = scheme.UnionAttrs(block);
    // The block's keys once each, in declaration order of the first
    // occurrence (rendered output depends on it).
    merged.keys = scheme.DistinctKeys(block);
    induced.AddRelation(std::move(merged));
  }
  return induced;
}

RecognitionResult RecognizeIndependenceReducible(SchemeAnalysis& analysis) {
  IRD_SPAN("recognition");
  IRD_COUNT(recognition.runs);
  // Per-scheme recognition latency: the span above sums across schemes,
  // this separates a fleet of fast recognitions from one pathological one.
  IRD_HISTOGRAM_TIMER_NS(recognition.scheme_ns);
  RecognitionResult result;
  // Step (1): the key-equivalent partition via KEP (cached).
  result.partition = KeyEquivalentPartition(analysis);
  // Step (2): D with the blocks' embedded key dependencies. The induced
  // scheme and its child analysis live in the cache so step (3)'s engines
  // survive into the next recognition of the same scheme.
  SchemeAnalysis::Cache& cache = analysis.cache();
  if (cache.induced == nullptr) {
    cache.induced = std::make_unique<DatabaseScheme>(
        InducedScheme(analysis.scheme(), result.partition));
    cache.induced_analysis =
        std::make_unique<SchemeAnalysis>(*cache.induced);
  }
  result.induced = *cache.induced;
  // Step (3): the independence test on D (cached in the child).
  result.violation = FindUniquenessViolation(*cache.induced_analysis);
  result.accepted = !result.violation.has_value();
  return result;
}

RecognitionResult RecognizeIndependenceReducible(
    const DatabaseScheme& scheme) {
  SchemeAnalysis analysis(scheme);
  return RecognizeIndependenceReducible(analysis);
}

bool IsIndependenceReducible(const DatabaseScheme& scheme) {
  return RecognizeIndependenceReducible(scheme).accepted;
}

bool IsIndependenceReducible(SchemeAnalysis& analysis) {
  return RecognizeIndependenceReducible(analysis).accepted;
}

}  // namespace ird
