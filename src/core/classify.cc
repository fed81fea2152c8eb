#include "core/classify.h"

#include "core/independence.h"
#include "core/key_equivalence.h"
#include "core/split.h"
#include "engine/scheme_analysis.h"
#include "hypergraph/gamma_cycle.h"
#include "hypergraph/hypergraph.h"

namespace ird {

SchemeClassification ClassifyScheme(SchemeAnalysis& analysis,
                                    bool test_acyclicity) {
  const DatabaseScheme& scheme = analysis.scheme();
  SchemeClassification c;
  c.valid = scheme.Validate();
  for (const RelationScheme& r : scheme.relations()) {
    if (r.attrs.Count() > DatabaseScheme::kMaxBcnfAttrs) {
      c.bcnf_not_tested =
          r.name + " has " + std::to_string(r.attrs.Count()) +
          " attributes; the test enumerates the attribute subsets of "
          "relations with at most " +
          std::to_string(DatabaseScheme::kMaxBcnfAttrs);
      break;
    }
  }
  if (c.bcnf_not_tested.empty()) c.bcnf = scheme.IsBcnf();
  c.lossless = IsLossless(analysis);
  c.independent = IsIndependent(analysis);
  c.key_equivalent = IsKeyEquivalent(analysis);
  if (test_acyclicity) {
    Hypergraph h = Hypergraph::Of(scheme);
    // The γ-cycle search scales to more edges than the u.m.c. form (whose
    // Bachman closure can outgrow its guard); the two recognizers are
    // cross-validated in gamma_cycle_test.
    if (h.edge_count() > kMaxGammaCycleEdges) {
      c.gamma_not_tested =
          std::to_string(h.edge_count()) +
          " relations; the search runs on at most " +
          std::to_string(kMaxGammaCycleEdges);
    } else {
      c.gamma_acyclic = !FindGammaCycle(h).has_value();
    }
    c.alpha_acyclic = IsAlphaAcyclic(h);
  }
  c.recognition = RecognizeIndependenceReducible(analysis);
  c.independence_reducible = c.recognition.accepted;
  if (c.independence_reducible) {
    c.split_free = true;
    for (const std::vector<size_t>& block : c.recognition.partition) {
      bool sf = IsSplitFree(analysis, block);
      c.block_split_free.push_back(sf);
      if (!sf) c.split_free = false;
    }
    c.bounded = true;                 // Theorem 4.1
    c.algebraic_maintainable = true;  // Theorem 4.2
    c.ctm = c.split_free;             // Theorem 5.5
  }
  return c;
}

SchemeClassification ClassifyScheme(const DatabaseScheme& scheme,
                                    bool test_acyclicity) {
  SchemeAnalysis analysis(scheme);
  return ClassifyScheme(analysis, test_acyclicity);
}

}  // namespace ird
