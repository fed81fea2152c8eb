// The lint engine: runs every rule of the registry over one DatabaseScheme
// and collects witness-backed diagnostics. Deterministic — rules iterate
// relations, blocks and keys in declaration order — so reports are directly
// comparable across runs (the golden tests rely on this).

#ifndef IRD_DIAGNOSTICS_LINT_H_
#define IRD_DIAGNOSTICS_LINT_H_

#include <vector>

#include "diagnostics/diagnostic.h"
#include "engine/scheme_analysis.h"
#include "schema/database_scheme.h"

namespace ird::diagnostics {

// The exponential rules run within the classifier's bounds: the γ-cycle
// rule on at most kMaxGammaCycleEdges relations, the hidden-dependency
// rule on relations of at most DatabaseScheme::kMaxBcnfAttrs attributes.
struct LintOptions {
  // Build the Lemma 3.5-3.7 adversarial instance for each split key (costs
  // one witness construction per split key; disable for bulk sweeps that
  // only need the structural Lemma 3.8 certificate).
  bool build_instance_witnesses = true;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;

  size_t CountSeverity(Severity severity) const;
  bool HasErrors() const { return CountSeverity(Severity::kError) > 0; }
};

// Runs every rule. Never crashes on structurally well-formed schemes (what
// DatabaseScheme::AddRelation admits), valid or not; semantically invalid
// schemes simply earn error diagnostics.
LintReport LintScheme(const DatabaseScheme& scheme,
                      const LintOptions& options = {});

// Engine-backed flavor: key minimality, recognition, split keys and
// reachability all go through the analysis's interned covers and closure
// memos, so linting after (or before) other analysis work on the same
// context pays for each engine once.
LintReport LintScheme(SchemeAnalysis& analysis,
                      const LintOptions& options = {});

}  // namespace ird::diagnostics

#endif  // IRD_DIAGNOSTICS_LINT_H_
