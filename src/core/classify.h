// One-stop classification of a database scheme against every class the
// paper discusses — the "scheme designer report" exposed by examples and
// the class-census experiment (E5).

#ifndef IRD_CORE_CLASSIFY_H_
#define IRD_CORE_CLASSIFY_H_

#include <string>
#include <vector>

#include "core/recognition.h"
#include "schema/database_scheme.h"

namespace ird {

struct SchemeClassification {
  Status valid;  // DatabaseScheme::Validate
  bool bcnf = false;
  bool lossless = false;
  bool independent = false;           // uniqueness condition
  bool key_equivalent = false;        // §3
  bool gamma_acyclic = false;         // §2.4 / [F3] (γ-cycle search)
  bool alpha_acyclic = false;         // GYO baseline
  RecognitionResult recognition;      // Algorithm 6
  // Per accepted block: is it split-free? (empty when rejected)
  std::vector<bool> block_split_free;
  bool independence_reducible = false;
  bool split_free = false;  // all blocks split-free
  // Derived verdicts (Theorems 4.1, 4.2, 5.5):
  bool bounded = false;                  // accepted ⇒ bounded
  bool algebraic_maintainable = false;   // accepted ⇒ algebraic-maintainable
  bool ctm = false;                      // accepted ∧ split-free ⇔ ctm
  // Why an exponential test did not run: the scheme is past the guard
  // that bounds it. Empty when the test ran; a test that did not run
  // leaves its flag false.
  std::string bcnf_not_tested;
  std::string gamma_not_tested;
};

// Rendering lives in diagnostics/render.h (FormatSchemeReport), which pairs
// the verdicts with witness-backed explanations of every "no".

// Runs every test; the exponential ones (BCNF, the γ-cycle search) only
// within their guards, recording the reason when they skip. With
// `test_acyclicity` false neither acyclicity test runs.
SchemeClassification ClassifyScheme(const DatabaseScheme& scheme,
                                    bool test_acyclicity = true);

// Engine-backed flavor: losslessness, independence, recognition and the
// per-block split tests all share the analysis's interned covers and
// closure memos (BCNF and acyclicity are closure-free or enumerate
// projected FDs and stay on the scheme).
SchemeClassification ClassifyScheme(SchemeAnalysis& analysis,
                                    bool test_acyclicity = true);

}  // namespace ird

#endif  // IRD_CORE_CLASSIFY_H_
