// Text and JSON renderers for lint reports, plus the scheme-designer
// report (classification table + diagnostics) that examples and the
// ird_lint CLI print — the witness-backed replacement of the old
// SchemeClassification::ToString dump.

#ifndef IRD_DIAGNOSTICS_RENDER_H_
#define IRD_DIAGNOSTICS_RENDER_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "diagnostics/lint.h"
#include "schema/database_scheme.h"

namespace ird::diagnostics {

// Human-readable listing: one block per diagnostic with severity, rule id,
// message, involved relations and the structural witness signature.
std::string RenderText(const DatabaseScheme& scheme, const LintReport& report);

// One JSON object for the report. `verification`, when non-null, must be
// aligned with report.diagnostics and adds a "witness_verified" field per
// diagnostic (the CLI fills it under --verify). Hand-rolled serialization —
// the library has no JSON dependency.
std::string RenderJson(const DatabaseScheme& scheme, const LintReport& report,
                       const std::string& file,
                       const std::vector<Status>* verification = nullptr);

// The full scheme report: every classification verdict of
// core/classify.h's ClassifyScheme followed by the lint diagnostics that
// explain the "no" answers, both run on one SchemeAnalysis. An exponential
// test past its bound prints as "not tested" with its reason; within the
// bounds, which classifier and linter share, every "no" for BCNF,
// gamma-acyclicity, key-equivalence, independence-reducibility and a split
// block comes with its diagnostic.
std::string FormatSchemeReport(const DatabaseScheme& scheme);

}  // namespace ird::diagnostics

#endif  // IRD_DIAGNOSTICS_RENDER_H_
