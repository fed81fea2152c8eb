#include "diagnostics/render.h"

#include <cstdio>

#include "core/classify.h"
#include "engine/scheme_analysis.h"

namespace ird::diagnostics {

namespace {

void AppendNameList(const DatabaseScheme& scheme,
                    const std::vector<size_t>& indices, const char* sep,
                    std::string* out) {
  for (size_t k = 0; k < indices.size(); ++k) {
    if (k > 0) *out += sep;
    *out += scheme.relation(indices[k]).name;
  }
}

void AppendJsonString(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

std::string RenderText(const DatabaseScheme& scheme,
                       const LintReport& report) {
  std::string out;
  if (report.diagnostics.empty()) {
    return "no diagnostics\n";
  }
  for (const Diagnostic& d : report.diagnostics) {
    out += SeverityName(d.severity);
    out += '[';
    out += RuleName(d.rule);
    out += "] ";
    out += d.message;
    out += '\n';
    if (!d.relations.empty()) {
      out += "    at: ";
      AppendNameList(scheme, d.relations, ", ", &out);
      out += '\n';
    }
    out += "    witness: " + d.Signature(scheme) + "  (" +
           InfoFor(d.rule).paper_ref + ")\n";
  }
  out += std::to_string(report.CountSeverity(Severity::kError)) + " error(s), " +
         std::to_string(report.CountSeverity(Severity::kWarning)) +
         " warning(s), " + std::to_string(report.CountSeverity(Severity::kNote)) +
         " note(s)\n";
  return out;
}

std::string RenderJson(const DatabaseScheme& scheme, const LintReport& report,
                       const std::string& file,
                       const std::vector<Status>* verification) {
  IRD_CHECK(verification == nullptr ||
            verification->size() == report.diagnostics.size());
  std::string out = "{";
  out += "\"file\": ";
  AppendJsonString(file, &out);
  out += ", \"relations\": " + std::to_string(scheme.size());
  out += ", \"errors\": " +
         std::to_string(report.CountSeverity(Severity::kError));
  out += ", \"warnings\": " +
         std::to_string(report.CountSeverity(Severity::kWarning));
  out += ", \"notes\": " + std::to_string(report.CountSeverity(Severity::kNote));
  out += ", \"diagnostics\": [";
  for (size_t k = 0; k < report.diagnostics.size(); ++k) {
    const Diagnostic& d = report.diagnostics[k];
    if (k > 0) out += ", ";
    out += "{\"rule\": ";
    AppendJsonString(RuleName(d.rule), &out);
    out += ", \"severity\": ";
    AppendJsonString(SeverityName(d.severity), &out);
    out += ", \"paper_ref\": ";
    AppendJsonString(InfoFor(d.rule).paper_ref, &out);
    out += ", \"relations\": [";
    for (size_t r = 0; r < d.relations.size(); ++r) {
      if (r > 0) out += ", ";
      AppendJsonString(scheme.relation(d.relations[r]).name, &out);
    }
    out += "], \"signature\": ";
    AppendJsonString(d.Signature(scheme), &out);
    out += ", \"message\": ";
    AppendJsonString(d.message, &out);
    if (verification != nullptr) {
      const Status& v = (*verification)[k];
      out += std::string(", \"witness_verified\": ") +
             (v.ok() ? "true" : "false");
      if (!v.ok()) {
        out += ", \"verification_error\": ";
        AppendJsonString(v.message(), &out);
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string FormatSchemeReport(const DatabaseScheme& scheme) {
  SchemeAnalysis analysis(scheme);
  SchemeClassification c = ClassifyScheme(analysis);
  auto yn = [](bool b) { return b ? "yes" : "no"; };
  auto tested = [&](bool b, const std::string& not_tested) {
    return not_tested.empty() ? std::string(yn(b))
                              : "not tested (" + not_tested + ")";
  };
  std::string out;
  out += "valid scheme:             " + c.valid.ToString() + "\n";
  out += "BCNF:                     " + tested(c.bcnf, c.bcnf_not_tested) +
         "\n";
  out += std::string("lossless:                 ") + yn(c.lossless) + "\n";
  out += std::string("independent (Sagiv):      ") + yn(c.independent) + "\n";
  out +=
      std::string("key-equivalent:           ") + yn(c.key_equivalent) + "\n";
  out += "gamma-acyclic:            " +
         tested(c.gamma_acyclic, c.gamma_not_tested) + "\n";
  out += std::string("alpha-acyclic:            ") + yn(c.alpha_acyclic) +
         "\n";
  out += std::string("independence-reducible:   ") +
         yn(c.independence_reducible) + "\n";
  if (c.independence_reducible) {
    out += "partition:                ";
    for (size_t b = 0; b < c.recognition.partition.size(); ++b) {
      if (b > 0) out += " | ";
      out += "{";
      AppendNameList(scheme, c.recognition.partition[b], ",", &out);
      out += "}";
      out += c.block_split_free[b] ? "" : "*";
    }
    out += "   (* = split block)\n";
  }
  out += std::string("bounded:                  ") + yn(c.bounded) + "\n";
  out += std::string("algebraic-maintainable:   ") +
         yn(c.algebraic_maintainable) + "\n";
  out += std::string("constant-time-maintain.:  ") + yn(c.ctm) + "\n";
  out += "\ndiagnostics:\n";
  out += RenderText(scheme, LintScheme(analysis));
  return out;
}

}  // namespace ird::diagnostics
