// Unit tests for the witness-backed diagnostics engine: rule emission on
// the paper's worked examples, independent witness verification, and —
// crucially — that *tampered* witnesses are rejected (the verifier must not
// be a rubber stamp).

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "diagnostics/diagnostic.h"
#include "diagnostics/lint.h"
#include "diagnostics/render.h"
#include "diagnostics/verify.h"
#include "gtest/gtest.h"
#include "hypergraph/gamma_cycle.h"
#include "schema/database_scheme.h"

namespace ird::diagnostics {
namespace {

// Example 2: the non-algebraic-maintainable triangle (Algorithm 6 rejects).
DatabaseScheme RejectedTriangle() {
  DatabaseScheme scheme = DatabaseScheme::Create();
  scheme.AddRelation("R1", "AB", {"AB"});
  scheme.AddRelation("R2", "BC", {"B"});
  scheme.AddRelation("R3", "AC", {"A"});
  return scheme;
}

// Examples 4/5/7: key-equivalent with split key BC.
DatabaseScheme SplitKeyScheme() {
  DatabaseScheme scheme = DatabaseScheme::Create();
  scheme.AddRelation("R1", "AB", {"A"});
  scheme.AddRelation("R2", "AC", {"A"});
  scheme.AddRelation("R3", "AE", {"A", "E"});
  scheme.AddRelation("R4", "EB", {"E"});
  scheme.AddRelation("R5", "EC", {"E"});
  scheme.AddRelation("R6", "BCD", {"BC", "D"});
  scheme.AddRelation("R7", "DA", {"D", "A"});
  return scheme;
}

// Example 1 (university): independence-reducible and ctm — the clean case.
DatabaseScheme University() {
  DatabaseScheme scheme = DatabaseScheme::Create();
  scheme.AddRelation("R1", "HRC", {"HR"});
  scheme.AddRelation("R2", "HTR", {"HT", "HR"});
  scheme.AddRelation("R3", "HTC", {"HT"});
  scheme.AddRelation("R4", "CSG", {"CS"});
  scheme.AddRelation("R5", "HSR", {"HS"});
  return scheme;
}

const Diagnostic* FindRule(const LintReport& report, RuleId rule) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

TEST(RuleRegistry, TenRulesWithUniqueNames) {
  const std::vector<RuleInfo>& rules = RuleRegistry();
  EXPECT_EQ(rules.size(), 10u);
  std::vector<std::string> names;
  for (const RuleInfo& info : rules) {
    EXPECT_STREQ(RuleName(info.id), info.name);
    EXPECT_NE(std::string(info.paper_ref), "");
    names.emplace_back(info.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Lint, EmptySchemeIsClean) {
  DatabaseScheme scheme = DatabaseScheme::Create();
  EXPECT_TRUE(LintScheme(scheme).diagnostics.empty());
}

TEST(Lint, UniversityHasNoErrors) {
  LintReport report = LintScheme(University());
  EXPECT_EQ(report.CountSeverity(Severity::kError), 0u)
      << RenderText(University(), report);
  EXPECT_TRUE(VerifyReport(University(), report).ok());
}

TEST(Lint, RejectedTriangleExplainsTheRejection) {
  DatabaseScheme scheme = RejectedTriangle();
  LintReport report = LintScheme(scheme);
  const Diagnostic* rejected = FindRule(report, RuleId::kRecognitionRejected);
  ASSERT_NE(rejected, nullptr) << RenderText(scheme, report);
  EXPECT_EQ(rejected->severity, Severity::kError);
  // The message must be a concrete, human-readable explanation.
  EXPECT_NE(rejected->message.find("block"), std::string::npos)
      << rejected->message;
  const auto& w = std::get<RecognitionRejectedWitness>(rejected->witness);
  EXPECT_FALSE(w.partition.empty());
  EXPECT_NE(w.block_i, w.block_j);
  // And the whole report must survive independent verification.
  EXPECT_TRUE(VerifyReport(scheme, report).ok());
}

TEST(Lint, SplitKeyBcIsFoundWithInstanceWitness) {
  DatabaseScheme scheme = SplitKeyScheme();
  LintReport report = LintScheme(scheme);
  const Diagnostic* split = FindRule(report, RuleId::kSplitKey);
  ASSERT_NE(split, nullptr) << RenderText(scheme, report);
  const auto& w = std::get<SplitKeyWitness>(split->witness);
  AttributeSet bc = scheme.universe_ptr()->Chars("BC");
  EXPECT_TRUE(w.key == bc) << split->Signature(scheme);
  ASSERT_TRUE(w.state.has_value());
  EXPECT_FALSE(w.covering.empty());
  EXPECT_TRUE(VerifyReport(scheme, report).ok());
}

TEST(Lint, SplitKeyWithoutInstancesStillVerifies) {
  DatabaseScheme scheme = SplitKeyScheme();
  LintOptions opts;
  opts.build_instance_witnesses = false;
  LintReport report = LintScheme(scheme, opts);
  const Diagnostic* split = FindRule(report, RuleId::kSplitKey);
  ASSERT_NE(split, nullptr);
  EXPECT_FALSE(std::get<SplitKeyWitness>(split->witness).state.has_value());
  EXPECT_TRUE(VerifyReport(scheme, report).ok());
}

TEST(Verify, TamperedRecognitionWitnessIsRejected) {
  DatabaseScheme scheme = RejectedTriangle();
  LintReport report = LintScheme(scheme);
  const Diagnostic* rejected = FindRule(report, RuleId::kRecognitionRejected);
  ASSERT_NE(rejected, nullptr);

  // Swap the violating blocks: the closure claim no longer holds.
  Diagnostic tampered = *rejected;
  auto& w = std::get<RecognitionRejectedWitness>(tampered.witness);
  std::swap(w.block_i, w.block_j);
  EXPECT_FALSE(VerifyWitness(scheme, tampered).ok());

  // Break the partition (drop one block).
  tampered = *rejected;
  std::get<RecognitionRejectedWitness>(tampered.witness).partition.pop_back();
  EXPECT_FALSE(VerifyWitness(scheme, tampered).ok());
}

TEST(Verify, TamperedSplitWitnessIsRejected) {
  DatabaseScheme scheme = SplitKeyScheme();
  LintReport report = LintScheme(scheme);
  const Diagnostic* split = FindRule(report, RuleId::kSplitKey);
  ASSERT_NE(split, nullptr);

  // A key contained in a pool member is not split.
  Diagnostic tampered = *split;
  std::get<SplitKeyWitness>(tampered.witness).key =
      scheme.universe_ptr()->Chars("A");
  EXPECT_FALSE(VerifyWitness(scheme, tampered).ok());

  // An empty covering sequence certifies nothing.
  tampered = *split;
  std::get<SplitKeyWitness>(tampered.witness).covering.clear();
  EXPECT_FALSE(VerifyWitness(scheme, tampered).ok());
}

TEST(Verify, TamperedNonKeyEquivalentWitnessIsRejected) {
  DatabaseScheme scheme = RejectedTriangle();
  LintReport report = LintScheme(scheme);
  const Diagnostic* nke = FindRule(report, RuleId::kNonKeyEquivalent);
  ASSERT_NE(nke, nullptr) << RenderText(scheme, report);
  ASSERT_TRUE(VerifyWitness(scheme, *nke).ok());

  // Claiming the closure actually covers everything must fail: the recorded
  // replay cannot reach it, and `missing` no longer matches.
  Diagnostic tampered = *nke;
  std::get<NonKeyEquivalentWitness>(tampered.witness).closure =
      scheme.AllAttrs();
  EXPECT_FALSE(VerifyWitness(scheme, tampered).ok());

  // An empty missing set certifies nothing.
  tampered = *nke;
  std::get<NonKeyEquivalentWitness>(tampered.witness).missing =
      AttributeSet();
  EXPECT_FALSE(VerifyWitness(scheme, tampered).ok());
}

TEST(Verify, FdTraceReplayRejectsInapplicableSteps) {
  DatabaseScheme scheme = RejectedTriangle();
  FdTrace trace;
  trace.start = scheme.universe_ptr()->Chars("A");
  // R2's key B -> C is not applicable from {A}.
  trace.steps.push_back({1, 0});
  EXPECT_FALSE(trace.Replay(scheme).ok());
  // A -> C via R3 is.
  trace.steps[0] = {2, 0};
  Result<AttributeSet> replayed = trace.Replay(scheme);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(*replayed == scheme.universe_ptr()->Chars("AC"));
}

TEST(SelfCheck, PaperExamplesAllVerify) {
  EXPECT_TRUE(LintSelfCheck(University()).ok());
  EXPECT_TRUE(LintSelfCheck(RejectedTriangle()).ok());
  EXPECT_TRUE(LintSelfCheck(SplitKeyScheme()).ok());
}

TEST(Render, JsonAndTextMentionEveryRuleEmitted) {
  DatabaseScheme scheme = RejectedTriangle();
  LintReport report = LintScheme(scheme);
  ASSERT_FALSE(report.diagnostics.empty());
  std::string text = RenderText(scheme, report);
  std::string json = RenderJson(scheme, report, "triangle.scheme");
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(text.find(RuleName(d.rule)), std::string::npos);
    EXPECT_NE(json.find(RuleName(d.rule)), std::string::npos);
  }
  EXPECT_NE(json.find("\"file\": \"triangle.scheme\""), std::string::npos)
      << json;
}

TEST(Render, SchemeReportCarriesVerdictsAndDiagnostics) {
  std::string report = FormatSchemeReport(RejectedTriangle());
  EXPECT_NE(report.find("independence-reducible"), std::string::npos);
  EXPECT_NE(report.find("diagnostics:"), std::string::npos);
  EXPECT_NE(report.find("recognition-rejected"), std::string::npos);
}

// --- The scheme report explains its verdicts ---------------------------------

// The value printed after "<label>:" in a scheme report ("yes", "no", "not
// tested (...)", ...), or "" when the line is absent.
std::string Verdict(const std::string& report, const std::string& label) {
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(label + ":", 0) != 0) continue;
    size_t value = line.find_first_not_of(' ', label.size() + 1);
    return value == std::string::npos ? "" : line.substr(value);
  }
  return "";
}

bool HasRule(const std::string& report, RuleId rule) {
  return report.find(std::string("[") + RuleName(rule) + "] ") !=
         std::string::npos;
}

// Classifier and linter share each search and its bound, so a verdict the
// report states is explained by its rule exactly: "no" comes with the
// diagnostic, "yes" without it. Returns the report.
std::string ExpectVerdictsExplained(const DatabaseScheme& scheme) {
  std::string report = FormatSchemeReport(scheme);
  const std::pair<const char*, RuleId> pairs[] = {
      {"BCNF", RuleId::kUnsoundEmbeddedCover},
      {"gamma-acyclic", RuleId::kGammaCycle},
      {"key-equivalent", RuleId::kNonKeyEquivalent},
      {"independence-reducible", RuleId::kRecognitionRejected},
  };
  for (const auto& [label, rule] : pairs) {
    std::string verdict = Verdict(report, label);
    if (verdict == "no") {
      EXPECT_TRUE(HasRule(report, rule)) << label << ": no\n" << report;
    } else if (verdict == "yes") {
      EXPECT_FALSE(HasRule(report, rule)) << label << ": yes\n" << report;
    }
  }
  // An accepted scheme prints its partition; a split block (starred)
  // comes with a split key, and a split-free one without.
  if (Verdict(report, "independence-reducible") == "yes") {
    bool split_block = Verdict(report, "partition").find("}*") !=
                       std::string::npos;
    EXPECT_EQ(split_block, HasRule(report, RuleId::kSplitKey)) << report;
  }
  return report;
}

std::string Numbered(const std::string& stem, size_t i) {
  return stem + std::to_string(i);
}

// Ri(Ai Ai+1) keys (Ai) (Ai+1), closed into a ring by Rn(An A1).
DatabaseScheme Ring(size_t n) {
  DatabaseScheme scheme = DatabaseScheme::Create();
  Universe& u = *scheme.universe_ptr();
  for (size_t i = 1; i <= n; ++i) {
    AttributeId a = u.Intern(Numbered("A", i));
    AttributeId b = u.Intern(Numbered("A", i % n + 1));
    scheme.AddRelation(RelationScheme(Numbered("R", i), AttributeSet{a, b},
                                      {AttributeSet{a}, AttributeSet{b}}));
  }
  return scheme;
}

// Wide(A1 .. An) keys (A1), plus Dep(A2 A3) keys (A2): for n >= 3 the
// hidden dependency A2 -> A3 is embedded in Wide, and A2 is no superkey.
DatabaseScheme WideWithHiddenDependency(size_t n) {
  DatabaseScheme scheme = DatabaseScheme::Create();
  Universe& u = *scheme.universe_ptr();
  AttributeSet wide;
  for (size_t i = 1; i <= n; ++i) wide.Add(u.Intern(Numbered("A", i)));
  AttributeId a1 = u.Intern("A1"), a2 = u.Intern("A2"), a3 = u.Intern("A3");
  scheme.AddRelation(RelationScheme("Wide", wide, {AttributeSet{a1}}));
  scheme.AddRelation(
      RelationScheme("Dep", AttributeSet{a2, a3}, {AttributeSet{a2}}));
  return scheme;
}

TEST(SchemeReport, RingsUpToTheGammaBoundShowTheirCycle) {
  for (size_t n = 3; n <= kMaxGammaCycleEdges; ++n) {
    SCOPED_TRACE(Numbered("ring of ", n));
    std::string report = ExpectVerdictsExplained(Ring(n));
    EXPECT_EQ(Verdict(report, "gamma-acyclic"), "no");
    EXPECT_TRUE(HasRule(report, RuleId::kGammaCycle));
  }
}

TEST(SchemeReport, WideRelationsUpToTheBcnfBoundShowTheirHiddenDependency) {
  for (size_t n = 2; n <= DatabaseScheme::kMaxBcnfAttrs; ++n) {
    SCOPED_TRACE("relation of " + std::to_string(n) + " attributes");
    std::string report = ExpectVerdictsExplained(WideWithHiddenDependency(n));
    EXPECT_EQ(Verdict(report, "BCNF"), n >= 3 ? "no" : "yes");
  }
}

TEST(SchemeReport, PaperExamplesExplainTheirVerdicts) {
  ExpectVerdictsExplained(RejectedTriangle());
  ExpectVerdictsExplained(SplitKeyScheme());
  ExpectVerdictsExplained(University());
}

}  // namespace
}  // namespace ird::diagnostics
