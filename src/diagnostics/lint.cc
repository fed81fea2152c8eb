#include "diagnostics/lint.h"

#include <optional>
#include <utility>

#include "core/kep.h"
#include "core/key_equivalence.h"
#include "core/recognition.h"
#include "core/split.h"
#include "core/split_witness.h"
#include "fd/closure_engine.h"
#include "hypergraph/gamma_cycle.h"
#include "hypergraph/hypergraph.h"

namespace ird::diagnostics {

namespace {

// Greedy deterministic derivation of `target` from `start` by the embedded
// key dependencies: repeatedly applies the first declared key dependency
// that is applicable and still adds something. Returns nullopt when the
// target is not derivable (the caller's closure claim was wrong).
std::optional<FdTrace> DeriveTrace(const DatabaseScheme& scheme,
                                   const AttributeSet& start,
                                   const AttributeSet& target) {
  FdTrace trace;
  trace.start = start;
  AttributeSet current = start;
  bool progress = true;
  while (!target.IsSubsetOf(current) && progress) {
    progress = false;
    for (size_t r = 0; r < scheme.size() && !progress; ++r) {
      const RelationScheme& rel = scheme.relation(r);
      if (rel.attrs.IsSubsetOf(current)) continue;
      for (size_t k = 0; k < rel.keys.size(); ++k) {
        if (rel.keys[k].IsSubsetOf(current)) {
          trace.steps.push_back(FdStep{r, k});
          current.UnionWith(rel.attrs);
          progress = true;
          break;
        }
      }
    }
  }
  if (!target.IsSubsetOf(current)) return std::nullopt;
  return trace;
}

Diagnostic Make(RuleId rule, std::string message, std::vector<size_t> rels,
                Witness witness) {
  Diagnostic d;
  d.rule = rule;
  d.severity = InfoFor(rule).severity;
  d.message = std::move(message);
  d.relations = std::move(rels);
  d.witness = std::move(witness);
  return d;
}

void CheckCoverage(const DatabaseScheme& scheme,
                   std::vector<Diagnostic>* out) {
  if (scheme.size() == 0) return;
  AttributeSet covered = scheme.AllAttrs();
  scheme.universe().All().ForEach([&](AttributeId a) {
    if (covered.Contains(a)) return;
    out->push_back(Make(
        RuleId::kUncoveredAttribute,
        "attribute " + scheme.universe().Name(a) +
            " belongs to the universe but to no relation scheme, so the "
            "scheme cannot cover U",
        {}, UncoveredAttributeWitness{a}));
  });
}

void CheckDuplicates(const DatabaseScheme& scheme,
                     std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < scheme.size(); ++i) {
    for (size_t j = i + 1; j < scheme.size(); ++j) {
      if (scheme.relation(i).attrs != scheme.relation(j).attrs) continue;
      out->push_back(Make(
          RuleId::kDuplicateRelation,
          "relations " + scheme.relation(i).name + " and " +
              scheme.relation(j).name + " declare the same attribute set " +
              scheme.universe().Format(scheme.relation(i).attrs),
          {i, j}, DuplicateRelationWitness{i, j}));
    }
  }
}

void CheckKeys(SchemeAnalysis& analysis, std::vector<Diagnostic>* out) {
  const DatabaseScheme& scheme = analysis.scheme();
  for (size_t i = 0; i < scheme.size(); ++i) {
    const RelationScheme& r = scheme.relation(i);
    for (size_t k = 0; k < r.keys.size(); ++k) {
      const AttributeSet& key = r.keys[k];
      // Shadowing by a sibling declaration (subsumes exact duplicates).
      for (size_t k2 = 0; k2 < r.keys.size(); ++k2) {
        if (k2 == k || !r.keys[k2].IsSubsetOf(key)) continue;
        // Report each shadowed pair once, from the shadowed side; for
        // exact duplicates, only the later declaration is redundant.
        if (r.keys[k2] == key && k2 > k) continue;
        out->push_back(Make(
            RuleId::kRedundantKey,
            "key " + scheme.universe().Format(key) + " of " + r.name +
                (r.keys[k2] == key
                     ? " is declared twice"
                     : " is shadowed by its declared sibling key " +
                           scheme.universe().Format(r.keys[k2])),
            {i}, RedundantKeyWitness{i, k, k2}));
        break;
      }
      // Minimality wrt the global F.
      AttributeSet reducible;
      key.ForEach([&](AttributeId a) {
        if (!reducible.Empty()) return;
        AttributeSet smaller = key;
        smaller.Remove(a);
        if (!smaller.Empty() && analysis.FullImplies(smaller, r.attrs)) {
          reducible = smaller;
        }
      });
      if (reducible.Empty()) continue;
      std::optional<FdTrace> trace = DeriveTrace(scheme, reducible, r.attrs);
      IRD_CHECK_MSG(trace.has_value(),
                    "Implies() held but the greedy derivation failed");
      out->push_back(Make(
          RuleId::kNonMinimalKey,
          "declared key " + scheme.universe().Format(key) + " of " + r.name +
              " is not minimal: its proper subset " +
              scheme.universe().Format(reducible) +
              " already determines the relation",
          {i},
          NonMinimalKeyWitness{i, k, reducible, std::move(*trace)}));
    }
  }
}

void CheckKeyEquivalence(const DatabaseScheme& scheme,
                         std::vector<Diagnostic>* out) {
  AttributeSet all = scheme.AllAttrs();
  for (size_t j = 0; j < scheme.size(); ++j) {
    SchemeClosure closure = ComputeSchemeClosure(scheme, j);
    if (closure.closure == all) continue;
    NonKeyEquivalentWitness w;
    w.relation = j;
    for (const ClosureStep& step : closure.steps) {
      w.absorbed.push_back(step.scheme_index);
    }
    w.closure = closure.closure;
    w.missing = all.Minus(closure.closure);
    // Built before the Make call: the witness is moved into it, and
    // argument evaluation order is unspecified.
    std::string message =
        "the scheme closure of " + scheme.relation(j).name + " stalls at " +
        scheme.universe().Format(w.closure) + " and never reaches " +
        scheme.universe().Format(w.missing) +
        ", so the scheme is not key-equivalent as a whole";
    out->push_back(
        Make(RuleId::kNonKeyEquivalent, std::move(message), {j}, std::move(w)));
  }
}

void CheckSplitKeys(SchemeAnalysis& analysis,
                    const std::vector<std::vector<size_t>>& partition,
                    const LintOptions& options,
                    std::vector<Diagnostic>* out) {
  const DatabaseScheme& scheme = analysis.scheme();
  for (const std::vector<size_t>& block : partition) {
    for (const AttributeSet& key : SplitKeys(analysis, block)) {
      SplitKeyWitness w;
      w.key = key;
      w.pool = block;
      std::string detail;
      if (options.build_instance_witnesses) {
        Result<SplitWitness> instance = BuildSplitWitness(scheme, key, block);
        if (instance.ok()) {
          // The instance's s_l is the Lemma 3.8 covering sequence
          // (CoveringFragments), so the structural and chase-level halves
          // of the witness agree: dropping exactly these fragments must
          // hide the insert.
          w.covering = instance.value().covering_relations;
          w.state = std::move(instance.value().state);
          w.insert_rel = instance.value().insert_rel;
          w.insert = std::move(instance.value().insert);
          detail = "; inserting " +
                   w.insert.ToString(scheme.universe()) + " into " +
                   scheme.relation(w.insert_rel).name +
                   " breaks a consistent state in a way only the covering "
                   "fragments reveal";
        }
      }
      if (w.covering.empty()) {
        w.covering = CoveringFragments(scheme, key, block);
      }
      std::string covering_names;
      for (size_t k = 0; k < w.covering.size(); ++k) {
        if (k > 0) covering_names += ", ";
        covering_names += scheme.relation(w.covering[k]).name;
      }
      std::vector<size_t> rels = w.covering;
      out->push_back(Make(
          RuleId::kSplitKey,
          "key " + scheme.universe().Format(key) +
              " is split in its key-equivalent block: " + covering_names +
              " jointly cover it without any of them containing it, so the "
              "block is not constant-time maintainable" +
              detail,
          std::move(rels), std::move(w)));
    }
  }
}

void CheckRecognition(const RecognitionResult& recognition,
                      std::vector<Diagnostic>* out) {
  if (recognition.accepted) return;
  IRD_CHECK(recognition.violation.has_value() &&
            recognition.induced.has_value());
  const UniquenessViolation& v = *recognition.violation;
  RecognitionRejectedWitness w;
  w.partition = recognition.partition;
  w.block_i = v.i;
  w.block_j = v.j;
  w.key = v.key;
  w.attribute = v.attribute;
  std::vector<size_t> rels = recognition.partition[v.i];
  rels.insert(rels.end(), recognition.partition[v.j].begin(),
              recognition.partition[v.j].end());
  out->push_back(Make(
      RuleId::kRecognitionRejected,
      "not independence-reducible: in the induced scheme of the " +
          std::to_string(recognition.partition.size()) +
          "-block key-equivalent partition, " +
          v.ToString(*recognition.induced) +
          ", violating the uniqueness condition",
      std::move(rels), std::move(w)));
}

// Within ClassifyScheme's bound, so every "gamma-acyclic: no" it reports
// comes with this rule's cycle.
void CheckGammaCycle(const DatabaseScheme& scheme,
                     std::vector<Diagnostic>* out) {
  if (scheme.size() < 3 || scheme.size() > kMaxGammaCycleEdges) return;
  std::optional<GammaCycle> cycle = FindGammaCycle(Hypergraph::Of(scheme));
  if (!cycle.has_value()) return;
  GammaCycleWitness w;
  w.edges = cycle->edges;
  w.connectors = cycle->connectors;
  std::string path;
  for (size_t k = 0; k < w.edges.size(); ++k) {
    path += scheme.relation(w.edges[k]).name + " -" +
            scheme.universe().Name(w.connectors[k]) + "- ";
  }
  path += scheme.relation(w.edges[0]).name;
  std::vector<size_t> rels = w.edges;
  out->push_back(Make(RuleId::kGammaCycle,
                      "the scheme hypergraph has the gamma-cycle " + path,
                      std::move(rels), std::move(w)));
}

// IsBcnf's scan within its bound, so every "BCNF: no" ClassifyScheme
// reports comes with this rule's witness (one per relation).
void CheckEmbeddedCover(SchemeAnalysis& analysis,
                        std::vector<Diagnostic>* out) {
  const DatabaseScheme& scheme = analysis.scheme();
  // Raw engine: the 2^k subset probes are all distinct, so memoizing them
  // would only bloat the closure memo.
  const ClosureEngine& f = analysis.EngineFor({});
  for (size_t i = 0; i < scheme.size(); ++i) {
    const RelationScheme& r = scheme.relation(i);
    if (r.attrs.Count() > DatabaseScheme::kMaxBcnfAttrs) continue;
    std::optional<BcnfViolation> v = FindBcnfViolation(r, f);
    if (!v.has_value()) continue;
    const AttributeSet& x = v->lhs;
    AttributeId determined = v->closure.Intersect(r.attrs).Minus(x).First();
    AttributeId missing = r.attrs.Minus(v->closure).First();
    AttributeSet target;
    target.Add(determined);
    std::optional<FdTrace> trace = DeriveTrace(scheme, x, target);
    IRD_CHECK_MSG(trace.has_value(),
                  "closure found the FD but the derivation failed");
    out->push_back(Make(
        RuleId::kUnsoundEmbeddedCover,
        "hidden dependency " + scheme.universe().Format(x) + " -> " +
            scheme.universe().Name(determined) + " is embedded in " +
            r.name + " although " + scheme.universe().Format(x) +
            " is not a superkey of it (it never determines " +
            scheme.universe().Name(missing) +
            "): the declared keys do not cover the projected dependencies",
        {i},
        UnsoundCoverWitness{i, x, determined, std::move(*trace), missing}));
  }
}

void CheckReachability(SchemeAnalysis& analysis,
                       std::vector<Diagnostic>* out) {
  const DatabaseScheme& scheme = analysis.scheme();
  if (scheme.size() < 2) return;
  scheme.AllAttrs().ForEach([&](AttributeId a) {
    std::vector<size_t> outside;
    for (size_t i = 0; i < scheme.size(); ++i) {
      if (!scheme.relation(i).attrs.Contains(a)) outside.push_back(i);
    }
    if (outside.empty()) return;
    for (size_t i : outside) {
      if (analysis.FullClosure(scheme.relation(i).attrs).Contains(a)) return;
    }
    out->push_back(Make(
        RuleId::kUnreachableAttribute,
        "attribute " + scheme.universe().Name(a) +
            " is unreachable by extension joins: no relation omitting it "
            "has it in its closure, so only full joins can relate it to "
            "the rest of the scheme",
        outside, UnreachableAttributeWitness{a, outside}));
  });
}

}  // namespace

size_t LintReport::CountSeverity(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

LintReport LintScheme(SchemeAnalysis& analysis, const LintOptions& options) {
  const DatabaseScheme& scheme = analysis.scheme();
  LintReport report;
  if (scheme.size() == 0) return report;
  CheckCoverage(scheme, &report.diagnostics);
  CheckDuplicates(scheme, &report.diagnostics);
  CheckKeys(analysis, &report.diagnostics);
  CheckKeyEquivalence(scheme, &report.diagnostics);
  RecognitionResult recognition = RecognizeIndependenceReducible(analysis);
  CheckSplitKeys(analysis, recognition.partition, options,
                 &report.diagnostics);
  CheckRecognition(recognition, &report.diagnostics);
  CheckGammaCycle(scheme, &report.diagnostics);
  CheckEmbeddedCover(analysis, &report.diagnostics);
  CheckReachability(analysis, &report.diagnostics);
  return report;
}

LintReport LintScheme(const DatabaseScheme& scheme,
                      const LintOptions& options) {
  SchemeAnalysis analysis(scheme);
  return LintScheme(analysis, options);
}

}  // namespace ird::diagnostics
