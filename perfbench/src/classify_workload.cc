// The `classify` workload: a seeded corpus of schemes from every generator
// family, rendered to text, each request parsing one scheme and classifying
// it (Algorithm 6 plus the Lemma 3.8 split test) on a fresh SchemeAnalysis,
// fanned out over a 2-worker BatchAnalyzer as `ird_lint --jobs 2` does.

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "core/classify.h"
#include "core/independence.h"
#include "core/key_equivalence.h"
#include "core/recognition.h"
#include "core/split.h"
#include "engine/batch.h"
#include "engine/scheme_analysis.h"
#include "hypergraph/gamma_cycle.h"
#include "hypergraph/hypergraph.h"
#include "io/text_format.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "oracle/naive_recognition.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using ird::DatabaseScheme;

constexpr size_t kWorkers = 2;
// FindGammaCycle refuses hypergraphs above this many edges.
constexpr size_t kMaxAcyclicityRelations = 16;
// The oracle enumerates set partitions (Bell(n) of them); random schemes
// stay at or below this size so every one of them can be checked.
constexpr size_t kMaxRandomRelations = 9;

enum class Family { kRandom, kTree, kBlock, kIndependent, kSplit, kStar };

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kRandom: return "random";
    case Family::kTree: return "tree";
    case Family::kBlock: return "block";
    case Family::kIndependent: return "independent";
    case Family::kSplit: return "split";
    case Family::kStar: return "star";
  }
  return "?";
}

struct CorpusEntry {
  Family family = Family::kRandom;
  std::string text;
  size_t relations = 0;
  // kBlock: the number of blocks; kIndependent: the number of relations.
  size_t blocks = 0;
};

// Everything a request returns, compared across rounds and checked
// against the family's documented class.
struct Verdict {
  bool parsed = false;
  size_t relations = 0;
  bool valid = false;
  bool bcnf = false;
  bool lossless = false;
  bool independent = false;
  bool key_equivalent = false;
  bool acyclicity_tested = false;
  bool gamma_acyclic = false;
  bool alpha_acyclic = false;
  bool accepted = false;
  size_t blocks = 0;
  bool split_free = false;
  bool ctm = false;

  bool operator==(const Verdict&) const = default;
};

// The family mix and the sizes are stratified: entry i is of family
// slot i % 10 (4 random, 2 tree, then block, independent, split, star),
// and each family walks its size range in turn. Only the schemes'
// contents and the order come from the seed, so every seed's corpus costs
// about the same to classify.
std::vector<CorpusEntry> MakeCorpus(uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<CorpusEntry> corpus;
  corpus.reserve(count);
  size_t made[10] = {};
  auto cycle = [](size_t k, size_t lo, size_t hi) {
    return lo + k % (hi - lo + 1);
  };
  while (corpus.size() < count) {
    CorpusEntry entry;
    size_t slot = corpus.size() % 10;
    size_t k = made[slot];
    std::optional<DatabaseScheme> scheme;
    if (slot < 4) {
      entry.family = Family::kRandom;
      ird::RandomSchemeOptions opt;
      opt.universe_size = 4 + rng() % 6;
      opt.relations = cycle(k, 3, kMaxRandomRelations);
      opt.min_arity = 2;
      opt.max_arity = std::min<size_t>(4, opt.universe_size);
      opt.multi_key_prob = 0.3;
      opt.seed = rng();
      scheme = ird::MakeRandomScheme(opt);
      // Rare saturated draws fail validation; the corpus keeps only
      // schemes the classifier's preconditions hold for, redrawn at the
      // same size.
      if (!scheme->Validate().ok()) continue;
    } else if (slot < 6) {
      entry.family = Family::kTree;
      double bidirectional = 0.25 * static_cast<double>(1 + rng() % 3);
      scheme = ird::MakeTreeScheme(cycle(k, 4, 24), bidirectional, rng());
    } else if (slot == 6) {
      entry.family = Family::kBlock;
      entry.blocks = cycle(k, 1, 4);
      scheme = ird::MakeBlockScheme(entry.blocks, cycle(k / 4, 2, 4));
    } else if (slot == 7) {
      entry.family = Family::kIndependent;
      entry.blocks = cycle(k, 2, 12);
      scheme = ird::MakeIndependentScheme(entry.blocks);
    } else if (slot == 8) {
      entry.family = Family::kSplit;
      scheme = ird::MakeSplitScheme(cycle(k, 2, 4));
    } else {
      entry.family = Family::kStar;
      scheme = ird::MakeStarScheme(cycle(k, 2, 16));
    }
    ++made[slot];
    entry.relations = scheme->size();
    entry.text = ird::FormatScheme(*scheme);
    corpus.push_back(std::move(entry));
  }
  std::shuffle(corpus.begin(), corpus.end(), rng);
  return corpus;
}

Verdict FromClassification(const ird::SchemeClassification& c,
                           size_t relations, bool acyclicity) {
  Verdict v;
  v.parsed = true;
  v.relations = relations;
  v.valid = c.valid.ok();
  v.bcnf = c.bcnf;
  v.lossless = c.lossless;
  v.independent = c.independent;
  v.key_equivalent = c.key_equivalent;
  v.acyclicity_tested = acyclicity;
  v.gamma_acyclic = c.gamma_acyclic;
  v.alpha_acyclic = c.alpha_acyclic;
  v.accepted = c.independence_reducible;
  v.blocks = c.recognition.partition.size();
  v.split_free = c.split_free;
  v.ctm = c.ctm;
  return v;
}

// One request: parse, then ClassifyScheme on a fresh SchemeAnalysis.
Verdict Classify(const std::string& text) {
  ird::Result<ird::ParsedDatabase> parsed = ird::ParseDatabaseText(text);
  if (!parsed.ok()) return Verdict{};
  const DatabaseScheme& scheme = parsed->scheme;
  bool acyclicity = scheme.size() <= kMaxAcyclicityRelations;
  ird::SchemeAnalysis analysis(scheme);
  return FromClassification(ird::ClassifyScheme(analysis, acyclicity),
                            scheme.size(), acyclicity);
}

// The same request with ClassifyScheme's steps called one by one, each
// under a span (core/classify.cc is the sequence replayed here).
Verdict ClassifyTraced(const std::string& text, Tracer* tracer) {
  Tracer::Request request(tracer);
  std::optional<ird::Result<ird::ParsedDatabase>> parsed;
  {
    Tracer::Span span(tracer, Layer::kIoParse);
    parsed.emplace(ird::ParseDatabaseText(text));
  }
  if (!parsed->ok()) return Verdict{};
  const DatabaseScheme& scheme = (*parsed)->scheme;
  bool acyclicity = scheme.size() <= kMaxAcyclicityRelations;
  ird::SchemeAnalysis analysis(scheme);
  ird::SchemeClassification c;
  {
    Tracer::Span span(tracer, Layer::kSchemaValidate);
    c.valid = scheme.Validate();
  }
  {
    Tracer::Span span(tracer, Layer::kSchemaBcnf);
    c.bcnf = scheme.IsBcnf();
  }
  {
    Tracer::Span span(tracer, Layer::kTableauLossless);
    c.lossless = ird::IsLossless(analysis);
  }
  {
    Tracer::Span span(tracer, Layer::kCoreIndependent);
    c.independent = ird::IsIndependent(analysis);
  }
  {
    Tracer::Span span(tracer, Layer::kCoreKeyEquivalent);
    c.key_equivalent = ird::IsKeyEquivalent(analysis);
  }
  if (acyclicity) {
    std::optional<ird::Hypergraph> h;
    {
      Tracer::Span span(tracer, Layer::kHypergraphGamma);
      h.emplace(ird::Hypergraph::Of(scheme));
      c.gamma_acyclic = !ird::FindGammaCycle(*h).has_value();
    }
    {
      Tracer::Span span(tracer, Layer::kHypergraphAlpha);
      c.alpha_acyclic = ird::IsAlphaAcyclic(*h);
    }
  }
  {
    Tracer::Span span(tracer, Layer::kCoreRecognize);
    c.recognition = ird::RecognizeIndependenceReducible(analysis);
  }
  c.independence_reducible = c.recognition.accepted;
  if (c.independence_reducible) {
    Tracer::Span span(tracer, Layer::kCoreSplit);
    c.split_free = true;
    for (const std::vector<size_t>& block : c.recognition.partition) {
      if (!ird::IsSplitFree(analysis, block)) c.split_free = false;
    }
    c.ctm = c.split_free;
  }
  return FromClassification(c, scheme.size(), acyclicity);
}

// "" when `v` is what the generator family documents (and, for random
// schemes, what the independent oracle derives); otherwise the mismatch.
std::string CheckVerdict(const CorpusEntry& entry, const Verdict& v) {
  auto fail = [&](const char* what) {
    return std::string(FamilyName(entry.family)) + " scheme: " + what;
  };
  if (!v.parsed) return fail("did not parse");
  if (v.relations != entry.relations) return fail("relation count changed");
  if (!v.valid) return fail("failed Validate");
  if (v.acyclicity_tested != (entry.relations <= kMaxAcyclicityRelations)) {
    return fail("acyclicity tested on the wrong side of the 16-edge limit");
  }
  switch (entry.family) {
    case Family::kRandom: {
      ird::Result<ird::ParsedDatabase> parsed =
          ird::ParseDatabaseText(entry.text);
      if (!parsed.ok()) return fail("did not re-parse");
      ird::oracle::OracleClassification o =
          ird::oracle::ClassifySchemeOracle(parsed->scheme);
      if (v.lossless != o.lossless) return fail("lossless != oracle");
      if (v.independent != o.independent) return fail("independent != oracle");
      if (v.key_equivalent != o.key_equivalent) {
        return fail("key-equivalent != oracle");
      }
      if (v.accepted != o.independence_reducible) {
        return fail("independence-reducible != oracle");
      }
      if (v.split_free != o.split_free) return fail("split-free != oracle");
      if (v.ctm != o.ctm) return fail("ctm != oracle");
      return "";
    }
    case Family::kTree:
    case Family::kStar:
      // Theorem 5.2: gamma-acyclic BCNF schemes are accepted.
      if (!v.bcnf || !v.accepted) return fail("not accepted");
      if (v.acyclicity_tested && !(v.gamma_acyclic && v.alpha_acyclic)) {
        return fail("not acyclic");
      }
      return "";
    case Family::kBlock:
      if (!v.accepted || v.blocks != entry.blocks || !v.ctm) {
        return fail("not accepted as split-free blocks");
      }
      return "";
    case Family::kIndependent:
      if (!v.independent || !v.accepted || v.blocks != entry.blocks ||
          !v.ctm) {
        return fail("not accepted as independent singleton blocks");
      }
      return "";
    case Family::kSplit:
      if (!v.key_equivalent || !v.accepted || v.blocks != 1 || v.split_free ||
          v.ctm) {
        return fail("not accepted as one split block");
      }
      return "";
  }
  return fail("unknown family");
}

// One round over `corpus` on a fresh 2-worker pool (one batch per pool).
struct Round {
  int64_t wall_ns = 0;
  std::vector<int64_t> per_scheme_ns;
  std::vector<Verdict> verdicts;
};

Round RunRound(const std::vector<CorpusEntry>& corpus, Tracer* tracer) {
  Round round;
  const size_t n = corpus.size();
  round.per_scheme_ns.resize(n);
  round.verdicts.resize(n);
  ird::BatchAnalyzer pool(kWorkers);
  int64_t t0 = NowNs();
  pool.ForEachIndex(n, [&](size_t i) {
    int64_t s = NowNs();
    round.verdicts[i] = tracer == nullptr
                            ? Classify(corpus[i].text)
                            : ClassifyTraced(corpus[i].text, tracer);
    round.per_scheme_ns[i] = NowNs() - s;
  });
  round.wall_ns = NowNs() - t0;
  return round;
}

// The rounds of one kind (untraced or traced), accumulated. Every round's
// verdicts must repeat the first round's.
struct Pass {
  size_t rounds = 0;
  std::vector<double> round_rates;
  int64_t wall_ns = 0;
  int64_t busy_ns = 0;
  std::vector<double> latency_us;
  std::vector<Verdict> first_round;
  size_t round_mismatches = 0;

  // Records `round`; unless `measured`, only its verdicts count.
  void Add(const Round& round, bool measured) {
    if (rounds++ == 0) {
      first_round = round.verdicts;
    } else {
      for (size_t i = 0; i < round.verdicts.size(); ++i) {
        if (!(round.verdicts[i] == first_round[i])) ++round_mismatches;
      }
    }
    if (!measured) return;
    wall_ns += round.wall_ns;
    round_rates.push_back(static_cast<double>(round.verdicts.size()) /
                          (static_cast<double>(round.wall_ns) / 1e9));
    for (int64_t ns : round.per_scheme_ns) {
      busy_ns += ns;
      latency_us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
};

}  // namespace

void RunClassify(const RunConfig& config, Report* report) {
  const size_t corpus_size = config.smoke ? 60 : 4096;
  std::vector<CorpusEntry> corpus = MakeCorpus(config.seed, corpus_size);
  report->Info("jobs", "classify pool 2 workers, one batch per pool");
  report->Info("corpus_schemes", std::to_string(corpus.size()));
  report->Info("tuples_start", "n/a (classify holds no state)");
  report->Info("tuples_end", "n/a (classify holds no state)");
  report->Info("insert_dup_share", "n/a (classify inserts nothing)");
  report->Info("plan_cache_hit_ratio", "n/a (classify answers no queries)");

  // Set-up: start the pool and classify a fixed, seed-independent warm-up
  // set once; the median of several repetitions.
  std::vector<CorpusEntry> warmup = MakeCorpus(0x5e7u, config.smoke ? 8 : 512);
  std::vector<double> setup_s;
  for (int rep = 0; rep < (config.smoke ? 1 : 9); ++rep) {
    int64_t t0 = NowNs();
    {
      ird::BatchAnalyzer pool(kWorkers);
      pool.ForEachIndex(warmup.size(), [&](size_t i) {
        (void)Classify(warmup[i].text);
      });
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Untraced rounds until the measured time is used up; the first only
  // warms the allocator and caches (smoke runs have one measured round).
  // A traced run spends half the time on untraced rounds and follows each
  // with a traced round, so both sides of obs.overhead_frac see the same
  // stretch of machine time.
  double seconds = config.trace ? config.seconds / 2 : config.seconds;
  std::optional<Tracer> tracer;
  std::optional<ird::obs::ObsContext> ctx;
  if (config.trace) {
    tracer.emplace(200000);
    ctx.emplace("perfbench.classify.traced");
  }
  Pass pass;
  Pass traced;
  double rss_mb = 0;  // peak RSS once the first round is done
  for (size_t round = 0;; ++round) {
    const bool warmup = round == 0 && !config.smoke;
    {
      ird::obs::ObsContextScope untraced(nullptr);
      pass.Add(RunRound(corpus, nullptr), !warmup);
    }
    if (round == 0) rss_mb = PeakRssMb();
    if (warmup) continue;
    if (config.trace) traced.Add(RunRound(corpus, &*tracer), true);
    if (config.smoke || static_cast<double>(pass.wall_ns) >= seconds * 1e9) {
      break;
    }
  }

  // Result checks, outside every timed region. Every round's verdicts
  // are checked, the warm-up round's too.
  report->AddAttempted(corpus.size() * pass.rounds);
  size_t accepted = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string problem = CheckVerdict(corpus[i], pass.first_round[i]);
    if (!problem.empty()) {
      // The verdict is wrong in every round it was repeated in.
      for (size_t r = 0; r < pass.rounds; ++r) report->Fail(problem);
    }
    accepted += pass.first_round[i].accepted ? 1 : 0;
  }
  for (size_t k = 0; k < pass.round_mismatches; ++k) {
    report->Fail("a verdict changed between rounds");
  }
  report->Info("rounds", std::to_string(pass.round_rates.size()) +
                            " measured after " +
                            std::to_string(pass.rounds -
                                           pass.round_rates.size()) +
                            " warm-up");
  report->Info("accepted_share", static_cast<double>(accepted) /
                                     static_cast<double>(corpus.size()));
  // Every round is the same corpus: the median round is the throughput.
  double untraced_ops = Median(pass.round_rates);

  if (!config.trace) {
    std::vector<double> lat = pass.latency_us;
    report->Metric("ops_per_s", untraced_ops, "ops/s");
    report->Metric("latency_p50_us", Percentile(&lat, 0.50), "us");
    report->Metric("latency_p99_us",
                   WindowedP99(pass.latency_us, P99Window(corpus.size())),
                   "us");
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("rss_peak_mb", rss_mb, "MB");
    report->Info("requests", std::to_string(pass.latency_us.size()));
    return;
  }

  ird::obs::Snapshot snap = ird::obs::ContextSnapshot(*ctx);
  report->AddAttempted(corpus.size() * traced.rounds);
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!(traced.first_round[i] == pass.first_round[i])) {
      report->Fail("traced verdict differs from the untraced one");
    }
  }
  for (size_t k = 0; k < traced.round_mismatches; ++k) {
    report->Fail("a traced verdict changed between rounds");
  }
  double ops = static_cast<double>(traced.latency_us.size());
  double traced_ops = Median(traced.round_rates);
  report->Info("untraced_ops_per_s", untraced_ops);
  report->Info("traced_ops_per_s", traced_ops);
  LayerExtras extras;
  extras.pool_busy_frac = static_cast<double>(pass.busy_ns) /
                          (kWorkers * static_cast<double>(pass.wall_ns));
  extras.overhead_frac = 1 - traced_ops / untraced_ops;
  FinishTraced(config, *tracer, snap, ops, extras, report);
}

}  // namespace perfbench
