#include "oracle/differential.h"

#include <optional>
#include <random>
#include <unordered_set>

#include "core/classify.h"
#include "core/ctm_maintainer.h"
#include "core/expression_maintenance.h"
#include "core/independence.h"
#include "core/independence_witness.h"
#include "core/kep.h"
#include "core/key_equivalence.h"
#include "core/key_equivalent_maintainer.h"
#include "core/recognition.h"
#include "core/representative_index.h"
#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "core/total_projection.h"
#include "engine/scheme_analysis.h"
#include "oracle/chase_check.h"
#include "oracle/naive_chase.h"
#include "oracle/naive_independence.h"
#include "oracle/naive_kep.h"
#include "oracle/naive_recognition.h"
#include "oracle/naive_split.h"
#include "obs/obs.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace ird::oracle {

namespace {

// Generated-state shape for the dynamic (state-level) comparisons.
constexpr size_t kStateEntities = 6;
constexpr double kStateCoverage = 0.7;
constexpr size_t kInsertCount = 8;
constexpr double kConflictRate = 0.4;
constexpr size_t kProjectionTargets = 3;
// LSAT/WSAT grounding of the independence verdict.
constexpr size_t kLsatTrials = 25;
constexpr size_t kLsatMaxTuples = 2;
constexpr size_t kLsatDomain = 2;
// Exponential-oracle guards: comparisons needing subset / set-partition
// enumeration are skipped above these relation counts.
constexpr size_t kMaxSubsetEnum = 12;
constexpr size_t kMaxPartitionEnum = 8;

std::string PartitionToString(const DatabaseScheme& scheme,
                              const std::vector<std::vector<size_t>>& blocks) {
  std::string out;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (b > 0) out += " | ";
    out += "{";
    for (size_t k = 0; k < blocks[b].size(); ++k) {
      if (k > 0) out += ",";
      out += scheme.relation(blocks[b][k]).name;
    }
    out += "}";
  }
  return out;
}

// Set comparison built here rather than on PartialRelation::SetEquals,
// whose Contains shares the dedup index with the AddUnique that
// BlockShard::Apply and algebra evaluation run.
using TupleSet = std::unordered_set<PartialTuple, PartialTupleHash>;

TupleSet AsSet(const PartialRelation& relation) {
  return TupleSet(relation.tuples().begin(), relation.tuples().end());
}

bool SameStateSets(const DatabaseState& a, const DatabaseState& b) {
  for (size_t i = 0; i < a.scheme().size(); ++i) {
    if (AsSet(a.relation(i)) != AsSet(b.relation(i))) return false;
  }
  return true;
}

bool SameInduced(const std::optional<DatabaseScheme>& a,
                 const std::optional<DatabaseScheme>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (a->size() != b->size()) return false;
  for (size_t i = 0; i < a->size(); ++i) {
    if (a->relation(i).attrs != b->relation(i).attrs ||
        a->relation(i).keys != b->relation(i).keys) {
      return false;
    }
  }
  return true;
}

bool SameRecognition(const RecognitionResult& a, const RecognitionResult& b) {
  if (a.accepted != b.accepted || a.partition != b.partition) return false;
  if (a.violation.has_value() != b.violation.has_value()) return false;
  if (a.violation.has_value() &&
      (a.violation->i != b.violation->i || a.violation->j != b.violation->j ||
       a.violation->key != b.violation->key ||
       a.violation->attribute != b.violation->attribute)) {
    return false;
  }
  return SameInduced(a.induced, b.induced);
}

class Comparator {
 public:
  Comparator(const DatabaseScheme& scheme, uint64_t seed)
      : scheme_(scheme), seed_(seed) {}

  std::vector<Disagreement> Run() {
    IRD_SPAN("oracle.compare");
    CompareStructural();
    CompareStates();
    return std::move(found_);
  }

 private:
  void Report(std::string routine, std::string detail) {
    found_.push_back({std::move(routine), std::move(detail)});
  }

  void Expect(bool agree, const std::string& routine, std::string detail) {
    IRD_COUNT(oracle.comparisons);
    if (!agree) Report(routine, std::move(detail));
  }

  void CompareStructural() {
    const size_t n = scheme_.size();

    // Losslessness: BMSU closure shortcut vs optimized chase vs naive chase.
    bool lossless_naive = IsLosslessNaive(scheme_);
    {
      SchemeAnalysis analysis(scheme_);
      Expect(IsLossless(analysis) == lossless_naive, "lossless/bmsu",
             "IsLossless disagrees with the chased scheme tableau");
    }
    Expect(IsLosslessByChase(scheme_) == lossless_naive, "lossless/chase",
           "optimized chase disagrees with exhaustive chase on T_R");

    // Chase implementations: delta-driven vs pass-based vs exhaustive
    // pairwise, on the scheme tableau and generated state tableaux (final
    // canonical tableau, consistency verdict and equate count must agree).
    {
      Status chase = ChaseSelfCheck(scheme_, seed_ + 7);
      Expect(chase.ok(), "tableau/chase-vs-naive",
             chase.ok() ? "" : chase.ToString());
    }

    // Key-equivalence: Algorithm 3 vs the FD-closure definition.
    bool ke = IsKeyEquivalent(scheme_);
    Expect(ke == IsKeyEquivalentOracle(scheme_), "key-equivalence/alg3",
           "Algorithm 3 scheme closures disagree with naive FD closures");

    // Split analysis, key by key, over the whole scheme.
    for (const auto& [rel, key] : scheme_.AllKeys()) {
      bool oracle_split = IsKeySplitOracle(scheme_, key);
      std::string which = "key " + scheme_.universe().Format(key) + " of " +
                          scheme_.relation(rel).name;
      Expect(IsKeySplit(scheme_, key) == oracle_split, "split/lemma38",
             "Lemma 3.8 disagrees with the computation walk on " + which);
      Expect(IsKeySplitByDefinition(scheme_, key) == oracle_split,
             "split/definition-bfs",
             "closure-state BFS disagrees with the computation walk on " +
                 which);
    }

    // Independence: uniqueness condition plus its semantic grounding.
    bool independent = IsIndependent(scheme_);
    Expect(independent == IsIndependentOracle(scheme_),
           "independence/uniqueness",
           "ClosureEngine uniqueness test disagrees with naive closures");
    if (independent) {
      std::optional<DatabaseState> gap =
          SearchLsatWsatGap(scheme_, kLsatTrials, kLsatMaxTuples,
                            kLsatDomain, seed_ + 101);
      Expect(!gap.has_value(), "independence/lsat-wsat",
             "scheme declared independent but a locally consistent, "
             "globally inconsistent state exists");
    } else {
      Result<DatabaseState> witness = BuildDependenceWitness(scheme_);
      if (!witness.ok()) {
        Report("independence/witness",
               "scheme declared dependent but BuildDependenceWitness "
               "failed: " +
                   witness.status().ToString());
      } else {
        Expect(IsLocallyConsistent(*witness) && !IsConsistentNaive(*witness),
               "independence/witness",
               "constructed dependence witness is not an LSAT/WSAT gap "
               "under the exhaustive chase");
      }
    }

    // KEP vs maximal key-equivalent subsets.
    RecognitionResult recognition = RecognizeIndependenceReducible(scheme_);
    if (n <= kMaxSubsetEnum) {
      std::vector<std::vector<size_t>> maximal =
          MaximalKeyEquivalentSubsets(scheme_);
      Expect(recognition.partition == maximal, "kep/partition",
             "KEP = " + PartitionToString(scheme_, recognition.partition) +
                 " but maximal key-equivalent subsets = " +
                 PartitionToString(scheme_, maximal));
    }

    // Recognition: Algorithm 6 vs set-partition enumeration, plus an
    // unconditional audit of the accepting partition.
    if (n <= kMaxPartitionEnum) {
      Expect(recognition.accepted == IsIndependenceReducibleOracle(scheme_),
             "recognition/alg6",
             std::string("Algorithm 6 ") +
                 (recognition.accepted ? "accepted" : "rejected") +
                 " but partition enumeration says otherwise");
    }
    if (recognition.accepted) {
      for (const std::vector<size_t>& block : recognition.partition) {
        Expect(IsKeyEquivalentOracle(scheme_, block), "recognition/blocks",
               "accepted block " +
                   PartitionToString(scheme_, {block}) +
                   " is not key-equivalent by the oracle");
      }
      Expect(IsIndependentOracle(*recognition.induced),
             "recognition/induced",
             "accepted induced scheme is not independent by the oracle");
    }

    // Engine determinism: a SchemeAnalysis-backed recognition — cold (fresh
    // caches) and warm (every slot, cover and memo already filled) — must
    // reproduce the wrapper's result bit for bit, and the split keys of
    // the warm analysis must match a fresh one's. The oracle layer itself
    // deliberately never adopts the shared context (see docs/TESTING.md);
    // these checks are the bridge that keeps the memoized engine honest.
    {
      SchemeAnalysis analysis(scheme_);
      RecognitionResult cold = RecognizeIndependenceReducible(analysis);
      Expect(SameRecognition(cold, recognition), "engine/recognition",
             "SchemeAnalysis-backed recognition disagrees with the "
             "scheme-level wrapper");
      RecognitionResult warm = RecognizeIndependenceReducible(analysis);
      Expect(SameRecognition(warm, cold), "engine/recognition-cached",
             "fully cached recognition differs from the cold run on the "
             "same analysis");
      Expect(SplitKeys(analysis) == SplitKeys(scheme_), "engine/split-keys",
             "split keys of the warm analysis disagree with a fresh one's");
    }

    // Classification flags vs the oracle-assembled report.
    if (n <= kMaxPartitionEnum) {
      SchemeClassification c = ClassifyScheme(scheme_, false);
      OracleClassification o = ClassifySchemeOracle(scheme_);
      Expect(c.lossless == o.lossless, "classify/lossless", "lossless flag");
      Expect(c.independent == o.independent, "classify/independent",
             "independent flag");
      Expect(c.key_equivalent == o.key_equivalent, "classify/key-equivalent",
             "key-equivalent flag");
      Expect(c.independence_reducible == o.independence_reducible,
             "classify/reducible", "independence-reducible flag");
      Expect(c.split_free == o.split_free, "classify/split-free",
             "split-free flag");
      Expect(c.ctm == o.ctm, "classify/ctm", "ctm flag (Theorem 5.5)");
    }
  }

  void CompareStates() {
    StateGenOptions state_opt;
    state_opt.entities = kStateEntities;
    state_opt.coverage = kStateCoverage;
    state_opt.seed = seed_ + 1;
    DatabaseState state = MakeConsistentState(scheme_, state_opt);

    // Consistency of the generated state: true by construction, and the
    // optimized chase must agree with the exhaustive one.
    bool naive_consistent = IsConsistentNaive(state);
    Expect(naive_consistent, "chase/generator",
           "MakeConsistentState produced a state the exhaustive chase "
           "rejects");
    Expect(IsConsistent(state) == naive_consistent, "chase/consistency",
           "optimized chase disagrees with exhaustive chase on the "
           "generated state");
    if (!naive_consistent) return;  // everything below assumes consistency

    RecognitionResult recognition = RecognizeIndependenceReducible(scheme_);
    bool ke = IsKeyEquivalent(scheme_);
    bool ctm = ke && IsSplitFree(scheme_);

    // Total projections: predetermined expressions and the representative
    // index vs the exhaustive chase.
    std::mt19937_64 rng(seed_ + 2);
    if (recognition.accepted) {
      for (size_t round = 0; round < kProjectionTargets; ++round) {
        AttributeSet x = RandomTarget(rng);
        Result<PartialRelation> naive = TotalProjectionNaive(state, x);
        if (!naive.ok()) continue;
        PartialRelation bounded = TotalProjection(state, recognition, x);
        Expect(AsSet(bounded) == AsSet(*naive), "projection/theorem41",
               "bounded expression for [" + scheme_.universe().Format(x) +
                   "] disagrees with the exhaustive chase");
        Result<PartialRelation> chased = TotalProjectionByChase(state, x);
        Expect(chased.ok() && AsSet(*chased) == AsSet(*naive),
               "projection/chase",
               "optimized-chase [" + scheme_.universe().Format(x) +
                   "] disagrees with the exhaustive chase");
      }
    }
    std::optional<RepresentativeIndex> rep;
    if (ke) {
      Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
      if (!index.ok()) {
        Report("projection/algorithm1",
               "RepresentativeIndex::Build failed on a consistent state: " +
                   index.status().ToString());
      } else {
        rep.emplace(std::move(index).value());
        for (const RelationScheme& r : scheme_.relations()) {
          Result<PartialRelation> naive = TotalProjectionNaive(state, r.attrs);
          Expect(naive.ok() &&
                     AsSet(rep->TotalProjection(r.attrs)) == AsSet(*naive),
                 "projection/algorithm1",
                 "representative index [" + r.name +
                     "] disagrees with the exhaustive chase");
        }
      }
    }

    // Maintenance kernels vs re-chasing exhaustively, each insert judged
    // against the initial state: Algorithm 2 on the representative
    // instance, Algorithm 5 on a key-indexed copy of the raw state, and the
    // §3.2 expression lookup.
    std::optional<ExpressionLookupPlan> plan;
    if (ke) plan.emplace(ExpressionLookupPlan::Build(scheme_));
    std::vector<size_t> pool(scheme_.size());
    for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
    std::optional<DatabaseState> keyed;
    if (ctm) {
      keyed.emplace(state);
      Status indexed = keyed->IndexKeys(pool);
      if (!indexed.ok()) {
        Report("maintenance/alg5",
               "IndexKeys failed on a consistent state: " +
                   indexed.ToString());
        keyed.reset();
      }
    }

    std::vector<InsertInstance> stream = MakeInsertStream(
        scheme_, state, kInsertCount, kConflictRate, seed_ + 3);
    for (const InsertInstance& ins : stream) {
      bool truth = WouldRemainConsistentNaive(state, ins.rel, ins.tuple);
      std::string which = Which(ins);
      Expect(truth == ins.expected_consistent, "chase/stream-generator",
             "MakeInsertStream mislabeled " + which);
      Expect(WouldRemainConsistent(state, ins.rel, ins.tuple) == truth,
             "chase/maintenance",
             "optimized chase disagrees with exhaustive chase on " + which);
      if (rep.has_value()) {
        Expect(CheckInsertKeyEquivalent(scheme_, *rep, ins.rel, ins.tuple)
                       .ok() == truth,
               "maintenance/alg2", "Algorithm 2 misjudges " + which);
      }
      if (plan.has_value()) {
        Result<PartialTuple> expr = CheckInsertByExpressions(
            scheme_, *plan, state, ins.rel, ins.tuple);
        Expect(expr.ok() == truth, "maintenance/expressions",
               "§3.2 expression lookup misjudges " + which);
      }
      if (keyed.has_value()) {
        Expect(CheckInsertCtm(*keyed, pool, ins.rel, ins.tuple).ok() == truth,
               "maintenance/alg5", "Algorithm 5 misjudges " + which);
      }
    }

    if (recognition.accepted) {
      // The first half of the stream was drawn from the initial state.
      stream.resize(stream.size() - stream.size() / 2);
      CompareStateful(state, stream);
    }
  }

  // The one stateful engine vs the exhaustive chase on the accumulated
  // state. A ShardedMaintainer takes the stream serially; the oracle side
  // grows its own copy of the state with Add, so the ground truth shares
  // no dedup or index code with BlockShard::Apply. Every verdict is held
  // to WouldRemainConsistentNaive and every accepted insert is followed by
  // one random [X] held to TotalProjectionNaive. The stream's second half
  // is drawn from the accumulated state, so its conflicts can hit tuples
  // the stream itself inserted — an Apply that forgets an index update
  // accepts them. Finally an InsertBatch replay of the whole stream on a
  // fresh maintainer must repeat the serial verdicts op for op and land
  // on the same final state as a set.
  void CompareStateful(const DatabaseState& initial,
                       const std::vector<InsertInstance>& first_half) {
    constexpr char kRoutine[] = "maintenance/stateful";
    Result<ShardedMaintainer> serial_r = ShardedMaintainer::Create(initial);
    if (!serial_r.ok()) {
      Report(kRoutine, "ShardedMaintainer rejected a consistent state: " +
                           serial_r.status().ToString());
      return;
    }
    ShardedMaintainer serial = std::move(serial_r).value();
    DatabaseState truth_state = initial;
    std::mt19937_64 rng(seed_ + 5);
    std::vector<InsertOp> ops;
    std::vector<bool> verdicts;
    // Returns false at the first wrong verdict: the engine's state and the
    // oracle's have parted, so later checks would only repeat the report.
    auto replay = [&](const std::vector<InsertInstance>& part) {
      for (const InsertInstance& ins : part) {
        bool truth =
            WouldRemainConsistentNaive(truth_state, ins.rel, ins.tuple);
        bool accepted = serial.Insert(ins.rel, ins.tuple).ok();
        Expect(accepted == truth, kRoutine,
               "op " + std::to_string(ops.size()) + " " +
                   (accepted ? "accepted " : "rejected ") + Which(ins) +
                   " against the exhaustive chase of the accumulated state");
        if (accepted != truth) return false;
        ops.push_back({ins.rel, ins.tuple});
        verdicts.push_back(accepted);
        if (!accepted) continue;
        truth_state.mutable_relation(ins.rel).Add(ins.tuple);
        AttributeSet x = RandomTarget(rng);
        Result<PartialRelation> naive = TotalProjectionNaive(truth_state, x);
        Expect(naive.ok() &&
                   AsSet(serial.TotalProjection(x)) == AsSet(*naive),
               kRoutine,
               "total projection [" + scheme_.universe().Format(x) +
                   "] after op " + std::to_string(ops.size() - 1) +
                   " disagrees with the exhaustive chase");
      }
      return true;
    };
    if (!replay(first_half)) return;
    std::vector<InsertInstance> second_half = MakeInsertStream(
        scheme_, truth_state, kInsertCount - first_half.size(), kConflictRate,
        seed_ + 4);
    if (!replay(second_half)) return;
    Expect(SameStateSets(serial.Materialize(), truth_state), kRoutine,
           "serial final state differs from the oracle's as a set");

    Result<ShardedMaintainer> batch_r = ShardedMaintainer::Create(initial);
    if (!batch_r.ok()) {
      Report(kRoutine, "a second ShardedMaintainer rejected the state: " +
                           batch_r.status().ToString());
      return;
    }
    ShardedMaintainer batch = std::move(batch_r).value();
    std::vector<Status> batch_verdicts = batch.InsertBatch(ops);
    for (size_t i = 0; i < ops.size(); ++i) {
      Expect(batch_verdicts[i].ok() == verdicts[i], kRoutine,
             "InsertBatch verdict on op " + std::to_string(i) +
                 " differs from the serial run: " +
                 batch_verdicts[i].ToString());
    }
    Expect(SameStateSets(batch.Materialize(), truth_state), kRoutine,
           "InsertBatch final state differs from the oracle's as a set");
  }

  // A random non-empty projection target: each attribute with
  // probability 1/3.
  AttributeSet RandomTarget(std::mt19937_64& rng) const {
    std::vector<AttributeId> all = scheme_.AllAttrs().ToVector();
    AttributeSet x;
    for (AttributeId a : all) {
      if (rng() % 3 == 0) x.Add(a);
    }
    if (x.Empty()) x.Add(all[rng() % all.size()]);
    return x;
  }

  std::string Which(const InsertInstance& ins) const {
    return "insert " + ins.tuple.ToString(scheme_.universe()) + " into " +
           scheme_.relation(ins.rel).name;
  }

  const DatabaseScheme& scheme_;
  const uint64_t seed_;
  std::vector<Disagreement> found_;
};

}  // namespace

std::vector<Disagreement> CompareAgainstOracles(const DatabaseScheme& scheme,
                                                uint64_t seed) {
  return Comparator(scheme, seed).Run();
}

bool DisagreesOn(const DatabaseScheme& scheme, uint64_t seed,
                 const std::string& routine) {
  for (const Disagreement& d : CompareAgainstOracles(scheme, seed)) {
    if (d.routine == routine) return true;
  }
  return false;
}

}  // namespace ird::oracle
