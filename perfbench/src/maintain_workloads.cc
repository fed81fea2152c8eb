// The `insert` and `query` workloads over the split-chain scheme. insert:
// a stream of 64-op ShardedMaintainer::InsertBatch calls at jobs 1 on a
// 20,000-entity state. query: [X] through ShardedMaintainer::
// TotalProjection on a 500-entity state, each query followed by one 8-op
// batch of extends and conflicts.

#include <algorithm>
#include <bitset>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "algebra/expression.h"
#include "common.h"
#include "core/block_shard.h"
#include "core/maintain_scratch.h"
#include "core/recognition.h"
#include "core/sharded_maintainer.h"
#include "core/sharded_state.h"
#include "core/split.h"
#include "engine/scheme_analysis.h"
#include "io/text_format.h"
#include "maintain_common.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "oracle/naive_chase.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using ird::AttributeSet;
using ird::DatabaseState;
using ird::ExprPtr;

using ird::PartialRelation;
using ird::ShardedMaintainer;
using ird::ShardedState;
using ird::Status;

constexpr size_t kInsertBatch = 64;
constexpr size_t kQueryBatch = 8;
constexpr double kCoverage = 0.7;
constexpr uint64_t kQueryStateSeed = 500;

struct Inputs {
  std::string scheme_text;
  DatabaseState state = DatabaseState(ird::DatabaseScheme::Create());
  EntityModel model;
};

// Renders the scheme, parses it back (the maintainer runs on the parsed
// scheme, as a user loading a scheme file would), validates it and
// generates the consistent initial state.
bool MakeInputs(size_t entities, uint64_t seed, Inputs* in, Report* report) {
  in->scheme_text = ird::FormatScheme(MakeSplitChainScheme());
  ird::Result<ird::ParsedDatabase> parsed =
      ird::ParseDatabaseText(in->scheme_text);
  if (!parsed.ok()) {
    report->CheckFailed("split-chain scheme does not parse back");
    return false;
  }
  if (!parsed->scheme.Validate().ok()) {
    report->CheckFailed("split-chain scheme fails Validate");
    return false;
  }
  ird::StateGenOptions opt;
  opt.entities = entities;
  opt.coverage = kCoverage;
  opt.seed = seed;
  in->state = ird::MakeConsistentState(parsed->scheme, opt);
  std::string problem = EntityModel::FromState(in->state, entities, &in->model);
  if (!problem.empty()) {
    report->CheckFailed(problem);
    return false;
  }
  return true;
}

// Creates a maintainer from a fresh copy of `state` (the copy is not
// timed) and appends the Create time to `setup_s`. Set-up work is kept out
// of any measured phase's ObsContext.
std::optional<ShardedMaintainer> CreateTimed(const DatabaseState& state,
                                             std::vector<double>* setup_s,
                                             Report* report) {
  DatabaseState copy = state;
  ird::obs::ObsContextScope shield(nullptr);
  int64_t t0 = NowNs();
  ird::Result<ShardedMaintainer> created = ShardedMaintainer::Create(
      std::move(copy), /*jobs=*/1, /*verify_consistency=*/true);
  setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  if (!created.ok()) {
    report->CheckFailed("ShardedMaintainer::Create failed: " +
                        created.status().message());
    return std::nullopt;
  }
  return std::move(created).value();
}

// The shard layout the scheme documents: 4 blocks, one of them split.
bool CheckLayout(const ShardedState& s, Report* report) {
  size_t split = 0;
  for (size_t b = 0; b < s.shard_count(); ++b) {
    split += s.shard(b).split_free() ? 0 : 1;
  }
  if (s.shard_count() != 4 || split != 1) {
    report->CheckFailed("split-chain scheme did not shard into 4 blocks with "
                        "one split block");
    return false;
  }
  return true;
}

// Conflicts must be rejected as inconsistent, everything else accepted.
void CheckVerdicts(const std::vector<GenOp>& ops,
                   const std::vector<Status>& verdicts, Report* report) {
  for (size_t i = 0; i < ops.size(); ++i) {
    bool conflict = ops[i].kind == GenOp::Kind::kConflict;
    if (conflict) {
      if (verdicts[i].code() != ird::StatusCode::kInconsistent) {
        report->Fail("a key conflict was not rejected as inconsistent");
      }
    } else if (!verdicts[i].ok()) {
      report->Fail("a consistent insert was rejected: " +
                   verdicts[i].message());
    }
  }
}

std::vector<ird::InsertOp> ToInsertOps(const std::vector<GenOp>& ops) {
  std::vector<ird::InsertOp> out;
  out.reserve(ops.size());
  for (const GenOp& op : ops) out.push_back({op.rel, op.tuple});
  return out;
}

// One round's op stream, made once: every round replays it from a freshly
// created maintainer, so all rounds do identical work on the same range of
// state sizes.
struct Stream {
  std::vector<std::vector<GenOp>> ops;
  std::vector<std::vector<ird::InsertOp>> batches;
  size_t ops_total = 0;
  // What the model expects the system to accept, and how many of those
  // re-insert a tuple that is already present.
  size_t accepted = 0;
  size_t duplicates = 0;
};

Stream MakeStream(const EntityModel& initial, double fresh, double extend,
                  uint64_t seed, size_t batches, size_t batch_size) {
  EntityModel model = initial;  // the generator advances its own copy
  OpGenerator gen(&model, fresh, extend, seed);
  Stream stream;
  stream.ops.resize(batches);
  for (std::vector<GenOp>& ops : stream.ops) {
    gen.NextBatch(batch_size, &ops);
    stream.batches.push_back(ToInsertOps(ops));
    for (const GenOp& op : ops) {
      ++stream.ops_total;
      if (op.kind == GenOp::Kind::kConflict) continue;
      ++stream.accepted;
      stream.duplicates += op.duplicate ? 1 : 0;
    }
  }
  return stream;
}

// InsertBatch's steps at jobs 1, called one by one under spans: ops
// grouped by owning shard in arrival order, then per op the block's check
// (Algorithm 5 or 2) and Apply. With `present` set it is the probe replay
// instead: a Contains on the owning relation before each Apply times the
// dedup lookup alone and counts the tuples already there. The probe warms
// the cache for the Apply behind it, so the probe replay is kept apart
// from the replay the other spans come from.
std::vector<Status> TracedBatch(ShardedState* s, const std::vector<GenOp>& ops,
                                Tracer* tracer, size_t* present) {
  Tracer::Request request(tracer);
  std::vector<Status> verdicts(ops.size());
  std::vector<std::vector<size_t>> by_shard(s->shard_count());
  for (size_t i = 0; i < ops.size(); ++i) {
    by_shard[s->BlockOf(ops[i].rel)].push_back(i);
  }
  for (size_t b = 0; b < by_shard.size(); ++b) {
    if (by_shard[b].empty()) continue;
    ird::BlockShard& shard = s->mutable_shard(b);
    ird::MaintainScratch scratch;
    Layer check = shard.split_free() ? Layer::kCoreAlg5Check
                                     : Layer::kCoreAlg2Check;
    for (size_t i : by_shard[b]) {
      const GenOp& op = ops[i];
      std::optional<ird::Result<ird::PartialTuple>> q;
      {
        Tracer::Span span(tracer, check);
        q.emplace(shard.CheckInsert(op.rel, op.tuple, nullptr, &scratch));
      }
      if (!q->ok()) {
        verdicts[i] = q->status();
        continue;
      }
      if (present != nullptr) {
        Tracer::Span span(tracer, Layer::kRelationContains);
        *present += shard.substate().relation(op.rel).Contains(op.tuple);
      }
      Tracer::Span span(tracer, Layer::kCoreApply);
      verdicts[i] = shard.Apply(op.rel, op.tuple);
    }
  }
  return verdicts;
}

// A ShardedState for a traced replay, built with consistency verification
// as the untraced maintainer is.
std::optional<ShardedState> NewShardedState(const DatabaseState& state,
                                            Report* report) {
  ird::obs::ObsContextScope shield(nullptr);  // set-up, not a measured phase
  ird::Result<ShardedState> s = ShardedState::Create(state, true);
  if (!s.ok()) {
    report->CheckFailed("ShardedState::Create failed: " +
                        s.status().message());
    return std::nullopt;
  }
  return std::move(s).value();
}

// The probe replay of `stream` (see TracedBatch) on a fresh ShardedState:
// sets the mean Contains time and the share of accepted inserts that were
// already present.
void ProbeReplay(const DatabaseState& state, const Stream& stream,
                 LayerExtras* extras, Report* report) {
  std::optional<ShardedState> s = NewShardedState(state, report);
  if (!s) return;
  Tracer probe(0);
  size_t present = 0;
  for (size_t b = 0; b < stream.ops.size(); ++b) {
    CheckVerdicts(stream.ops[b], TracedBatch(&*s, stream.ops[b], &probe,
                                             &present),
                  report);
  }
  report->AddAttempted(stream.ops_total);
  if (present != stream.duplicates) {
    report->CheckFailed("Contains disagrees with the model on duplicates");
  }
  Tracer::LayerStat contains = probe.Stat(Layer::kRelationContains);
  extras->contains_us = contains.calls == 0
                            ? 0
                            : static_cast<double>(contains.total_ns) / 1e3 /
                                  static_cast<double>(contains.calls);
  extras->dup_frac = static_cast<double>(present) /
                     static_cast<double>(stream.accepted);
}

// ShardedState::Create's steps under spans, their results thrown away: the
// recognition, the per-block split tests and every BlockShard::Build. Also
// times the parse and validation of the scheme text.
void TracedSetUp(const Inputs& in, Tracer* tracer, Report* report) {
  ird::obs::ObsContext ctx("perfbench.setup");
  std::optional<ird::Result<ird::ParsedDatabase>> parsed;
  {
    Tracer::Span span(tracer, Layer::kIoParse);
    parsed.emplace(ird::ParseDatabaseText(in.scheme_text));
  }
  {
    Tracer::Span span(tracer, Layer::kSchemaValidate);
    if (!(*parsed)->scheme.Validate().ok()) {
      report->CheckFailed("scheme fails Validate");
    }
  }
  ird::SchemeAnalysis analysis(in.state.scheme());
  std::optional<ird::RecognitionResult> rec;
  {
    Tracer::Span span(tracer, Layer::kCoreRecognize);
    rec.emplace(ird::RecognizeIndependenceReducible(analysis));
  }
  std::vector<bool> split_free;
  {
    Tracer::Span span(tracer, Layer::kCoreSplit);
    for (const std::vector<size_t>& block : rec->partition) {
      split_free.push_back(ird::IsSplitFree(analysis, block));
    }
  }
  for (size_t b = 0; b < rec->partition.size(); ++b) {
    Tracer::Span span(tracer, Layer::kCoreShardBuild);
    ird::Result<ird::BlockShard> shard = ird::BlockShard::Build(
        in.state, rec->partition[b], split_free[b], true);
    if (!shard.ok()) report->CheckFailed("BlockShard::Build failed");
  }
  ird::obs::Snapshot snap = ird::obs::ContextSnapshot(ctx);
  std::string counters;
  for (const char* name : {"closure.computations", "kep.rounds",
                           "chase.seed_probes", "chase.reprobes"}) {
    counters += std::string(counters.empty() ? "" : " ") + name + "=" +
                std::to_string(CounterIn(snap, name));
  }
  report->Info("setup_counters", counters);
}

// Batch overhead and pool occupancy of InsertBatch, from the library's own
// shard.batch / shard.validate spans and shard.insert_ns histogram.
void BatchEngineMetrics(const ird::obs::Snapshot& untraced, size_t batches,
                        LayerExtras* extras) {
  const auto* batch = SpanIn(untraced, "shard.batch");
  const auto* validate = SpanIn(untraced, "shard.validate");
  const auto* insert = HistogramIn(untraced, "shard.insert_ns");
  if (batch == nullptr || batches == 0) return;
  double inner = insert == nullptr ? 0 : static_cast<double>(insert->sum);
  extras->batch_overhead_us = (static_cast<double>(batch->total_ns) - inner) /
                              1e3 / static_cast<double>(batches);
  if (validate != nullptr && batch->total_ns > 0) {
    extras->pool_busy_frac = static_cast<double>(validate->total_ns) /
                             static_cast<double>(batch->total_ns);
  }
}

}  // namespace

void RunInsert(const RunConfig& config, Report* report) {
  const size_t entities = config.smoke ? 300 : 20000;
  const size_t round_batches = config.smoke ? 20 : 500;
  report->Info("jobs", "InsertBatch jobs 1 (64-op batches)");
  report->Info("entities", std::to_string(entities));
  report->Info("accepted_share", "n/a (insert classifies no schemes)");
  report->Info("plan_cache_hit_ratio", "n/a (insert answers no queries)");
  Inputs in;
  if (!MakeInputs(entities, config.seed, &in, report)) return;
  const size_t tuples_start = in.state.TupleCount();
  const Stream stream =
      MakeStream(in.model, 0.4, 0.4, config.seed * 0x9e3779b97f4a7c15ull + 1,
                 round_batches, kInsertBatch);
  const size_t tuples_end = tuples_start + stream.accepted - stream.duplicates;
  report->Info("round", std::to_string(round_batches) +
                            " batches from a fresh maintainer");
  report->Info("tuples_start", std::to_string(tuples_start));
  report->Info("tuples_end", std::to_string(tuples_end));
  report->Info("insert_dup_share", static_cast<double>(stream.duplicates) /
                                       static_cast<double>(stream.accepted));

  std::vector<double> setup_s;
  for (int rep = 0; rep < (config.smoke ? 0 : 2); ++rep) {
    if (!CreateTimed(in.state, &setup_s, report)) return;
  }
  // Untraced rounds until the measured time is used up; the first only
  // warms the allocator and caches (smoke runs have one measured round).
  // A traced run spends half the time on untraced rounds and follows each
  // with a traced replay of it, so both sides of obs.overhead_frac see the
  // same stretch of machine time.
  double seconds = config.trace ? config.seconds / 2 : config.seconds;
  std::optional<ird::obs::ObsContext> ctx;
  std::optional<Tracer> tracer;
  std::optional<ird::obs::ObsContext> traced_ctx;
  if (config.trace) {
    ctx.emplace("perfbench.insert.untraced");
    tracer.emplace(200000);
    TracedSetUp(in, &*tracer, report);
    traced_ctx.emplace("perfbench.insert.traced");
  }
  std::vector<double> latency_us;
  std::vector<double> round_rates;
  std::vector<double> traced_rates;
  int64_t measured_ns = 0;
  double rss_mb = 0;  // peak RSS once the first round is done
  for (size_t round = 0;; ++round) {
    const bool warmup = round == 0 && !config.smoke;
    {
      ird::obs::ObsContextScope untraced(warmup || !ctx ? nullptr : &*ctx);
      std::optional<ShardedMaintainer> m =
          CreateTimed(in.state, &setup_s, report);
      if (!m || !CheckLayout(m->sharded_state(), report)) return;
      std::vector<double> round_latency_us;
      int64_t round_ns = 0;
      for (size_t b = 0; b < round_batches; ++b) {
        int64_t t0 = NowNs();
        std::vector<Status> verdicts = m->InsertBatch(stream.batches[b]);
        int64_t dur = NowNs() - t0;
        round_ns += dur;
        round_latency_us.push_back(static_cast<double>(dur) / 1e3);
        CheckVerdicts(stream.ops[b], verdicts, report);
      }
      if (m->sharded_state().TupleCount() != tuples_end) {
        report->CheckFailed("tuple count after a round differs from the "
                            "accepted inserts");
      }
      report->AddAttempted(stream.ops_total);
      if (round == 0) rss_mb = PeakRssMb();
      if (warmup) continue;
      latency_us.insert(latency_us.end(), round_latency_us.begin(),
                        round_latency_us.end());
      measured_ns += round_ns;
      round_rates.push_back(static_cast<double>(stream.ops_total) /
                            (static_cast<double>(round_ns) / 1e9));
    }
    if (config.trace) {
      // InsertBatch's steps under spans, on a fresh ShardedState.
      std::optional<ShardedState> s = NewShardedState(in.state, report);
      if (!s) return;
      int64_t before = tracer->request_ns();
      for (size_t b = 0; b < round_batches; ++b) {
        CheckVerdicts(stream.ops[b],
                      TracedBatch(&*s, stream.ops[b], &*tracer, nullptr),
                      report);
      }
      report->AddAttempted(stream.ops_total);
      traced_rates.push_back(
          static_cast<double>(stream.ops_total) /
          (static_cast<double>(tracer->request_ns() - before) / 1e9));
    }
    if (config.smoke || static_cast<double>(measured_ns) >= seconds * 1e9) {
      break;
    }
  }
  ird::obs::Snapshot untraced_snap;
  ird::obs::Snapshot snap;
  if (config.trace) {
    untraced_snap = ird::obs::ContextSnapshot(*ctx);
    snap = ird::obs::ContextSnapshot(*traced_ctx);
  }
  traced_ctx.reset();  // contexts end in reverse order of creation
  ctx.reset();
  report->Info("rounds", std::to_string(round_rates.size()) + " measured" +
                            (config.smoke ? "" : " after 1 warm-up"));
  report->Info("requests", std::to_string(latency_us.size()));
  const double untraced_ops = Median(round_rates);

  if (!config.trace) {
    const double p99 = WindowedP99(latency_us, P99Window(round_batches));
    report->Metric("ops_per_s", untraced_ops, "ops/s");
    report->Metric("latency_p50_us", Percentile(&latency_us, 0.50), "us");
    report->Metric("latency_p99_us", p99, "us");
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("rss_peak_mb", rss_mb, "MB");
    return;
  }

  double traced_ops = Median(traced_rates);
  report->Info("untraced_ops_per_s", untraced_ops);
  report->Info("traced_ops_per_s", traced_ops);
  LayerExtras extras;
  BatchEngineMetrics(untraced_snap, latency_us.size(), &extras);
  extras.overhead_frac = 1 - traced_ops / untraced_ops;
  ProbeReplay(in.state, stream, &extras, report);
  FinishTraced(config, *tracer, snap,
               static_cast<double>(stream.ops_total * traced_rates.size()),
               extras, report);
}

namespace {

// [X] from first principles, per entity. Entities share no values, so the
// chase never merges rows of two entities and [X] is the union of every
// entity's own [X] — at most one tuple each. Each entity's fragments are
// chased with oracle::NaiveChase once per change, and the X-total rows
// are read off for every target (oracle::TotalProjectionNaive's
// definition, with one chase shared across the targets).
class QueryOracle {
 public:
  QueryOracle(const EntityModel* model, std::vector<AttributeSet> targets)
      : model_(model), targets_(std::move(targets)) {}

  // Entity `entity` gained a tuple.
  void Touch(size_t entity) {
    Grow(entity + 1);
    stale_[entity] = true;
  }

  // "" when `answer` is [targets[k]] on the current state.
  std::string Check(size_t k, const PartialRelation& answer);

 private:
  void Grow(size_t n) {
    if (n > total_.size()) {
      total_.resize(n);
      stale_.resize(n, true);
    }
  }
  std::string Refresh(size_t entity);

  const EntityModel* model_;
  std::vector<AttributeSet> targets_;
  std::vector<std::bitset<128>> total_;
  std::vector<bool> stale_;
};

std::string QueryOracle::Refresh(size_t e) {
  const ird::DatabaseScheme& scheme = model_->scheme();
  DatabaseState fragments(scheme);
  for (size_t rel = 0; rel < scheme.size(); ++rel) {
    if (model_->Present(e, rel)) {
      fragments.mutable_relation(rel).AddUnique(model_->Project(e, rel));
    }
  }
  ird::Tableau t = ird::StateTableau(fragments);
  if (!ird::oracle::NaiveChase(&t, scheme.key_dependencies())) {
    return "an entity's own fragments are inconsistent";
  }
  total_[e].reset();
  for (size_t k = 0; k < targets_.size(); ++k) {
    for (size_t row = 0; row < t.row_count(); ++row) {
      if (t.TotalOn(row, targets_[k])) {
        total_[e].set(k);
        break;
      }
    }
  }
  stale_[e] = false;
  return "";
}

std::string QueryOracle::Check(size_t k, const PartialRelation& answer) {
  Grow(model_->entity_count());
  size_t expected = 0;
  for (size_t e = 0; e < model_->entity_count(); ++e) {
    if (model_->PresentMask(e) == 0) continue;
    if (stale_[e]) {
      std::string problem = Refresh(e);
      if (!problem.empty()) return problem;
    }
    expected += total_[e][k] ? 1 : 0;
  }
  const AttributeSet& x = targets_[k];
  if (!(answer.attrs() == x)) return "answer is on the wrong attributes";
  if (answer.size() != expected) {
    return "answer has " + std::to_string(answer.size()) + " tuples, the "
           "oracle " + std::to_string(expected);
  }
  std::vector<bool> seen(model_->entity_count(), false);
  for (const ird::PartialTuple& tuple : answer.tuples()) {
    ird::AttributeId first = x.First();
    size_t e = model_->EntityOf(tuple.At(first), first);
    if (e >= seen.size() || seen[e] || !total_[e][k]) {
      return "answer holds a tuple the oracle does not derive";
    }
    seen[e] = true;
    bool same = true;
    x.ForEach([&](ird::AttributeId a) {
      if (tuple.At(a) != model_->ValueOf(e, a)) same = false;
    });
    if (!same) return "answer tuple mixes entities' values";
  }
  return "";
}

std::vector<AttributeSet> TwoAttributeTargets(const ird::DatabaseScheme& s) {
  std::vector<AttributeSet> targets;
  AttributeSet all = s.AllAttrs();
  std::vector<ird::AttributeId> attrs = all.ToVector();
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      targets.push_back(AttributeSet{attrs[i], attrs[j]});
    }
  }
  return targets;
}

// Evaluates every subtree of `node` on its own, so that a node's self
// time is its evaluation time minus its children's. Adds self times by
// operator kind and the rows every node produced.
int64_t EvaluateSubtrees(const ird::Expression& node, const DatabaseState& st,
                         double self_us[5], double* rows) {
  int64_t children_ns = 0;
  for (const ExprPtr& child : node.children()) {
    children_ns += EvaluateSubtrees(*child, st, self_us, rows);
  }
  int64_t t0 = NowNs();
  PartialRelation out = ird::Evaluate(node, st);
  int64_t ns = NowNs() - t0;
  *rows += static_cast<double>(out.size());
  int kind = 0;
  switch (node.kind()) {
    case ird::Expression::Kind::kBase: kind = 0; break;
    case ird::Expression::Kind::kJoin: kind = 1; break;
    case ird::Expression::Kind::kProject: kind = 2; break;
    case ird::Expression::Kind::kSelect: kind = 3; break;
    case ird::Expression::Kind::kUnion: kind = 4; break;
  }
  self_us[kind] += static_cast<double>(ns - children_ns) / 1e3;
  return ns;
}

void CollectBases(const ird::Expression& e, std::vector<size_t>* out) {
  if (e.kind() == ird::Expression::Kind::kBase) {
    out->push_back(e.relation_index());
    return;
  }
  for (const ExprPtr& child : e.children()) CollectBases(*child, out);
}

// The five targets with the highest mean latency, slowest first: the
// queries the latency tail is made of.
std::string SlowestTargets(const ird::DatabaseScheme& scheme,
                           const std::vector<AttributeSet>& targets,
                           const std::vector<size_t>& asked,
                           const std::vector<double>& latency_us) {
  std::vector<double> sum(targets.size(), 0);
  std::vector<size_t> count(targets.size(), 0);
  for (size_t q = 0; q < asked.size(); ++q) {
    sum[asked[q]] += latency_us[q];
    ++count[asked[q]];
  }
  std::vector<size_t> order(targets.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  auto mean = [&](size_t k) {
    return count[k] == 0 ? 0 : sum[k] / static_cast<double>(count[k]);
  };
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return mean(a) > mean(b); });
  std::string out;
  for (size_t i = 0; i < std::min<size_t>(5, order.size()); ++i) {
    size_t k = order[i];
    std::string name;
    targets[k].ForEach(
        [&](ird::AttributeId a) {
          name += (name.empty() ? "" : ",") + scheme.universe().Name(a);
        });
    out += (i == 0 ? "[" : " [") + name + "] " +
           std::to_string(static_cast<int64_t>(mean(k))) + "us x" +
           std::to_string(count[k]);
  }
  return out;
}

struct QueryAttribution {
  double self_us[5] = {};
  double node_rows = 0;
  double answer_rows = 0;
};

// ShardedState::TotalProjection's steps under spans: the plan lookup, the
// merge of the touched shards for a cross-block plan, and Evaluate. With
// `attr` set it is the attribution replay instead: every plan subtree is
// then evaluated on its own after the request. That re-evaluation churns
// the allocator and the caches for the next request, so it is kept apart
// from the replay the spans come from.
PartialRelation TracedQuery(ShardedState* s, const AttributeSet& x,
                            Tracer* tracer, QueryAttribution* attr) {
  std::optional<PartialRelation> answer;
  std::optional<DatabaseState> merged;
  const DatabaseState* view = nullptr;
  ExprPtr plan;
  {
    Tracer::Request request(tracer);
    {
      Tracer::Span span(tracer, Layer::kCorePlanHit);
      plan = s->PlanFor(x);
    }
    if (plan == nullptr) return PartialRelation(x);
    std::vector<size_t> bases;
    CollectBases(*plan, &bases);
    std::vector<bool> touched(s->shard_count(), false);
    size_t fanout = 0;
    for (size_t rel : bases) {
      size_t b = s->BlockOf(rel);
      if (!touched[b]) {
        touched[b] = true;
        ++fanout;
      }
    }
    if (fanout <= 1) {
      view = bases.empty() ? &s->shard(0).substate()
                           : &s->shard(s->BlockOf(bases[0])).substate();
    } else {
      Tracer::Span span(tracer, Layer::kCoreMerge);
      merged.emplace(s->scheme());
      for (size_t b = 0; b < s->shard_count(); ++b) {
        if (!touched[b]) continue;
        for (size_t rel : s->shard(b).pool()) {
          merged->SetRelation(rel, s->shard(b).substate().relation(rel));
        }
      }
      view = &*merged;
    }
    Tracer::Span span(tracer, Layer::kAlgebraEvaluate);
    answer.emplace(ird::Evaluate(*plan, *view));
  }
  if (attr != nullptr) {
    EvaluateSubtrees(*plan, *view, attr->self_us, &attr->node_rows);
    attr->answer_rows += static_cast<double>(answer->size());
  }
  return std::move(*answer);
}

// The attribution replay of one query round (see TracedQuery) on a fresh
// ShardedState with its plan cache warmed, as in the measured rounds.
void AttributionReplay(const DatabaseState& state,
                       const std::vector<AttributeSet>& targets,
                       const std::vector<size_t>& asked, const Stream& stream,
                       QueryAttribution* attr, Report* report) {
  std::optional<ShardedState> s = NewShardedState(state, report);
  if (!s) return;
  for (const AttributeSet& x : targets) (void)s->PlanFor(x);
  Tracer untimed(0);
  for (size_t q = 0; q < asked.size(); ++q) {
    (void)TracedQuery(&*s, targets[asked[q]], &untimed, attr);
    CheckVerdicts(stream.ops[q],
                  TracedBatch(&*s, stream.ops[q], &untimed, nullptr), report);
  }
  report->AddAttempted(stream.ops_total);
}

}  // namespace

void RunQuery(const RunConfig& config, Report* report) {
  const size_t entities = config.smoke ? 60 : 500;
  const size_t round_cycles = config.smoke ? 1 : 2;
  report->Info("jobs", "InsertBatch jobs 1 (8-op batches after each query)");
  report->Info("entities", std::to_string(entities));
  report->Info("accepted_share", "n/a (query classifies no schemes)");
  // The state is the same for every seed: about half of the query time
  // goes to the two [E,Bi] targets, whose cost hangs on the state draw far
  // more than on anything --seed should vary. --seed varies the target
  // order and the write stream.
  Inputs in;
  if (!MakeInputs(entities, kQueryStateSeed, &in, report)) return;
  std::vector<AttributeSet> targets = TwoAttributeTargets(in.state.scheme());
  // A round asks every target `round_cycles` times, each cycle in a fresh
  // seeded order: uniform over the targets, and equally often in every
  // round. One 8-op batch follows each query; extends take the fresh
  // share, so the state stays near its initial size.
  std::vector<size_t> asked;
  std::mt19937_64 target_rng(config.seed * 0xbf58476d1ce4e5b9ull + 3);
  for (size_t c = 0; c < round_cycles; ++c) {
    std::vector<size_t> cycle(targets.size());
    for (size_t k = 0; k < cycle.size(); ++k) cycle[k] = k;
    std::shuffle(cycle.begin(), cycle.end(), target_rng);
    asked.insert(asked.end(), cycle.begin(), cycle.end());
  }
  const size_t tuples_start = in.state.TupleCount();
  const Stream stream =
      MakeStream(in.model, 0.0, 0.8, config.seed * 0x9e3779b97f4a7c15ull + 2,
                 asked.size(), kQueryBatch);
  const size_t tuples_end = tuples_start + stream.accepted - stream.duplicates;
  report->Info("targets", std::to_string(targets.size()));
  report->Info("round", std::to_string(asked.size()) +
                            " queries from a fresh maintainer, plan cache "
                            "warmed with every target first");
  report->Info("tuples_start", std::to_string(tuples_start));
  report->Info("tuples_end", std::to_string(tuples_end));
  report->Info("insert_dup_share", static_cast<double>(stream.duplicates) /
                                       static_cast<double>(stream.accepted));
  // The warm-up compiles every target's plan, so every measured query
  // finds its plan cached.
  report->Info("plan_cache_hit_ratio", 1.0);

  std::vector<double> setup_s;
  for (int rep = 0; rep < (config.smoke ? 0 : 6); ++rep) {
    if (!CreateTimed(in.state, &setup_s, report)) return;
  }
  // Untraced rounds until the measured time is used up; the first only
  // warms the allocator and caches (smoke runs have one measured round).
  // A traced run spends half the time on untraced rounds and follows each
  // with a traced replay of it, so both sides of obs.overhead_frac see the
  // same stretch of machine time.
  double seconds = config.trace ? config.seconds / 2 : config.seconds;
  std::optional<ird::obs::ObsContext> ctx;
  std::optional<Tracer> tracer;
  std::optional<ird::obs::ObsContext> traced_ctx;
  if (config.trace) {
    ctx.emplace("perfbench.query.untraced");
    tracer.emplace(200000);
    TracedSetUp(in, &*tracer, report);
    traced_ctx.emplace("perfbench.query.traced");
  }
  std::vector<double> latency_us;
  std::vector<size_t> latency_target;
  std::vector<size_t> answer_sizes;
  std::vector<double> round_rates;
  std::vector<double> traced_rates;
  int64_t measured_ns = 0;
  double rss_mb = 0;
  for (size_t round = 0;; ++round) {
    const bool warmup = round == 0 && !config.smoke;
    {
      ird::obs::ObsContextScope untraced(warmup || !ctx ? nullptr : &*ctx);
      std::optional<ShardedMaintainer> m =
          CreateTimed(in.state, &setup_s, report);
      if (!m || !CheckLayout(m->sharded_state(), report)) return;
      {
        ird::obs::ObsContextScope shield(nullptr);
        for (const AttributeSet& x : targets) (void)m->TotalProjection(x);
      }
      // Every target answered once: the working set is complete. Later
      // peaks move with where glibc's heap top gets pinned (README.md).
      if (round == 0) rss_mb = PeakRssMb();
      EntityModel model = in.model;
      QueryOracle oracle(&model, targets);
      std::vector<double> round_latency_us;
      int64_t round_ns = 0;
      for (size_t q = 0; q < asked.size(); ++q) {
        size_t k = asked[q];
        int64_t t0 = NowNs();
        PartialRelation answer = m->TotalProjection(targets[k]);
        int64_t query_ns = NowNs() - t0;
        round_latency_us.push_back(static_cast<double>(query_ns) / 1e3);
        if (round == 0) answer_sizes.push_back(answer.size());
        std::string problem = oracle.Check(k, answer);
        if (!problem.empty()) report->Fail(problem);

        int64_t t1 = NowNs();
        std::vector<Status> verdicts = m->InsertBatch(stream.batches[q]);
        round_ns += query_ns + (NowNs() - t1);
        CheckVerdicts(stream.ops[q], verdicts, report);
        for (const GenOp& op : stream.ops[q]) {
          if (op.kind == GenOp::Kind::kConflict) continue;
          model.MarkPresent(op.entity, op.rel);
          if (!op.duplicate) oracle.Touch(op.entity);
        }
      }
      if (m->sharded_state().TupleCount() != tuples_end) {
        report->CheckFailed("tuple count after a round differs from the "
                            "accepted inserts");
      }
      report->AddAttempted(asked.size() + stream.ops_total);
      if (warmup) continue;
      latency_us.insert(latency_us.end(), round_latency_us.begin(),
                        round_latency_us.end());
      latency_target.insert(latency_target.end(), asked.begin(), asked.end());
      measured_ns += round_ns;
      round_rates.push_back(static_cast<double>(asked.size()) /
                            (static_cast<double>(round_ns) / 1e9));
    }
    if (config.trace) {
      // TotalProjection's and InsertBatch's steps under spans, on a fresh
      // ShardedState whose plan cache is warmed first (the cold PlanFor
      // calls are the core.plan spans).
      std::optional<ShardedState> s = NewShardedState(in.state, report);
      if (!s) return;
      for (const AttributeSet& x : targets) {
        Tracer::Span span(&*tracer, Layer::kCorePlanCold);
        (void)s->PlanFor(x);
      }
      int64_t before = tracer->request_ns();
      for (size_t q = 0; q < asked.size(); ++q) {
        PartialRelation answer =
            TracedQuery(&*s, targets[asked[q]], &*tracer, nullptr);
        if (answer.size() != answer_sizes[q]) {
          report->Fail("traced answer differs from the untraced one");
        }
        CheckVerdicts(stream.ops[q],
                      TracedBatch(&*s, stream.ops[q], &*tracer, nullptr),
                      report);
      }
      report->AddAttempted(asked.size() + stream.ops_total);
      traced_rates.push_back(
          static_cast<double>(asked.size()) /
          (static_cast<double>(tracer->request_ns() - before) / 1e9));
    }
    if (config.smoke || static_cast<double>(measured_ns) >= seconds * 1e9) {
      break;
    }
  }
  ird::obs::Snapshot untraced_snap;
  ird::obs::Snapshot snap;
  if (config.trace) {
    untraced_snap = ird::obs::ContextSnapshot(*ctx);
    snap = ird::obs::ContextSnapshot(*traced_ctx);
  }
  traced_ctx.reset();  // contexts end in reverse order of creation
  ctx.reset();
  report->Info("rounds", std::to_string(round_rates.size()) + " measured" +
                            (config.smoke ? "" : " after 1 warm-up"));
  report->Info("requests", std::to_string(latency_us.size()));
  report->Info("slowest_targets", SlowestTargets(in.state.scheme(), targets,
                                                 latency_target, latency_us));
  const double untraced_ops = Median(round_rates);

  if (!config.trace) {
    const double p99 = WindowedP99(latency_us, P99Window(asked.size()));
    report->Metric("ops_per_s", untraced_ops, "ops/s");
    report->Metric("latency_p50_us", Percentile(&latency_us, 0.50), "us");
    report->Metric("latency_p99_us", p99, "us");
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("rss_peak_mb", rss_mb, "MB");
    return;
  }

  double traced_ops = Median(traced_rates);
  report->Info("untraced_ops_per_s", untraced_ops);
  report->Info("traced_ops_per_s", traced_ops);
  const double queries = static_cast<double>(asked.size());
  const double traced_queries =
      queries * static_cast<double>(traced_rates.size());
  LayerExtras extras;
  BatchEngineMetrics(untraced_snap, latency_us.size(), &extras);
  extras.cross_block_per_op =
      static_cast<double>(
          CounterIn(untraced_snap, "shard.cross_block_queries")) /
      static_cast<double>(latency_us.size());
  Tracer::LayerStat hit = tracer->Stat(Layer::kCorePlanHit);
  extras.plan_hit_ratio = static_cast<double>(hit.calls) / traced_queries;
  extras.overhead_frac = 1 - traced_ops / untraced_ops;
  QueryAttribution attr;
  AttributionReplay(in.state, targets, asked, stream, &attr, report);
  for (int i = 0; i < 5; ++i) {
    extras.algebra_self_us[i] = attr.self_us[i] / queries;
  }
  extras.rows_per_answer =
      attr.answer_rows == 0 ? 0 : attr.node_rows / attr.answer_rows;
  ProbeReplay(in.state, stream, &extras, report);
  FinishTraced(config, *tracer, snap, traced_queries, extras, report);
}

}  // namespace perfbench
