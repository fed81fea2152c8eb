// ird_stats: runs the standard engine workloads under full instrumentation
// and emits one machine-readable record per workload — the bench
// trajectory's data points (BENCH_PR3.json and successors). Each record is
//
//   {"bench": <name>, "config": {...}, "counters": {...}, "spans_us": {...}}
//
// where counters/spans_us are the workload's *delta* over the obs
// registries (obs/export.h). The full run doubles as a liveness gate for
// the instrumentation itself: --check fails if any counter a healthy
// engine must bump (chase.reprobes, closure.iterations, kep.rounds,
// recognition.independence_tests, ...) stayed zero — catching silently
// dead instrumentation in CI.
//
//   ird_stats [--out FILE] [--trace FILE] [--anchors DIR] [--jobs N]
//             [--scale N] [--only NAME] [--check] [--baseline FILE]
//             [--runs K] [--list]
//
//   --out FILE      write the JSON array there (default: stdout)
//   --trace FILE    record span events and write a chrome://tracing JSON
//   --anchors DIR   also classify every .scheme file under DIR (corpus
//                   anchors; exercises the io + diagnostics-facing paths)
//   --jobs N        classify the anchors on N worker threads
//                   (BatchAnalyzer; default 1)
//   --scale N       multiply per-workload repetition counts (default 1)
//   --only NAME     run only the named workload (--check needs a full run)
//   --check         exit 1 if a required counter is zero over the whole
//                   run; all dead counters are reported in one pass
//   --baseline F    the variance-aware regression gate: rerun the
//                   workloads (--runs times), compare against the
//                   committed BENCH_PR<n>.json record F — counters/counts
//                   exactly, span totals and histogram quantiles against
//                   speed-calibrated noise-scaled thresholds — and exit 1
//                   with a per-metric diff table on any regression
//                   (bench/regression_gate.h, docs/OBSERVABILITY.md)
//   --runs K        number of full runs. With --baseline, the reruns
//                   feeding the gate (default 3). Without it (default 1),
//                   every run must agree on each exact field (configs,
//                   counters, span and histogram counts), and the run
//                   whose span total is the median is the one written
//   --list          print workload names and exit
//
// Each workload runs inside its own obs::ObsContext, so its record is the
// operation-scoped delta — pooled work (BatchAnalyzer) attributes to the
// workload that launched it regardless of --jobs.
//
// Exit status: 0 = ok, 1 = dead counter (--check), gate failure
// (--baseline), runs disagreeing on an exact field (--runs without
// --baseline) or write failure, 2 = usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/regression_gate.h"
#include "core/classify.h"
#include "core/recognition.h"
#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "engine/batch.h"
#include "engine/scheme_analysis.h"
#include "fd/closure_engine.h"
#include "io/text_format.h"
#include "obs/export.h"
#include "relation/weak_instance.h"
#include "tableau/chase.h"
#include "workload/generators.h"

namespace ird {
namespace {

struct Args {
  std::string out;
  std::string trace;
  std::string anchors;
  std::string only;
  std::string baseline;
  size_t jobs = 1;
  size_t scale = 1;
  size_t runs = 0;  // 0 = the default: 3 with --baseline, else 1
  bool check = false;
  bool list = false;
};

struct WorkloadRecord {
  std::string bench;
  std::string config_json;
  obs::Snapshot delta;
};

// One instrumented workload: `body` runs inside an operation-scoped
// context, and the record is the context's delta — pool workers the body
// fans out to (BatchAnalyzer adoption) attribute here, concurrent
// registry traffic from elsewhere does not.
template <typename Body>
WorkloadRecord RunWorkload(const std::string& name, std::string config_json,
                           Body body) {
  obs::ObsContext ctx(name);
  body();
  WorkloadRecord record;
  record.bench = name;
  record.config_json = std::move(config_json);
  record.delta = obs::ContextSnapshot(ctx);
  std::fprintf(stderr, "ran %-24s (%zu counters, %zu spans, %zu hists)\n",
               name.c_str(), record.delta.counters.size(),
               record.delta.spans.size(), record.delta.hists.size());
  return record;
}

std::string ConfigJson(
    const std::vector<std::pair<std::string, size_t>>& entries) {
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + entries[i].first + "\":" + std::to_string(entries[i].second);
  }
  return out + "}";
}

// The standard workloads. Shapes mirror EXPERIMENTS.md E1/E4/E2 so the
// trajectory's counters line up with the bench binaries' timings. An
// empty `only` runs everything; otherwise just the named workload.
std::vector<WorkloadRecord> RunStandardWorkloads(size_t scale,
                                                 const std::string& only) {
  std::vector<WorkloadRecord> records;
  auto want = [&](const char* name) { return only.empty() || only == name; };

  if (want("recognition_block")) {
    const size_t blocks = 8, per_block = 3, reps = 25 * scale;
    DatabaseScheme scheme = MakeBlockScheme(blocks, per_block);
    records.push_back(RunWorkload(
        "recognition_block",
        ConfigJson({{"blocks", blocks},
                    {"per_block", per_block},
                    {"relations", scheme.size()},
                    {"reps", reps}}),
        [&] {
          for (size_t i = 0; i < reps; ++i) {
            RecognitionResult r = RecognizeIndependenceReducible(scheme);
            IRD_CHECK(r.accepted);
          }
        }));
  }

  if (want("recognition_independent")) {
    const size_t relations = 32, reps = 25 * scale;
    DatabaseScheme scheme = MakeIndependentScheme(relations);
    records.push_back(RunWorkload(
        "recognition_independent",
        ConfigJson({{"relations", scheme.size()}, {"reps", reps}}),
        [&] {
          for (size_t i = 0; i < reps; ++i) {
            RecognitionResult r = RecognizeIndependenceReducible(scheme);
            IRD_CHECK(r.accepted);
          }
        }));
  }

  if (want("recognition_random")) {
    const size_t relations = 8, pool = 16, reps = 5 * scale;
    std::vector<DatabaseScheme> schemes;
    for (uint64_t seed = 0; seed < pool; ++seed) {
      RandomSchemeOptions opt;
      opt.universe_size = relations + 2;
      opt.relations = relations;
      opt.min_arity = 2;
      opt.max_arity = 4;
      opt.seed = seed;
      schemes.push_back(MakeRandomScheme(opt));
    }
    records.push_back(RunWorkload(
        "recognition_random",
        ConfigJson({{"relations", relations}, {"pool", pool}, {"reps", reps}}),
        [&] {
          for (size_t i = 0; i < reps; ++i) {
            for (const DatabaseScheme& scheme : schemes) {
              RecognizeIndependenceReducible(scheme);
            }
          }
        }));
  }

  if (want("recognition_shared_context")) {
    // The memoization story end-to-end: one SchemeAnalysis, many
    // recognitions and split sweeps. Everything after the first repetition
    // is served from the verdict caches and the closure memo
    // (engine.closure_memo.hits), and no engine is ever built twice
    // (engine.closure_engine.builds stays flat).
    const size_t blocks = 8, per_block = 3, reps = 25 * scale;
    DatabaseScheme scheme = MakeBlockScheme(blocks, per_block);
    records.push_back(RunWorkload(
        "recognition_shared_context",
        ConfigJson({{"blocks", blocks},
                    {"per_block", per_block},
                    {"relations", scheme.size()},
                    {"reps", reps}}),
        [&] {
          SchemeAnalysis analysis(scheme);
          for (size_t i = 0; i < reps; ++i) {
            RecognitionResult r = RecognizeIndependenceReducible(analysis);
            IRD_CHECK(r.accepted);
            for (const std::vector<size_t>& block : r.partition) {
              (void)SplitKeys(analysis, block);
            }
            // Full-cover closures of every relation: the first repetition
            // shares entries with KEP's root refinement, later repetitions
            // are pure memo hits.
            for (size_t j = 0; j < scheme.size(); ++j) {
              (void)analysis.FullClosure(scheme.relation(j).attrs);
            }
          }
        }));
  }

  if (want("split_analysis")) {
    const size_t chain = 12, split_k = 3, reps = 10 * scale;
    DatabaseScheme chain_scheme = MakeChainScheme(chain);
    DatabaseScheme split_scheme = MakeSplitScheme(split_k);
    records.push_back(RunWorkload(
        "split_analysis",
        ConfigJson({{"chain_n", chain}, {"split_k", split_k}, {"reps", reps}}),
        [&] {
          for (size_t i = 0; i < reps; ++i) {
            IRD_CHECK(SplitKeys(chain_scheme).empty());
            IRD_CHECK(!SplitKeys(split_scheme).empty());
          }
        }));
  }

  if (want("chase_consistency")) {
    const size_t entities = 200, reps = 3 * scale, lossless_reps = 10 * scale;
    DatabaseScheme scheme = MakeSplitScheme(2);
    StateGenOptions opt;
    opt.entities = entities;
    opt.seed = 7;
    DatabaseState state = MakeConsistentState(scheme, opt);
    DatabaseScheme block_scheme = MakeBlockScheme(4, 3);
    records.push_back(RunWorkload(
        "chase_consistency",
        ConfigJson({{"entities", entities},
                    {"reps", reps},
                    {"lossless_reps", lossless_reps}}),
        [&] {
          for (size_t i = 0; i < reps; ++i) {
            IRD_CHECK(IsConsistent(state));
          }
          for (size_t i = 0; i < lossless_reps; ++i) {
            IRD_CHECK(IsLosslessByChase(block_scheme));
          }
        }));
  }

  if (want("substrate")) {
    // The memory-substrate paths in one record: repeated state-tableau
    // chases (struct-of-arrays cells + arena-backed engine; arena.bytes /
    // arena.highwater come from here) and warm closure queries against the
    // CSR index. bench/bench_substrate.cc times the same primitives.
    const size_t chain = 12, entities = 150, reps = 10 * scale;
    DatabaseScheme scheme = MakeChainScheme(chain);
    StateGenOptions opt;
    opt.entities = entities;
    opt.seed = 23;
    DatabaseState state = MakeConsistentState(scheme, opt);
    records.push_back(RunWorkload(
        "substrate",
        ConfigJson({{"chain_n", chain},
                    {"entities", entities},
                    {"reps", reps}}),
        [&] {
          ClosureEngine closure(scheme.key_dependencies());
          for (size_t i = 0; i < reps; ++i) {
            Tableau t = StateTableau(state);
            ChaseStats stats = ChaseFds(&t, scheme.key_dependencies());
            IRD_CHECK(stats.consistent);
            for (size_t j = 0; j < scheme.size(); ++j) {
              (void)closure.Closure(scheme.relation(j).attrs);
            }
          }
        }));
  }

  if (want("sharded_maintenance")) {
    // The sharded engine (E2's parallel arm): a two-block Example 11-shaped
    // scheme takes a batched insert storm through ShardedMaintainer and a
    // cross-block total projection through the shard router; a split
    // scheme sends its storm through the Algorithm 2 block machinery.
    const size_t entities = 40, ops = 120, jobs = 2, reps = 5 * scale;
    DatabaseScheme scheme = DatabaseScheme::Create();
    scheme.AddRelation("R1", "AB", {"A", "B"});
    scheme.AddRelation("R2", "BC", {"B", "C"});
    scheme.AddRelation("R3", "AC", {"A", "C"});
    scheme.AddRelation("R4", "AD", {"A"});
    scheme.AddRelation("R5", "DEF", {"D"});
    scheme.AddRelation("R6", "DEG", {"D"});
    StateGenOptions sopt;
    sopt.entities = entities;
    sopt.seed = 11;
    DatabaseState state = MakeConsistentState(scheme, sopt);
    std::vector<InsertInstance> stream =
        MakeInsertStream(scheme, state, ops, 0.3, 13);
    AttributeSet cross;  // one attribute from each block: crosses shards
    cross.Add(scheme.universe().Find("A").value());
    cross.Add(scheme.universe().Find("E").value());
    DatabaseScheme split_scheme = MakeSplitScheme(2);
    StateGenOptions split_opt;
    split_opt.entities = entities;
    split_opt.seed = 17;
    DatabaseState split_state = MakeConsistentState(split_scheme, split_opt);
    std::vector<InsertInstance> split_stream =
        MakeInsertStream(split_scheme, split_state, ops, 0.3, 19);
    records.push_back(RunWorkload(
        "sharded_maintenance",
        ConfigJson({{"entities", entities},
                    {"ops", ops},
                    {"jobs", jobs},
                    {"reps", reps}}),
        [&] {
          for (size_t i = 0; i < reps; ++i) {
            Result<ShardedMaintainer> m =
                ShardedMaintainer::Create(state, jobs, false);
            IRD_CHECK(m.ok());
            std::vector<InsertOp> batch;
            for (const InsertInstance& ins : stream) {
              batch.push_back({ins.rel, ins.tuple});
            }
            (void)m->InsertBatch(batch);
            (void)m->TotalProjection(cross);
            Result<ShardedMaintainer> split_m =
                ShardedMaintainer::Create(split_state, jobs, false);
            IRD_CHECK(split_m.ok());
            std::vector<InsertOp> split_batch;
            for (const InsertInstance& ins : split_stream) {
              split_batch.push_back({ins.rel, ins.tuple});
            }
            (void)split_m->InsertBatch(split_batch);
          }
        }));
  }

  return records;
}

// Classifies every .scheme file under `dir` (the corpus anchors): the same
// engines ird_lint leans on, driven through parsed input instead of
// generators.
WorkloadRecord RunAnchorWorkload(const std::string& dir, size_t jobs,
                                 int* rc) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scheme") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "ird_stats: cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    *rc = 1;
  }
  std::sort(files.begin(), files.end());
  return RunWorkload(
      "classify_anchors",
      ConfigJson({{"files", files.size()}, {"jobs", jobs}}), [&] {
        // Parse serially (errors report in sorted file order), classify on
        // the pool: one parsed scheme and one fresh SchemeAnalysis per
        // worker claim, never shared across threads.
        std::vector<ParsedDatabase> parsed_dbs;
        parsed_dbs.reserve(files.size());
        for (const std::filesystem::path& path : files) {
          std::ifstream in(path);
          std::stringstream buffer;
          buffer << in.rdbuf();
          Result<ParsedDatabase> parsed = ParseDatabaseText(buffer.str());
          if (!parsed.ok()) {
            std::fprintf(stderr, "ird_stats: %s: %s\n", path.c_str(),
                         parsed.status().ToString().c_str());
            *rc = 1;
            continue;
          }
          parsed_dbs.push_back(std::move(parsed).value());
        }
        std::vector<const DatabaseScheme*> schemes;
        schemes.reserve(parsed_dbs.size());
        for (const ParsedDatabase& db : parsed_dbs) {
          schemes.push_back(&db.scheme);
        }
        BatchAnalyzer batch(jobs);
        batch.AnalyzeEach(schemes, [](size_t, SchemeAnalysis& analysis) {
          ClassifyScheme(analysis);
        });
      });
}

// One line per exact field of a run: each workload's config, counter
// values, span counts and histogram sample counts. These count work, not
// time, so every run of one tree must produce the same lines.
std::vector<std::string> ExactFields(const std::vector<WorkloadRecord>& run) {
  std::vector<std::string> out;
  for (const WorkloadRecord& r : run) {
    out.push_back(r.bench + " config " + r.config_json);
    for (const auto& [name, value] : r.delta.counters) {
      out.push_back(r.bench + " counter " + name + " " +
                    std::to_string(value));
    }
    for (const obs::SpanRegistry::Stat& span : r.delta.spans) {
      out.push_back(r.bench + " span " + span.name + " count " +
                    std::to_string(span.count));
    }
    for (const obs::HistogramRegistry::Stat& hist : r.delta.hists) {
      out.push_back(r.bench + " hist " + hist.name + " count " +
                    std::to_string(hist.count));
    }
  }
  return out;
}

uint64_t SpanTotalNs(const std::vector<WorkloadRecord>& run) {
  uint64_t total = 0;
  for (const WorkloadRecord& r : run) {
    for (const obs::SpanRegistry::Stat& span : r.delta.spans) {
      total += span.total_ns;
    }
  }
  return total;
}

// The run to record: the one whose span total is the median (the lower
// middle for an even count). Fails (nullopt) when two runs disagree on an
// exact field, naming the first field that differs.
std::optional<size_t> MedianRun(
    const std::vector<std::vector<WorkloadRecord>>& runs) {
  const std::vector<std::string> first = ExactFields(runs.front());
  for (size_t k = 1; k < runs.size(); ++k) {
    const std::vector<std::string> fields = ExactFields(runs[k]);
    if (fields == first) continue;
    auto [a, b] = std::mismatch(first.begin(), first.end(), fields.begin(),
                                fields.end());
    std::fprintf(stderr, "ird_stats: run %zu differs from run 1: \"%s\" vs "
                 "\"%s\"\n", k + 1,
                 a == first.end() ? "(none)" : a->c_str(),
                 b == fields.end() ? "(none)" : b->c_str());
    return std::nullopt;
  }
  std::vector<std::pair<uint64_t, size_t>> totals;  // (span total, run)
  for (size_t k = 0; k < runs.size(); ++k) {
    totals.emplace_back(SpanTotalNs(runs[k]), k);
  }
  std::sort(totals.begin(), totals.end());
  const auto [total_ns, median] = totals[(runs.size() - 1) / 2];
  std::fprintf(stderr, "ird_stats: recording run %zu of %zu (span total "
               "%.1f us)\n", median + 1, runs.size(),
               static_cast<double>(total_ns) / 1000.0);
  return median;
}

std::string RenderRecords(const std::vector<WorkloadRecord>& records) {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",";
    std::string body = obs::RenderJson(records[i].delta);
    out += "\n{\"bench\":\"" + records[i].bench + "\",\"config\":" +
           records[i].config_json + "," + body.substr(1);
  }
  out += "\n]\n";
  return out;
}

// Counters a healthy full run must bump; a zero means the instrumentation
// site is dead (or the workload stopped reaching the engine).
constexpr const char* kRequiredCounters[] = {
    "chase.seed_probes",    "chase.reprobes",
    "chase.invocations",    "chase.equates",
    "chase.index_repairs",  "chase.worklist_max",
    "closure.computations", "closure.iterations",
    "kep.rounds",           "split.cover_checks",
    "recognition.independence_tests", "tableau.rows_materialized",
    "engine.closure_engine.builds",   "engine.closure_memo.hits",
    "engine.closure_memo.misses",
    "shard.blocks",         "shard.parallel_validations",
    "shard.cross_block_queries",
    "maintain.alg5.checks", "maintain.alg5.probes",
    "maintain.alg5.rejects",
    "maintain.alg2.checks", "maintain.alg2.lookups",
    "maintain.alg2.keys_processed",   "maintain.alg2.rejects",
    // PR9 memory substrate: chase-side arena footprint, flushed per
    // ChaseFds by tableau/chase.cc (base itself is obs-free).
    "arena.bytes",          "arena.highwater",
};

int Run(const Args& args) {
  if (args.list) {
    std::printf(
        "recognition_block\nrecognition_independent\nrecognition_random\n"
        "recognition_shared_context\nsplit_analysis\nchase_consistency\n"
        "substrate\nsharded_maintenance\nclassify_anchors (--anchors)\n");
    return 0;
  }
  if (!args.trace.empty()) obs::Trace::SetEnabled(true);
  obs::ResetAll();

  int rc = 0;
  // With --baseline, the first run produces the trajectory records and the
  // gate reads every run for variance; without it, the median run is
  // recorded.
  const size_t total_runs =
      args.runs != 0 ? args.runs : (args.baseline.empty() ? 1 : 3);
  std::vector<std::vector<WorkloadRecord>> all_runs;
  for (size_t k = 0; k < total_runs; ++k) {
    if (total_runs > 1) {
      std::fprintf(stderr, "--- run %zu/%zu ---\n", k + 1, total_runs);
    }
    std::vector<WorkloadRecord> run = RunStandardWorkloads(args.scale,
                                                           args.only);
    if (!args.anchors.empty() &&
        (args.only.empty() || args.only == "classify_anchors")) {
      run.push_back(RunAnchorWorkload(args.anchors, args.jobs, &rc));
    }
    all_runs.push_back(std::move(run));
  }
  size_t recorded = 0;
  if (args.baseline.empty() && all_runs.size() > 1) {
    std::optional<size_t> median = MedianRun(all_runs);
    if (!median.has_value()) return 1;
    recorded = *median;
  }
  const std::vector<WorkloadRecord>& records = all_runs[recorded];

  std::string rendered = RenderRecords(records);
  if (args.out.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    Status written = obs::WriteStringToFile(args.out, rendered);
    if (!written.ok()) {
      std::fprintf(stderr, "ird_stats: %s\n", written.ToString().c_str());
      rc = 1;
    }
  }
  if (!args.trace.empty()) {
    Status written =
        obs::WriteStringToFile(args.trace, obs::RenderChromeTrace());
    if (!written.ok()) {
      std::fprintf(stderr, "ird_stats: %s\n", written.ToString().c_str());
      rc = 1;
    }
  }

#ifdef IRD_OBS_DISABLED
  if (args.check) {
    std::fprintf(stderr,
                 "ird_stats: --check skipped (built with IRD_OBS=OFF)\n");
  }
  if (!args.baseline.empty()) {
    std::fprintf(
        stderr,
        "ird_stats: --baseline skipped (built with IRD_OBS=OFF)\n");
  }
#else
  if (args.check) {
    // Report every dead counter in one run, not just the first.
    std::vector<const char*> dead;
    for (const char* name : kRequiredCounters) {
      if (obs::CounterValue(name) == 0) dead.push_back(name);
    }
    if (dead.empty()) {
      std::fprintf(stderr, "ird_stats: all %zu required counters nonzero\n",
                   std::size(kRequiredCounters));
    } else {
      for (const char* name : dead) {
        std::fprintf(stderr, "ird_stats: required counter %s is ZERO\n",
                     name);
      }
      std::fprintf(stderr,
                   "ird_stats: %zu of %zu required counters are ZERO\n",
                   dead.size(), std::size(kRequiredCounters));
      rc = 1;
    }
  }
  if (!args.baseline.empty()) {
    Result<std::string> text = obs::ReadFileToString(args.baseline);
    if (!text.ok()) {
      std::fprintf(stderr, "ird_stats: --baseline %s: %s\n",
                   args.baseline.c_str(),
                   text.status().ToString().c_str());
      return 1;
    }
    Result<std::vector<bench::RecordView>> base =
        bench::ParseBenchJson(*text);
    if (!base.ok()) {
      std::fprintf(stderr, "ird_stats: --baseline %s: %s\n",
                   args.baseline.c_str(),
                   base.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<bench::RecordView>> run_views;
    run_views.reserve(all_runs.size());
    for (const std::vector<WorkloadRecord>& run : all_runs) {
      std::vector<bench::RecordView> views;
      views.reserve(run.size());
      for (const WorkloadRecord& record : run) {
        views.push_back(bench::ViewOf(record.bench, record.delta));
      }
      run_views.push_back(std::move(views));
    }
    bench::GateReport report =
        bench::RunGate(*base, run_views, bench::GateOptions{});
    std::fputs(report.RenderTable().c_str(), stderr);
    if (!report.ok()) {
      std::fprintf(stderr,
                   "ird_stats: regression gate FAILED vs %s (%zu metrics)\n",
                   args.baseline.c_str(), report.failures());
      rc = 1;
    } else {
      std::fprintf(stderr, "ird_stats: regression gate passed vs %s\n",
                   args.baseline.c_str());
    }
  }
#endif
  return rc;
}

}  // namespace
}  // namespace ird

int main(int argc, char** argv) {
  ird::Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      args.out = next("--out");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      args.trace = next("--trace");
    } else if (std::strcmp(argv[i], "--anchors") == 0) {
      args.anchors = next("--anchors");
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      args.jobs = std::strtoull(next("--jobs"), nullptr, 10);
      if (args.jobs == 0) args.jobs = 1;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      args.scale = std::strtoull(next("--scale"), nullptr, 10);
      if (args.scale == 0) args.scale = 1;
    } else if (std::strcmp(argv[i], "--only") == 0) {
      args.only = next("--only");
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      args.baseline = next("--baseline");
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      args.runs = std::strtoull(next("--runs"), nullptr, 10);
      if (args.runs == 0) args.runs = 1;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      args.check = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      args.list = true;
    } else {
      std::fprintf(stderr,
                   "usage: ird_stats [--out FILE] [--trace FILE] "
                   "[--anchors DIR] [--jobs N] [--scale N] [--only NAME] "
                   "[--baseline FILE] [--runs K] [--check] [--list]\n");
      return 2;
    }
  }
  return ird::Run(args);
}
