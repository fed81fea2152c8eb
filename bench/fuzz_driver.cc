// Standalone differential-fuzzing campaign runner — the long-haul sibling
// of tests/differential_fuzz_test.cc. Sweeps every generator family plus
// random mutation stacks against the oracle layer, shrinks disagreements
// and writes them into a corpus directory.
//
//   fuzz_driver [--seed N] [--count N] [--corpus DIR] [--max-relations N]
//               [--mutations N] [--no-shrink] [--jobs N]
//
//   --seed N           base seed (default 1)
//   --count N          schemes per family (default 2000)
//   --corpus DIR       where shrunk repros go (default tests/corpus)
//   --max-relations N  skip schemes larger than this (default 10)
//   --mutations N      max mutation stack per scheme (default 3)
//   --no-shrink        write the unshrunk scheme (faster triage)
//   --jobs N           compare/shrink on N worker threads (default 1)
//
// The campaign is deterministic in (seed, count) regardless of --jobs:
// schemes are generated serially per family (one RNG stream each), the
// oracle comparisons and shrinking fan out over a BatchAnalyzer pool, and
// all reporting — stderr lines, corpus writes, per-repro counter headers —
// happens serially afterwards in generation order.
//
// Exit status: 0 = full agreement, 1 = disagreements found (repros
// written), 2 = bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "diagnostics/verify.h"
#include "engine/batch.h"
#include "obs/export.h"
#include "oracle/chase_check.h"
#include "oracle/corpus.h"
#include "oracle/differential.h"
#include "oracle/mutate.h"
#include "oracle/shrink.h"
#include "workload/generators.h"

namespace ird::oracle {
namespace {

struct Args {
  uint64_t seed = 1;
  size_t count = 2000;
  std::string corpus = "tests/corpus";
  size_t max_relations = 10;
  size_t mutations = 3;
  bool shrink = true;
  size_t jobs = 1;
};

struct Family {
  const char* name;
  DatabaseScheme (*make)(size_t i, std::mt19937_64* rng);
};

const Family kFamilies[] = {
    {"chain",
     [](size_t, std::mt19937_64* rng) {
       return MakeChainScheme(2 + (*rng)() % 6);
     }},
    {"split",
     [](size_t, std::mt19937_64* rng) {
       return MakeSplitScheme(2 + (*rng)() % 2);
     }},
    {"independent",
     [](size_t, std::mt19937_64* rng) {
       return MakeIndependentScheme(1 + (*rng)() % 6);
     }},
    {"block",
     [](size_t, std::mt19937_64* rng) {
       return MakeBlockScheme(1 + (*rng)() % 3, 2 + (*rng)() % 2);
     }},
    {"star",
     [](size_t, std::mt19937_64* rng) {
       return MakeStarScheme(1 + (*rng)() % 6);
     }},
    {"tree",
     [](size_t, std::mt19937_64* rng) {
       return MakeTreeScheme(2 + (*rng)() % 6, ((*rng)() % 3) / 2.0,
                             (*rng)());
     }},
    {"random",
     [](size_t, std::mt19937_64* rng) {
       RandomSchemeOptions opt;
       opt.universe_size = 5 + (*rng)() % 4;
       opt.relations = 3 + (*rng)() % 4;
       opt.min_arity = 2;
       opt.max_arity = 3 + (*rng)() % 2;
       opt.multi_key_prob = ((*rng)() % 3) * 0.3;
       opt.seed = (*rng)();
       return MakeRandomScheme(opt);
     }},
};

std::string Sanitize(std::string tag) {
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '-';
  }
  return tag;
}

// Engine-counter header line for a shrunk repro: the counters the repro's
// own comparison run bumps, so a reader sees how much engine work the
// disagreement takes to reproduce (and which engines it reaches at all).
std::string CounterHeaderLine(const DatabaseScheme& repro, uint64_t seed) {
  // The context scopes the tally to exactly this comparison run, so the
  // header is correct even with concurrent counter traffic elsewhere.
  obs::ObsContext ctx("fuzz.repro");
  (void)CompareAgainstOracles(repro, seed);
  obs::Snapshot delta = obs::ContextSnapshot(ctx);
  std::string line = "counters:";
  if (delta.counters.empty()) return line + " (none)";
  for (const auto& [name, value] : delta.counters) {
    line += " " + name + "=" + std::to_string(value);
  }
  return line;
}

// One generated scheme that survived validation, plus what the (possibly
// parallel) comparison phase found out about it.
struct Candidate {
  size_t family;  // index into kFamilies
  size_t iter;    // iteration within the family
  DatabaseScheme scheme;
  // Filled by the comparison phase:
  Status lint_status;
  Status chase_status;
  std::vector<Disagreement> found;
  // Shrunk (or original) scheme, engaged iff found is nonempty.
  std::optional<DatabaseScheme> repro;
};

int Run(const Args& args) {
  // Phase 1 — serial generation. Each family consumes one RNG stream for
  // both generation and mutation, so the candidate list is a pure function
  // of (seed, count) no matter how many jobs run later.
  std::vector<Candidate> candidates;
  size_t skipped = 0;
  std::vector<size_t> family_tested(std::size(kFamilies), 0);
  for (size_t f = 0; f < std::size(kFamilies); ++f) {
    const Family& family = kFamilies[f];
    std::mt19937_64 rng(args.seed ^ std::hash<std::string>{}(family.name));
    for (size_t i = 0; i < args.count; ++i) {
      DatabaseScheme scheme = family.make(i, &rng);
      size_t stack = rng() % (args.mutations + 1);
      for (size_t m = 0; m < stack; ++m) {
        DatabaseScheme mutant = MutateScheme(scheme, &rng);
        if (mutant.Validate().ok() && mutant.size() > 0) {
          scheme = std::move(mutant);
        }
      }
      if (!scheme.Validate().ok() || scheme.size() > args.max_relations) {
        ++skipped;
        continue;
      }
      ++family_tested[f];
      candidates.push_back(Candidate{f, i, std::move(scheme), {}, {}, {}, {}});
    }
  }

  // Phase 2 — comparison and shrinking, fanned out over the pool. Each
  // candidate is touched by exactly one worker; the only shared state the
  // payload reaches is the obs counter registry, which is atomic.
  {
    BatchAnalyzer batch(args.jobs);
    batch.ForEachIndex(candidates.size(), [&](size_t c) {
      Candidate& cand = candidates[c];
      // One fuzz iteration = one operation scope; everything the checks
      // below record attributes to this candidate.
      obs::ObsContext ctx(std::string(kFamilies[cand.family].name) + "/" +
                          std::to_string(cand.iter));
      // Lint self-check: the diagnostics engine must not crash and every
      // witness it emits must pass the independent verifier. A failure is
      // triaged exactly like an oracle disagreement.
      cand.lint_status = diagnostics::LintSelfCheck(cand.scheme);
      // Chase self-check: the delta-driven, pass-based and exhaustive
      // pairwise chases must agree on the candidate's tableaux.
      cand.chase_status = ChaseSelfCheck(cand.scheme, args.seed + cand.iter);
      const uint64_t seed = args.seed + cand.iter;
      cand.found = CompareAgainstOracles(cand.scheme, seed);
      if (cand.found.empty()) return;
      cand.repro = cand.scheme;
      if (args.shrink) {
        const std::string& routine = cand.found[0].routine;
        cand.repro = ShrinkScheme(cand.scheme, [&](const DatabaseScheme& s) {
          return DisagreesOn(s, seed, routine);
        });
      }
    });
  }

  // Phase 3 — serial reporting in generation order: stderr lines, corpus
  // writes and the per-repro counter headers (which re-run the comparison
  // under an operation-scoped context, so the tallies are exact even when
  // other counter traffic exists).
  size_t total = candidates.size(), disagreements = 0;
  size_t next_candidate = 0;
  for (size_t f = 0; f < std::size(kFamilies); ++f) {
    const Family& family = kFamilies[f];
    for (; next_candidate < candidates.size() &&
           candidates[next_candidate].family == f;
         ++next_candidate) {
      const Candidate& cand = candidates[next_candidate];
      const size_t i = cand.iter;
      if (!cand.lint_status.ok()) {
        ++disagreements;
        std::fprintf(stderr, "[%s/%zu] diagnostics/verify: %s\n", family.name,
                     i, cand.lint_status.ToString().c_str());
        std::string name = std::string("diagnostics-verify-") + family.name +
                           "-s" + std::to_string(args.seed) + "-" +
                           std::to_string(i);
        Status written = WriteCorpusFile(
            args.corpus, name, cand.scheme,
            {"routine: diagnostics/verify",
             "detail: " + cand.lint_status.ToString(),
             "found by: fuzz_driver, " + std::string(family.name) +
                 " family, seed " + std::to_string(args.seed) +
                 ", iteration " + std::to_string(i),
             CounterHeaderLine(cand.scheme, /*seed=*/0)});
        if (!written.ok()) {
          std::fprintf(stderr, "corpus write failed: %s\n",
                       written.ToString().c_str());
        }
      }
      if (!cand.chase_status.ok()) {
        ++disagreements;
        std::fprintf(stderr, "[%s/%zu] tableau/chase-self-check: %s\n",
                     family.name, i, cand.chase_status.ToString().c_str());
        std::string name = std::string("tableau-chase-self-check-") +
                           family.name + "-s" + std::to_string(args.seed) +
                           "-" + std::to_string(i);
        Status written = WriteCorpusFile(
            args.corpus, name, cand.scheme,
            {"routine: tableau/chase-self-check",
             "detail: " + cand.chase_status.ToString(),
             "found by: fuzz_driver, " + std::string(family.name) +
                 " family, seed " + std::to_string(args.seed) +
                 ", iteration " + std::to_string(i),
             CounterHeaderLine(cand.scheme, /*seed=*/0)});
        if (!written.ok()) {
          std::fprintf(stderr, "corpus write failed: %s\n",
                       written.ToString().c_str());
        }
      }
      if (cand.found.empty()) continue;
      ++disagreements;
      const Disagreement& first = cand.found[0];
      std::fprintf(stderr, "[%s/%zu] %s: %s\n", family.name, i,
                   first.routine.c_str(), first.detail.c_str());
      // Every other routine that disagrees on the scheme, once each: a
      // fault in code several routines run shows in all of them.
      std::set<std::string> others;
      for (const Disagreement& d : cand.found) {
        if (d.routine != first.routine) others.insert(d.routine);
      }
      for (const std::string& routine : others) {
        std::fprintf(stderr, "  also: %s\n", routine.c_str());
      }
      std::string name = Sanitize(first.routine) + "-" + family.name + "-s" +
                         std::to_string(args.seed) + "-" + std::to_string(i);
      Status written = WriteCorpusFile(
          args.corpus, name, *cand.repro,
          {"routine: " + first.routine, "detail: " + first.detail,
           "found by: fuzz_driver, " + std::string(family.name) +
               " family, seed " + std::to_string(args.seed) + ", iteration " +
               std::to_string(i),
           CounterHeaderLine(*cand.repro, args.seed + i)});
      if (!written.ok()) {
        std::fprintf(stderr, "corpus write failed: %s\n",
                     written.ToString().c_str());
      } else {
        std::fprintf(stderr, "  repro: %s/%s.scheme\n", args.corpus.c_str(),
                     name.c_str());
      }
    }
    std::fprintf(stderr, "%-12s %zu schemes\n", family.name,
                 family_tested[f]);
  }
  std::fprintf(stderr,
               "done: %zu schemes tested, %zu skipped, %zu disagreements\n",
               total, skipped, disagreements);
  // Per-campaign engine accounting: what the sweep cost in chase probes,
  // closure work and oracle comparisons, and where the time went.
  std::fprintf(stderr, "=== campaign instrumentation summary ===\n%s",
               obs::RenderText(obs::TakeSnapshot()).c_str());
  return disagreements == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ird::oracle

int main(int argc, char** argv) {
  ird::obs::InitFromEnv();
  ird::oracle::Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--count") == 0) {
      args.count = std::strtoull(next("--count"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--corpus") == 0) {
      args.corpus = next("--corpus");
    } else if (std::strcmp(argv[i], "--max-relations") == 0) {
      args.max_relations = std::strtoull(next("--max-relations"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--mutations") == 0) {
      args.mutations = std::strtoull(next("--mutations"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      args.shrink = false;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      args.jobs = std::strtoull(next("--jobs"), nullptr, 10);
      if (args.jobs == 0) args.jobs = 1;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  int rc = ird::oracle::Run(args);
  // IRD_TRACE_OUT/IRD_STATS_OUT exports; the campaign verdict wins the
  // exit code.
  (void)ird::obs::ExportFromEnv("fuzz_driver");
  return rc;
}
