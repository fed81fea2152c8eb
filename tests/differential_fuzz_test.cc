// The seeded scheme fuzzer: sweeps every generator family of
// workload/generators.h plus random structural mutations, runs every
// optimized routine against its definition-literal oracle
// (oracle/differential.h), shrinks any disagreement to a minimal scheme and
// writes it into the replayable corpus under tests/corpus/.
//
// Deterministic by default (fixed seed, fixed per-family count); override
// with environment variables for longer campaigns:
//   IRD_FUZZ_SEED                base seed (default 20260806)
//   IRD_FUZZ_SCHEMES_PER_FAMILY  schemes per family (default 500)
//   IRD_FUZZ_CORPUS_DIR          where shrunk repros are written
//                                (default: the source tests/corpus/)

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/recognition.h"
#include "core/split.h"
#include "diagnostics/verify.h"
#include "engine/scheme_analysis.h"
#include "gtest/gtest.h"
#include "oracle/chase_check.h"
#include "oracle/corpus.h"
#include "oracle/differential.h"
#include "oracle/mutate.h"
#include "oracle/naive_independence.h"
#include "oracle/naive_kep.h"
#include "oracle/naive_recognition.h"
#include "oracle/naive_split.h"
#include "oracle/shrink.h"
#include "workload/generators.h"

#ifndef IRD_CORPUS_DIR
#define IRD_CORPUS_DIR "tests/corpus"
#endif

namespace ird::oracle {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string CorpusDir() {
  const char* v = std::getenv("IRD_FUZZ_CORPUS_DIR");
  return (v == nullptr || *v == '\0') ? IRD_CORPUS_DIR : v;
}

// Tags become corpus filenames; keep them path-safe.
std::string Sanitize(std::string tag) {
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '-';
  }
  return tag;
}

struct Family {
  const char* name;
  // Builds the i-th base scheme of the family from the family RNG.
  DatabaseScheme (*make)(size_t i, std::mt19937_64* rng);
};

const Family kFamilies[] = {
    {"chain",
     [](size_t, std::mt19937_64* rng) {
       return MakeChainScheme(2 + (*rng)() % 5);
     }},
    {"split",
     [](size_t, std::mt19937_64* rng) {
       // k = 4 already means 11 relations — past that the 2^n subset
       // oracle dominates the run; keep the sweep at k ∈ {2, 3}.
       return MakeSplitScheme(2 + (*rng)() % 2);
     }},
    {"independent",
     [](size_t, std::mt19937_64* rng) {
       return MakeIndependentScheme(1 + (*rng)() % 5);
     }},
    {"block",
     [](size_t, std::mt19937_64* rng) {
       return MakeBlockScheme(1 + (*rng)() % 3, 2 + (*rng)() % 2);
     }},
    {"star",
     [](size_t, std::mt19937_64* rng) {
       return MakeStarScheme(1 + (*rng)() % 5);
     }},
    {"tree",
     [](size_t, std::mt19937_64* rng) {
       double bidirectional = ((*rng)() % 3) / 2.0;  // 0, .5 or 1
       return MakeTreeScheme(2 + (*rng)() % 5, bidirectional, (*rng)());
     }},
    {"random",
     [](size_t, std::mt19937_64* rng) {
       RandomSchemeOptions opt;
       opt.universe_size = 5 + (*rng)() % 3;
       opt.relations = 3 + (*rng)() % 3;
       opt.min_arity = 2;
       opt.max_arity = 3;
       opt.multi_key_prob = ((*rng)() % 2) * 0.4;
       opt.seed = (*rng)();
       return MakeRandomScheme(opt);
     }},
};

class DifferentialFuzz : public ::testing::Test {
 protected:
  void RunFamily(const Family& family) {
    const uint64_t base_seed = EnvOr("IRD_FUZZ_SEED", 20260806);
    const size_t count = EnvOr("IRD_FUZZ_SCHEMES_PER_FAMILY", 500);
    std::mt19937_64 rng(base_seed ^ std::hash<std::string>{}(family.name));
    size_t tested = 0, mutated = 0, failures = 0;
    for (size_t i = 0; i < count; ++i) {
      DatabaseScheme scheme = family.make(i, &rng);
      // Half the schemes get 1-2 structural mutations on top.
      size_t mutations = rng() % 4;  // 0,1,2 with bias to mutating
      if (mutations > 2) mutations = 0;
      for (size_t m = 0; m < mutations; ++m) {
        DatabaseScheme mutant = MutateScheme(scheme, &rng);
        if (mutant.Validate().ok() && mutant.size() > 0) {
          scheme = std::move(mutant);
          ++mutated;
        }
      }
      if (!scheme.Validate().ok()) continue;
      ++tested;

      // The diagnostics engine must neither crash nor emit a witness its
      // independent verifier rejects, on any scheme the fuzzer can build.
      Status lint_ok = diagnostics::LintSelfCheck(scheme);
      if (!lint_ok.ok()) {
        ADD_FAILURE() << family.name << "[" << i
                      << "] lint self-check: " << lint_ok.ToString();
        if (++failures >= 3) break;
      }

      // The three chase implementations (delta-driven, pass-based,
      // exhaustive pairwise) must agree on every scheme the fuzzer can
      // build. CompareAgainstOracles repeats this as the
      // `tableau/chase-vs-naive` routine (so disagreements shrink into the
      // corpus); the direct call attributes the failure precisely.
      Status chase_ok = ChaseSelfCheck(scheme, base_seed + i);
      if (!chase_ok.ok()) {
        ADD_FAILURE() << family.name << "[" << i
                      << "] chase self-check: " << chase_ok.ToString();
        if (++failures >= 3) break;
      }

      const uint64_t seed = base_seed + i;
      std::vector<Disagreement> found = CompareAgainstOracles(scheme, seed);
      if (found.empty()) continue;
      ++failures;
      const Disagreement& first = found[0];
      DatabaseScheme small = ShrinkScheme(
          scheme, [&](const DatabaseScheme& s) {
            return DisagreesOn(s, seed, first.routine);
          });
      std::string name = Sanitize(first.routine) + "-" + family.name + "-s" +
                         std::to_string(base_seed) + "-" + std::to_string(i);
      Status written = WriteCorpusFile(
          CorpusDir(), name, small,
          {"routine: " + first.routine, "detail: " + first.detail,
           "found by: " + std::string(family.name) + " family, seed " +
               std::to_string(base_seed) + ", iteration " +
               std::to_string(i)});
      ADD_FAILURE() << family.name << "[" << i << "] " << first.routine
                    << ": " << first.detail
                    << (written.ok()
                            ? "\n  shrunk repro written to " + CorpusDir() +
                                  "/" + name + ".scheme"
                            : "\n  corpus write failed: " +
                                  written.ToString());
      if (failures >= 3) break;  // enough witnesses for one run
    }
    RecordProperty("schemes_tested", static_cast<int>(tested));
    RecordProperty("schemes_mutated", static_cast<int>(mutated));
    // The sweep must not degenerate (e.g. every mutant invalid).
    EXPECT_GE(tested, count / 2) << family.name;
  }
};

// SchemeAnalysis-backed recognition against the definition-literal oracles
// directly. The family sweeps above also reach the shared context (via the
// engine/* routines of CompareAgainstOracles and via the refactored
// scheme-level wrappers), but this pins the memoized pipeline to the
// oracles without any wrapper in between — cold, and again warm when every
// cover, memo and verdict slot is already filled.
TEST(EngineVsOracle, RecognitionMatchesNaiveOracles) {
  const uint64_t seed = EnvOr("IRD_FUZZ_SEED", 20260806);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  size_t compared = 0;
  for (size_t i = 0; i < 60; ++i) {
    RandomSchemeOptions opt;
    opt.universe_size = 5 + rng() % 3;
    opt.relations = 3 + rng() % 3;
    opt.min_arity = 2;
    opt.max_arity = 3;
    opt.multi_key_prob = (rng() % 2) * 0.4;
    opt.seed = rng();
    DatabaseScheme scheme = MakeRandomScheme(opt);
    if (!scheme.Validate().ok()) continue;
    ++compared;

    SchemeAnalysis analysis(scheme);
    RecognitionResult cold = RecognizeIndependenceReducible(analysis);
    EXPECT_EQ(cold.accepted, IsIndependenceReducibleOracle(scheme))
        << "scheme " << i;
    EXPECT_EQ(cold.partition, MaximalKeyEquivalentSubsets(scheme))
        << "scheme " << i;
    if (cold.accepted) {
      EXPECT_TRUE(IsIndependentOracle(*cold.induced)) << "scheme " << i;
    }
    for (const auto& [rel, key] : scheme.AllKeys()) {
      EXPECT_EQ(IsKeySplit(analysis, key), IsKeySplitOracle(scheme, key))
          << "scheme " << i << " key of relation " << rel;
    }

    RecognitionResult warm = RecognizeIndependenceReducible(analysis);
    EXPECT_EQ(warm.accepted, cold.accepted) << "scheme " << i;
    EXPECT_EQ(warm.partition, cold.partition) << "scheme " << i;
    EXPECT_EQ(warm.violation.has_value(), cold.violation.has_value())
        << "scheme " << i;
  }
  EXPECT_GE(compared, 30u);
}

TEST_F(DifferentialFuzz, Chain) { RunFamily(kFamilies[0]); }
TEST_F(DifferentialFuzz, Split) { RunFamily(kFamilies[1]); }
TEST_F(DifferentialFuzz, Independent) { RunFamily(kFamilies[2]); }
TEST_F(DifferentialFuzz, Block) { RunFamily(kFamilies[3]); }
TEST_F(DifferentialFuzz, Star) { RunFamily(kFamilies[4]); }
TEST_F(DifferentialFuzz, Tree) { RunFamily(kFamilies[5]); }
TEST_F(DifferentialFuzz, Random) { RunFamily(kFamilies[6]); }

}  // namespace
}  // namespace ird::oracle
