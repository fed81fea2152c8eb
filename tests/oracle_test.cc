// The oracle layer itself, checked against the paper's worked examples
// whose classifications are stated in the text — plus the mutate / shrink /
// corpus machinery the differential fuzzer is built from.

#include <cstdio>
#include <filesystem>
#include <random>

#include "gtest/gtest.h"
#include "oracle/corpus.h"
#include "oracle/differential.h"
#include "oracle/mutate.h"
#include "oracle/naive_chase.h"
#include "oracle/naive_closure.h"
#include "oracle/naive_independence.h"
#include "oracle/naive_kep.h"
#include "oracle/naive_recognition.h"
#include "oracle/naive_split.h"
#include "oracle/shrink.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird::oracle {
namespace {

using ::ird::test::Attrs;

TEST(NaiveClosure, HandComputedClosures) {
  DatabaseScheme s = test::Example12();  // F = {A->B, B->C, C->A, A->D, D->EFG}
  FdSet fds = s.key_dependencies();
  EXPECT_EQ(NaiveClosure(fds, Attrs(s, "A")), Attrs(s, "ABCDEFG"));
  EXPECT_EQ(NaiveClosure(fds, Attrs(s, "E")), Attrs(s, "E"));
  EXPECT_TRUE(NaiveImplies(fds, Attrs(s, "B"), Attrs(s, "D")));
  EXPECT_FALSE(NaiveImplies(fds, Attrs(s, "D"), Attrs(s, "A")));
}

TEST(NaiveChase, LosslessVerdictsMatchThePaper) {
  EXPECT_TRUE(IsLosslessNaive(test::Example1R()));
  EXPECT_TRUE(IsLosslessNaive(test::Example1S()));
  EXPECT_TRUE(IsLosslessNaive(test::Example9()));
}

TEST(NaiveKeyEquivalence, PaperVerdicts) {
  EXPECT_TRUE(IsKeyEquivalentOracle(test::Example3()));
  EXPECT_TRUE(IsKeyEquivalentOracle(test::Example4()));
  EXPECT_TRUE(IsKeyEquivalentOracle(test::Example6()));
  EXPECT_TRUE(IsKeyEquivalentOracle(test::Example9()));
  EXPECT_FALSE(IsKeyEquivalentOracle(test::Example1R()));
  EXPECT_FALSE(IsKeyEquivalentOracle(test::Example12()));
}

TEST(NaiveKep, Example13Partition) {
  DatabaseScheme s = test::Example13();
  // KEP = {{R1,R3,R4},{R2,R5,R6,R7},{R8}} (paper Example 13).
  std::vector<std::vector<size_t>> expected = {{0, 2, 3}, {1, 4, 5, 6}, {7}};
  EXPECT_EQ(MaximalKeyEquivalentSubsets(s), expected);
}

TEST(NaiveIndependence, PaperVerdicts) {
  EXPECT_TRUE(IsIndependentOracle(test::Example1S()));
  EXPECT_FALSE(IsIndependentOracle(test::Example1R()));
  EXPECT_FALSE(IsIndependentOracle(test::Example3()));
}

TEST(NaiveSplit, Example8AndExample4) {
  DatabaseScheme e8 = test::Example8();
  EXPECT_TRUE(IsKeySplitOracle(e8, Attrs(e8, "BC")));
  EXPECT_FALSE(IsKeySplitOracle(e8, Attrs(e8, "A")));
  DatabaseScheme e4 = test::Example4();
  EXPECT_TRUE(IsKeySplitOracle(e4, Attrs(e4, "BC")));
  EXPECT_FALSE(IsSplitFreeOracle(e4));
  EXPECT_TRUE(IsSplitFreeOracle(test::Example9()));
  EXPECT_TRUE(IsSplitFreeOracle(test::Example3()));
}

TEST(NaiveRecognition, PaperVerdicts) {
  EXPECT_TRUE(IsIndependenceReducibleOracle(test::Example1R()));
  EXPECT_TRUE(IsIndependenceReducibleOracle(test::Example11()));
  EXPECT_TRUE(IsIndependenceReducibleOracle(test::Example12()));
  EXPECT_FALSE(IsIndependenceReducibleOracle(test::Example2()));
}

TEST(NaiveClassification, CtmVerdicts) {
  // Example 1's R: independence-reducible, bounded and ctm.
  OracleClassification r = ClassifySchemeOracle(test::Example1R());
  EXPECT_TRUE(r.independence_reducible);
  EXPECT_TRUE(r.ctm);
  // Example 4: key-equivalent with split key BC — reducible but NOT ctm.
  OracleClassification e4 = ClassifySchemeOracle(test::Example4());
  EXPECT_TRUE(e4.key_equivalent);
  EXPECT_TRUE(e4.independence_reducible);
  EXPECT_FALSE(e4.split_free);
  EXPECT_FALSE(e4.ctm);
}

// The central cross-check: every optimized routine agrees with its oracle
// on every worked example of the paper.
TEST(Differential, PaperExamplesFullyAgree) {
  const DatabaseScheme examples[] = {
      test::Example1R(), test::Example1S(), test::Example2(),
      test::Example3(),  test::Example4(),  test::Example6(),
      test::Example8(),  test::Example9(),  test::Example11(),
      test::Example12(), test::Example13()};
  for (const DatabaseScheme& s : examples) {
    for (const Disagreement& d : CompareAgainstOracles(s, /*seed=*/0)) {
      ADD_FAILURE() << d.routine << ": " << d.detail;
    }
  }
}

TEST(Mutate, CloneIsStructurallyEqualButIndependent) {
  DatabaseScheme s = test::Example4();
  DatabaseScheme c = CloneScheme(s);
  ASSERT_EQ(c.size(), s.size());
  EXPECT_NE(c.universe_ptr(), s.universe_ptr());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(c.relation(i).name, s.relation(i).name);
    EXPECT_EQ(c.universe().Format(c.relation(i).attrs),
              s.universe().Format(s.relation(i).attrs));
  }
  EXPECT_TRUE(c.Validate().ok());
}

TEST(Mutate, MutantsAreDeterministicAndLeaveInputIntact) {
  DatabaseScheme s = test::Example11();
  std::string before = s.universe().Format(s.AllAttrs());
  std::mt19937_64 rng1(7), rng2(7);
  for (int i = 0; i < 50; ++i) {
    DatabaseScheme a = MutateScheme(s, &rng1);
    DatabaseScheme b = MutateScheme(s, &rng2);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a.universe().Format(a.relation(j).attrs),
                b.universe().Format(b.relation(j).attrs));
    }
  }
  EXPECT_EQ(s.universe().Format(s.AllAttrs()), before);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(Shrink, MinimizesWhilePreservingThePredicate) {
  // "Not split-free" on Example 4 must survive shrinking, and the shrunk
  // scheme must be locally minimal: dropping any further relation loses it.
  auto not_split_free = [](const DatabaseScheme& s) {
    return !IsSplitFreeOracle(s);
  };
  DatabaseScheme small = ShrinkScheme(test::Example4(), not_split_free);
  EXPECT_TRUE(not_split_free(small));
  EXPECT_TRUE(small.Validate().ok());
  EXPECT_LT(small.size(), test::Example4().size());
}

TEST(Corpus, WriteThenLoadRoundTrips) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "ird_corpus_test").string();
  std::filesystem::remove_all(dir);
  DatabaseScheme s = test::Example12();
  ASSERT_TRUE(
      WriteCorpusFile(dir, "example12", s, {"routine split/lemma38", "seed 7"})
          .ok());
  Result<std::vector<CorpusEntry>> loaded = LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].filename, "example12.scheme");
  ASSERT_EQ((*loaded)[0].comments.size(), 2u);
  EXPECT_EQ((*loaded)[0].comments[0], "routine split/lemma38");
  ASSERT_EQ((*loaded)[0].scheme.size(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ((*loaded)[0].scheme.relation(i).name, s.relation(i).name);
  }
  std::filesystem::remove_all(dir);
}

TEST(Corpus, MissingDirectoryIsEmptyNotError) {
  Result<std::vector<CorpusEntry>> loaded =
      LoadCorpus("/nonexistent/ird/corpus/dir");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

}  // namespace
}  // namespace ird::oracle
