// The engine layer: SchemeAnalysis (interned covers, memoized closures,
// typed result caches, revision-counter invalidation) and BatchAnalyzer
// (the fixed-pool parallel driver). The memoization contract under test is
// bit-identity: every answer a warm analysis serves must equal what a
// fresh computation produces, over all of the paper's worked examples.

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/classify.h"
#include "core/recognition.h"
#include "core/split.h"
#include "engine/batch.h"
#include "engine/scheme_analysis.h"
#include "tests/test_util.h"

namespace ird {
namespace {

struct NamedScheme {
  const char* name;
  DatabaseScheme scheme;
};

std::vector<NamedScheme> PaperExamples() {
  std::vector<NamedScheme> out;
  out.push_back({"Example1R", test::Example1R()});
  out.push_back({"Example1S", test::Example1S()});
  out.push_back({"Example2", test::Example2()});
  out.push_back({"Example3", test::Example3()});
  out.push_back({"Example4", test::Example4()});
  out.push_back({"Example6", test::Example6()});
  out.push_back({"Example8", test::Example8()});
  out.push_back({"Example9", test::Example9()});
  out.push_back({"Example11", test::Example11()});
  out.push_back({"Example12", test::Example12()});
  out.push_back({"Example13", test::Example13()});
  return out;
}

void ExpectSameRecognition(const RecognitionResult& a,
                           const RecognitionResult& b, const char* name) {
  EXPECT_EQ(a.accepted, b.accepted) << name;
  EXPECT_EQ(a.partition, b.partition) << name;
  ASSERT_EQ(a.induced.has_value(), b.induced.has_value()) << name;
  if (a.induced.has_value()) {
    ASSERT_EQ(a.induced->size(), b.induced->size()) << name;
    for (size_t i = 0; i < a.induced->size(); ++i) {
      EXPECT_EQ(a.induced->relation(i).attrs, b.induced->relation(i).attrs)
          << name << " induced relation " << i;
      EXPECT_EQ(a.induced->relation(i).keys, b.induced->relation(i).keys)
          << name << " induced relation " << i;
    }
  }
  ASSERT_EQ(a.violation.has_value(), b.violation.has_value()) << name;
  if (a.violation.has_value()) {
    EXPECT_EQ(a.violation->i, b.violation->i) << name;
    EXPECT_EQ(a.violation->j, b.violation->j) << name;
    EXPECT_EQ(a.violation->key, b.violation->key) << name;
    EXPECT_EQ(a.violation->attribute, b.violation->attribute) << name;
  }
}

TEST(SchemeAnalysisTest, MemoizedClosuresMatchFreshOnes) {
  for (const NamedScheme& example : PaperExamples()) {
    const DatabaseScheme& scheme = example.scheme;
    SchemeAnalysis analysis(scheme);
    const FdSet& f = scheme.key_dependencies();
    for (size_t i = 0; i < scheme.size(); ++i) {
      const AttributeSet& attrs = scheme.relation(i).attrs;
      AttributeSet fresh = f.Closure(attrs);
      // Miss, then hit: both must equal the naive fixpoint closure.
      EXPECT_EQ(analysis.FullClosure(attrs), fresh) << example.name;
      EXPECT_EQ(analysis.FullClosure(attrs), fresh) << example.name;
      // Leave-one-out cover F - Fi, the uniqueness condition's engine.
      std::vector<size_t> others;
      for (size_t j = 0; j < scheme.size(); ++j) {
        if (j != i) others.push_back(j);
      }
      AttributeSet fresh_except =
          scheme.KeyDependenciesOf(others).Closure(attrs);
      EXPECT_EQ(analysis.ClosureExcept(i, attrs), fresh_except)
          << example.name << " without relation " << i;
    }
  }
}

TEST(SchemeAnalysisTest, ClosureExceptOnSingleRelationSchemeIsIdentity) {
  DatabaseScheme scheme = DatabaseScheme::Create();
  scheme.AddRelation("R1", "AB", {"A"});
  SchemeAnalysis analysis(scheme);
  AttributeSet a = scheme.universe_ptr()->Chars("A");
  // F - F1 is empty: the closure must be the identity, not the full-cover
  // closure the empty-pool convention would otherwise select.
  EXPECT_EQ(analysis.ClosureExcept(0, a), a);
}

TEST(SchemeAnalysisTest, RecognitionMatchesSchemeLevelWrapper) {
  for (const NamedScheme& example : PaperExamples()) {
    SchemeAnalysis analysis(example.scheme);
    RecognitionResult fresh = RecognizeIndependenceReducible(example.scheme);
    RecognitionResult cold = RecognizeIndependenceReducible(analysis);
    RecognitionResult warm = RecognizeIndependenceReducible(analysis);
    ExpectSameRecognition(cold, fresh, example.name);
    ExpectSameRecognition(warm, fresh, example.name);
    EXPECT_EQ(SplitKeys(analysis), SplitKeys(example.scheme)) << example.name;
    // The at-most-once build guarantee, counter-free (holds with
    // IRD_OBS=OFF too): the warm run added no engine.
    size_t built = analysis.built_engine_count();
    (void)RecognizeIndependenceReducible(analysis);
    (void)SplitKeys(analysis);
    EXPECT_EQ(analysis.built_engine_count(), built) << example.name;
  }
}

TEST(SchemeAnalysisTest, AddRelationInvalidatesCaches) {
  DatabaseScheme scheme = test::Example2();
  SchemeAnalysis analysis(scheme);
  AttributeSet b = scheme.universe_ptr()->Chars("B");
  AttributeSet bc = scheme.universe_ptr()->Chars("BC");
  EXPECT_EQ(analysis.FullClosure(b), bc);
  (void)RecognizeIndependenceReducible(analysis);
  EXPECT_GT(analysis.built_engine_count(), 0u);

  uint64_t before = scheme.revision();
  scheme.AddRelation("R4", "CD", {"C"});
  EXPECT_GT(scheme.revision(), before);

  // First query after the mutation drops every cover, memo and slot and
  // recompiles: B -> BC -> BCD now.
  AttributeSet bcd = scheme.universe_ptr()->Chars("BCD");
  EXPECT_EQ(analysis.FullClosure(b), bcd);
  EXPECT_EQ(analysis.seen_revision(), scheme.revision());
  RecognitionResult after = RecognizeIndependenceReducible(analysis);
  ExpectSameRecognition(after, RecognizeIndependenceReducible(scheme),
                        "Example2+R4");
}

std::string ClassificationLine(SchemeAnalysis& analysis) {
  SchemeClassification c = ClassifyScheme(analysis);
  std::string line;
  line += c.lossless ? "L" : "-";
  line += c.independent ? "I" : "-";
  line += c.key_equivalent ? "K" : "-";
  line += c.independence_reducible ? "R" : "-";
  line += c.split_free ? "S" : "-";
  line += ":";
  for (const std::vector<size_t>& block : c.recognition.partition) {
    line += "{";
    for (size_t i : block) line += std::to_string(i) + ",";
    line += "}";
  }
  return line;
}

TEST(BatchAnalyzerTest, EveryIndexRunsExactlyOnce) {
  for (size_t jobs : {size_t{1}, size_t{4}, size_t{8}}) {
    BatchAnalyzer batch(jobs);
    std::vector<int> hits(257, 0);
    batch.ForEachIndex(hits.size(),
                       [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " index " << i;
    }
    // The pool is reusable: a second batch on the same analyzer.
    std::vector<int> again(31, 0);
    batch.ForEachIndex(again.size(), [&](size_t i) { again[i] += 1; });
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i], 1) << "jobs=" << jobs << " second batch " << i;
    }
    batch.ForEachIndex(0, [&](size_t) { FAIL() << "empty batch ran"; });
  }
}

TEST(BatchAnalyzerTest, ParallelAnalysisMatchesSerial) {
  std::vector<NamedScheme> examples = PaperExamples();
  // Repeat the example list to give the pool something to contend over,
  // one DatabaseScheme copy per slot.
  std::vector<DatabaseScheme> copies;
  for (size_t rep = 0; rep < 8; ++rep) {
    for (const NamedScheme& example : examples) {
      copies.push_back(example.scheme);
    }
  }
  std::vector<const DatabaseScheme*> schemes;
  schemes.reserve(copies.size());
  for (const DatabaseScheme& copy : copies) {
    schemes.push_back(&copy);
  }

  auto classify_all = [&](size_t jobs) {
    std::vector<std::string> lines(schemes.size());
    BatchAnalyzer batch(jobs);
    EXPECT_EQ(batch.jobs(), jobs);
    batch.AnalyzeEach(schemes, [&](size_t i, SchemeAnalysis& analysis) {
      lines[i] = ClassificationLine(analysis);
    });
    return lines;
  };

  std::vector<std::string> serial = classify_all(1);
  std::vector<std::string> parallel = classify_all(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "scheme index " << i;
    EXPECT_FALSE(serial[i].empty()) << "scheme index " << i;
  }
}

// Stress for the guarded batch-handout state (generation_/fn_/count_/
// done_/active_workers_, now IRD_GUARDED_BY(mu_)): hundreds of
// back-to-back generations of varying sizes on one pool, so a late worker
// from batch N always overlaps the start of batch N+1 somewhere. Exactly-
// once handout must survive every generation at 2, 4 and 8 jobs (a worker
// that wakes after its batch returned must not drain the next one's
// cursor); the CI TSan job holds the conversion to the same story at
// runtime, and CI repeats this binary 50 times on multi-core runners.
TEST(BatchAnalyzerTest, BackToBackGenerationsHandOutExactlyOnce) {
  for (size_t jobs : {2u, 4u, 8u}) {
    BatchAnalyzer batch(jobs);
    for (size_t generation = 0; generation < 200; ++generation) {
      const size_t count = 1 + (generation * 7) % 97;
      std::vector<std::atomic<int>> hits(count);
      for (std::atomic<int>& h : hits) h.store(0);
      batch.ForEachIndex(count, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "jobs " << jobs << " generation "
                                     << generation << " index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ird
