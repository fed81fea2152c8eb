// Replays the golden corpus: every scheme the differential fuzzer ever
// caught disagreeing (shrunk and committed under tests/corpus/) is re-run
// through the full differential harness on every ctest invocation. A
// regression that resurrects an old disagreement fails here with the exact
// historical witness.

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "oracle/corpus.h"
#include "oracle/differential.h"

#ifndef IRD_CORPUS_DIR
#define IRD_CORPUS_DIR "tests/corpus"
#endif

namespace ird::oracle {
namespace {

std::string CorpusDir() {
  const char* v = std::getenv("IRD_FUZZ_CORPUS_DIR");
  return (v == nullptr || *v == '\0') ? IRD_CORPUS_DIR : v;
}

TEST(CorpusReplay, EveryEntryParsesValidatesAndAgrees) {
  Result<std::vector<CorpusEntry>> corpus = LoadCorpus(CorpusDir());
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // The committed corpus is never empty: it holds golden anchor schemes
  // (each file's '#' header says what it guards) plus every shrunk
  // disagreement the fuzzer ever writes.
  ASSERT_FALSE(corpus->empty())
      << "no .scheme files under " << CorpusDir()
      << " — corpus missing or IRD_CORPUS_DIR misconfigured";
  for (const CorpusEntry& entry : *corpus) {
    SCOPED_TRACE(entry.filename);
    ASSERT_TRUE(entry.scheme.Validate().ok())
        << entry.scheme.Validate().ToString();
    for (const Disagreement& d :
         CompareAgainstOracles(entry.scheme, /*seed=*/0)) {
      ADD_FAILURE() << entry.filename << ": " << d.routine << ": "
                    << d.detail;
    }
  }
}

}  // namespace
}  // namespace ird::oracle
