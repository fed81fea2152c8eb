#include "fd/closure_engine.h"

#include <gtest/gtest.h>

#include <random>

#include "base/universe.h"
#include "oracle/naive_closure.h"
#include "workload/generators.h"

namespace ird {
namespace {

// The reference is the oracle's textbook fixpoint: FdSet::Closure runs
// this same engine, so comparing with it would prove nothing.
TEST(ClosureEngineTest, MatchesNaiveClosureOnTextbookSets) {
  Universe u;
  FdSet f;
  f.Add(u.Chars("A"), u.Chars("B"));
  f.Add(u.Chars("B"), u.Chars("C"));
  f.Add(u.Chars("CD"), u.Chars("E"));
  ClosureEngine engine(f);
  for (const char* x : {"A", "B", "C", "D", "AD", "ABCDE", ""}) {
    EXPECT_EQ(engine.Closure(u.Chars(x)), oracle::NaiveClosure(f, u.Chars(x)))
        << x;
  }
}

TEST(ClosureEngineTest, EmptyLeftSideFiresUnconditionally) {
  Universe u;
  FdSet f;
  f.Add(AttributeSet{}, u.Chars("A"));
  f.Add(u.Chars("A"), u.Chars("B"));
  ClosureEngine engine(f);
  EXPECT_EQ(engine.Closure(AttributeSet{}), u.Chars("AB"));
}

TEST(ClosureEngineTest, EmptyFdSet) {
  FdSet f;
  ClosureEngine engine(f);
  EXPECT_EQ(engine.Closure(AttributeSet{3, 5}), (AttributeSet{3, 5}));
}

TEST(ClosureEngineTest, ReusableAcrossQueries) {
  Universe u;
  FdSet f;
  f.Add(u.Chars("A"), u.Chars("B"));
  ClosureEngine engine(f);
  EXPECT_EQ(engine.Closure(u.Chars("A")), u.Chars("AB"));
  EXPECT_EQ(engine.Closure(u.Chars("B")), u.Chars("B"));
  EXPECT_EQ(engine.Closure(u.Chars("A")), u.Chars("AB"));  // counters reset
}

TEST(ClosureEngineTest, MatchesNaiveClosureOnGeneratedSchemes) {
  std::mt19937_64 rng(5);
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomSchemeOptions opt;
    opt.universe_size = 8;
    opt.relations = 6;
    opt.seed = seed;
    DatabaseScheme s = MakeRandomScheme(opt);
    const FdSet& f = s.key_dependencies();
    ClosureEngine engine(f);
    for (int round = 0; round < 20; ++round) {
      AttributeSet x;
      for (AttributeId a = 0; a < 8; ++a) {
        if (rng() % 3 == 0) x.Add(a);
      }
      EXPECT_EQ(engine.Closure(x), oracle::NaiveClosure(f, x)) << s.ToString();
    }
  }
}

}  // namespace
}  // namespace ird
