// Parameterized property sweeps: every maintained invariant of the library,
// run systematically over (scheme family × size × seed). These are the
// paper's theorems as executable properties:
//
//   P1  generated schemes validate, and class flags are coherent
//       (independent ⇒ accepted; key-equivalent ⇒ BCNF ∧ accepted;
//        accepted ∧ split-free ⇔ ctm).
//   P2  maintenance agreement: the sharded maintainer (Algorithm 5 or 2
//       per block) and, on key-equivalent schemes, Algorithm 2 over the
//       whole scheme == the chase, on insert streams.
//   P3  query agreement: Theorem 4.1 expressions == [X] by chase, and no
//       join of an expression takes a cartesian step.
//   P4  representative index == chase representative instance.
//   P5  split analysis: Lemma 3.8 == the definitional search.

#include <optional>

#include <gtest/gtest.h>

#include "core/classify.h"
#include "core/key_equivalence.h"
#include "core/key_equivalent_maintainer.h"
#include "core/representative_index.h"
#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "core/total_projection.h"
#include "hypergraph/hypergraph.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

enum class Family {
  kChain,
  kSplit,
  kIndependent,
  kBlocks,
  kStar,
  kTreeOneWay,
  kTreeMixed,
  kRandom,
  kRandomMultiKey,
  kPaper,  // size = example number
};

struct SweepCase {
  Family family;
  size_t size;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* names[] = {"Chain",      "Split",      "Independent",
                         "Blocks",     "Star",       "TreeOneWay",
                         "TreeMixed",  "Random",     "RandomMultiKey",
                         "Example"};
  return std::string(names[static_cast<int>(info.param.family)]) + "_s" +
         std::to_string(info.param.size) + "_r" +
         std::to_string(info.param.seed);
}

DatabaseScheme MakeScheme(const SweepCase& c) {
  switch (c.family) {
    case Family::kChain:
      return MakeChainScheme(c.size);
    case Family::kSplit:
      return MakeSplitScheme(c.size);
    case Family::kIndependent:
      return MakeIndependentScheme(c.size);
    case Family::kBlocks:
      return MakeBlockScheme(c.size, 3);
    case Family::kStar:
      return MakeStarScheme(c.size);
    case Family::kTreeOneWay:
      return MakeTreeScheme(c.size, 0.0, c.seed);
    case Family::kTreeMixed:
      return MakeTreeScheme(c.size, 0.5, c.seed);
    case Family::kRandom: {
      RandomSchemeOptions opt;
      opt.universe_size = c.size + 2;
      opt.relations = c.size;
      opt.seed = c.seed;
      return MakeRandomScheme(opt);
    }
    case Family::kRandomMultiKey: {
      RandomSchemeOptions opt;
      opt.universe_size = c.size + 2;
      opt.relations = c.size;
      opt.multi_key_prob = 0.5;
      opt.seed = c.seed;
      return MakeRandomScheme(opt);
    }
    case Family::kPaper:
      switch (c.size) {
        case 1:
          return test::Example1R();
        case 2:
          return test::Example2();
        case 3:
          return test::Example3();
        case 4:
          return test::Example4();
        case 6:
          return test::Example6();
        case 8:
          return test::Example8();
        case 9:
          return test::Example9();
        case 11:
          return test::Example11();
        case 12:
          return test::Example12();
        case 13:
          return test::Example13();
      }
      IRD_CHECK(false);
  }
  IRD_CHECK(false);
  return DatabaseScheme::Create();
}

class PropertySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  PropertySweep() : scheme_(MakeScheme(GetParam())) {}

  DatabaseState MakeState(size_t entities) const {
    StateGenOptions opt;
    opt.entities = entities;
    opt.coverage = 0.6;
    opt.seed = GetParam().seed + 1000;
    return MakeConsistentState(scheme_, opt);
  }

  DatabaseScheme scheme_;
};

TEST_P(PropertySweep, P1_ValidityAndClassCoherence) {
  EXPECT_TRUE(scheme_.Validate().ok()) << scheme_.ToString();
  SchemeClassification c = ClassifyScheme(scheme_, /*test_acyclicity=*/false);
  if (c.independent) {
    EXPECT_TRUE(c.independence_reducible) << scheme_.ToString();
  }
  if (c.key_equivalent) {
    EXPECT_TRUE(c.bcnf) << scheme_.ToString();  // Lemma 3.1
    EXPECT_TRUE(c.independence_reducible) << scheme_.ToString();
  }
  if (c.independence_reducible) {
    EXPECT_EQ(c.ctm, c.split_free);  // Theorem 5.5
    EXPECT_TRUE(c.bounded);
    EXPECT_TRUE(c.algebraic_maintainable);
  } else {
    EXPECT_FALSE(c.ctm);
  }
}

TEST_P(PropertySweep, P2_MaintenanceAgreesWithChase) {
  RecognitionResult recognition = RecognizeIndependenceReducible(scheme_);
  if (!recognition.accepted) GTEST_SKIP() << "outside the class";
  DatabaseState state = MakeState(15);
  ASSERT_TRUE(IsConsistent(state));
  // The maintainer runs Algorithm 5 or 2 per block (Theorem 5.5); on a
  // key-equivalent scheme Algorithm 2 is also run over the whole scheme,
  // split-free or not.
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  ASSERT_TRUE(m.ok());
  std::optional<RepresentativeIndex> rep;
  if (IsKeyEquivalent(scheme_)) {
    Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
    ASSERT_TRUE(index.ok());
    rep.emplace(std::move(index).value());
  }
  std::vector<InsertInstance> stream =
      MakeInsertStream(scheme_, state, 25, 0.4, GetParam().seed + 7);
  for (const InsertInstance& ins : stream) {
    bool truth = WouldRemainConsistent(state, ins.rel, ins.tuple);
    EXPECT_EQ(truth, ins.expected_consistent);
    EXPECT_EQ(m->CheckInsert(ins.rel, ins.tuple).ok(), truth)
        << ins.tuple.ToString(scheme_.universe());
    if (rep.has_value()) {
      EXPECT_EQ(
          CheckInsertKeyEquivalent(scheme_, *rep, ins.rel, ins.tuple).ok(),
          truth);
    }
  }
}

TEST_P(PropertySweep, P3_BoundedProjectionsAgreeWithChase) {
  RecognitionResult recognition = RecognizeIndependenceReducible(scheme_);
  if (!recognition.accepted) GTEST_SKIP() << "outside the class";
  if (scheme_.size() > 12) GTEST_SKIP() << "expression enumeration too wide";
  DatabaseState state = MakeState(10);
  std::mt19937_64 rng(GetParam().seed + 13);
  std::vector<AttributeId> all = scheme_.AllAttrs().ToVector();
  for (int round = 0; round < 4; ++round) {
    AttributeSet x;
    for (AttributeId a : all) {
      if (rng() % 3 == 0) x.Add(a);
    }
    if (x.Empty()) x.Add(all[rng() % all.size()]);
    // The plan TotalProjection evaluates joins each member on an attribute
    // shared with the members before it.
    ExprPtr plan = BuildBoundedProjectionExpr(scheme_, recognition, x);
    if (plan != nullptr) {
      EXPECT_EQ(test::CartesianSteps(*plan), 0u) << plan->ToString(scheme_);
    }
    PartialRelation bounded = TotalProjection(state, recognition, x);
    Result<PartialRelation> chase = TotalProjectionByChase(state, x);
    ASSERT_TRUE(chase.ok());
    EXPECT_TRUE(bounded.SetEquals(*chase))
        << scheme_.universe().Format(x) << "\n  bounded "
        << bounded.ToString(scheme_.universe()) << "\n  chase   "
        << chase->ToString(scheme_.universe());
  }
}

TEST_P(PropertySweep, P4_RepresentativeIndexMatchesChase) {
  if (!IsKeyEquivalent(scheme_)) GTEST_SKIP() << "not key-equivalent";
  DatabaseState state = MakeState(20);
  Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
  ASSERT_TRUE(index.ok());
  for (const RelationScheme& r : scheme_.relations()) {
    Result<PartialRelation> chase =
        TotalProjectionByChase(state, r.attrs);
    ASSERT_TRUE(chase.ok());
    EXPECT_TRUE(index->TotalProjection(r.attrs).SetEquals(*chase)) << r.name;
  }
}

TEST_P(PropertySweep, P5_SplitTestsAgree) {
  if (scheme_.size() > 14) GTEST_SKIP() << "definitional search too wide";
  for (const auto& [rel, key] : scheme_.AllKeys()) {
    EXPECT_EQ(IsKeySplit(scheme_, key),
              IsKeySplitByDefinition(scheme_, key))
        << scheme_.relation(rel).name << " key "
        << scheme_.universe().Format(key);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PropertySweep,
    ::testing::Values(
        SweepCase{Family::kChain, 2, 1}, SweepCase{Family::kChain, 5, 2},
        SweepCase{Family::kChain, 9, 3}, SweepCase{Family::kSplit, 2, 1},
        SweepCase{Family::kSplit, 3, 2}, SweepCase{Family::kSplit, 5, 3},
        SweepCase{Family::kIndependent, 1, 1},
        SweepCase{Family::kIndependent, 4, 2},
        SweepCase{Family::kIndependent, 8, 3},
        SweepCase{Family::kBlocks, 1, 1}, SweepCase{Family::kBlocks, 2, 2},
        SweepCase{Family::kBlocks, 4, 3}, SweepCase{Family::kStar, 1, 1},
        SweepCase{Family::kStar, 5, 2},
        SweepCase{Family::kTreeOneWay, 5, 11},
        SweepCase{Family::kTreeOneWay, 9, 12},
        SweepCase{Family::kTreeMixed, 5, 21},
        SweepCase{Family::kTreeMixed, 9, 22},
        SweepCase{Family::kTreeMixed, 12, 23},
        SweepCase{Family::kRandom, 4, 31}, SweepCase{Family::kRandom, 4, 32},
        SweepCase{Family::kRandom, 6, 33}, SweepCase{Family::kRandom, 6, 34},
        SweepCase{Family::kRandom, 8, 35}, SweepCase{Family::kRandom, 8, 36},
        SweepCase{Family::kRandomMultiKey, 4, 41},
        SweepCase{Family::kRandomMultiKey, 5, 42},
        SweepCase{Family::kRandomMultiKey, 6, 43},
        SweepCase{Family::kRandomMultiKey, 7, 44},
        SweepCase{Family::kPaper, 1, 0}, SweepCase{Family::kPaper, 2, 0},
        SweepCase{Family::kPaper, 3, 0}, SweepCase{Family::kPaper, 4, 0},
        SweepCase{Family::kPaper, 6, 0}, SweepCase{Family::kPaper, 8, 0},
        SweepCase{Family::kPaper, 9, 0}, SweepCase{Family::kPaper, 11, 0},
        SweepCase{Family::kPaper, 12, 0}, SweepCase{Family::kPaper, 13, 0}),
    CaseName);

// Theorem 5.2 over the tree family: γ-acyclic BCNF trees are always
// accepted (checked densely over many random trees; γ-acyclicity of the
// 2-attribute tree hypergraph is verified on the small ones).
TEST(TreeFamilyTest, Theorem52Sweep) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    size_t nodes = 3 + seed % 8;
    DatabaseScheme s = MakeTreeScheme(nodes, (seed % 3) * 0.5, seed);
    ASSERT_TRUE(s.Validate().ok()) << s.ToString();
    EXPECT_TRUE(s.IsBcnf()) << s.ToString();
    if (nodes <= 7) {
      EXPECT_TRUE(IsGammaAcyclic(Hypergraph::Of(s))) << s.ToString();
    }
    EXPECT_TRUE(IsIndependenceReducible(s)) << s.ToString();
  }
}

}  // namespace
}  // namespace ird
