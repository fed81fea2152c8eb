#include <gtest/gtest.h>

#include "engine/scheme_analysis.h"
#include "schema/database_scheme.h"
#include "tableau/lossless.h"
#include "tableau/chase.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;

TEST(DatabaseSchemeTest, AddAndFindRelations) {
  DatabaseScheme s = test::Example1R();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.relation(0).name, "R1");
  EXPECT_TRUE(s.FindRelation("R4").ok());
  EXPECT_EQ(s.FindRelation("R4").value(), 3u);
  EXPECT_FALSE(s.FindRelation("nope").ok());
}

TEST(DatabaseSchemeTest, KeyDependenciesGenerated) {
  DatabaseScheme s = test::Example1R();
  const FdSet& f = s.key_dependencies();
  // HR -> C via R1, HT -> C via R3 transitively through R2 etc.
  EXPECT_TRUE(f.Implies(Attrs(s, "HR"), Attrs(s, "C")));
  EXPECT_TRUE(f.Implies(Attrs(s, "HT"), Attrs(s, "RC")));
  EXPECT_FALSE(f.Implies(Attrs(s, "H"), Attrs(s, "C")));
  EXPECT_TRUE(f.Implies(Attrs(s, "CS"), Attrs(s, "G")));
}

TEST(DatabaseSchemeTest, KeyDependenciesCacheInvalidatedByAdd) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  EXPECT_FALSE(s.key_dependencies().Implies(
      s.universe_ptr()->Chars("B"), s.universe_ptr()->Chars("C")));
  s.AddRelation("R2", "BC", {"B"});
  EXPECT_TRUE(s.key_dependencies().Implies(Attrs(s, "B"), Attrs(s, "C")));
}

TEST(DatabaseSchemeTest, KeyDependenciesExcept) {
  // In Example 1's R, HR -> C survives the removal of R1's keys (via
  // HR -> T and HT -> C); in the two-relation chain it does not.
  DatabaseScheme s = test::Example1R();
  FdSet without_r1 = s.KeyDependenciesExcept(0);
  EXPECT_TRUE(without_r1.Implies(Attrs(s, "HR"), Attrs(s, "C")));
  EXPECT_TRUE(without_r1.Implies(Attrs(s, "HR"), Attrs(s, "T")));

  DatabaseScheme chain = DatabaseScheme::Create();
  chain.AddRelation("R1", "AB", {"A"});
  chain.AddRelation("R2", "BC", {"B"});
  FdSet without_first = chain.KeyDependenciesExcept(0);
  EXPECT_FALSE(without_first.Implies(Attrs(chain, "A"), Attrs(chain, "B")));
  EXPECT_TRUE(without_first.Implies(Attrs(chain, "B"), Attrs(chain, "C")));
}

TEST(DatabaseSchemeTest, AllKeysDeduplicates) {
  DatabaseScheme s = test::Example3();  // keys A, B, C declared twice each
  EXPECT_EQ(s.AllKeys().size(), 3u);
}

TEST(DatabaseSchemeTest, PoolOrAllAndDistinctKeys) {
  DatabaseScheme s = test::Example4();
  EXPECT_EQ(s.PoolOrAll(), (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(s.PoolOrAll({6, 2}), (std::vector<size_t>{6, 2}));
  // Pool order first, then declaration order; a repeated key once.
  EXPECT_EQ(s.DistinctKeys({6, 2, 0}),
            (std::vector<AttributeSet>{Attrs(s, "D"), Attrs(s, "A"),
                                       Attrs(s, "E")}));
  EXPECT_EQ(s.DistinctKeys(),
            (std::vector<AttributeSet>{Attrs(s, "A"), Attrs(s, "E"),
                                       Attrs(s, "BC"), Attrs(s, "D")}));
}

TEST(DatabaseSchemeTest, ValidateAcceptsPaperExamples) {
  EXPECT_TRUE(test::Example1R().Validate().ok());
  EXPECT_TRUE(test::Example1S().Validate().ok());
  EXPECT_TRUE(test::Example2().Validate().ok());
  EXPECT_TRUE(test::Example3().Validate().ok());
  EXPECT_TRUE(test::Example4().Validate().ok());
  EXPECT_TRUE(test::Example6().Validate().ok());
  EXPECT_TRUE(test::Example8().Validate().ok());
  EXPECT_TRUE(test::Example9().Validate().ok());
  EXPECT_TRUE(test::Example11().Validate().ok());
  EXPECT_TRUE(test::Example13().Validate().ok());
}

TEST(DatabaseSchemeTest, ValidateRejectsNonMinimalKey) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "ABC", {"AB"});  // A alone determines AB, then ABC? No:
  // A -> AB (R1), AB -> ABC (R2), so closure(A) ⊇ ABC: AB is not minimal.
  Status status = s.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseSchemeTest, ValidateRejectsUncoveredUniverse) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.universe_ptr()->Intern("Z");  // Z in U but in no relation
  EXPECT_FALSE(s.Validate().ok());
}

TEST(DatabaseSchemeTest, ValidateRejectsDuplicateSchemes) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "AB", {"B"});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(DatabaseSchemeTest, BcnfHoldsForKeyOnlySchemes) {
  // Key-equivalent schemes are BCNF (Lemma 3.1).
  EXPECT_TRUE(test::Example3().IsBcnf());
  EXPECT_TRUE(test::Example4().IsBcnf());
  EXPECT_TRUE(test::Example6().IsBcnf());
  EXPECT_TRUE(test::Example1R().IsBcnf());
}

TEST(DatabaseSchemeTest, BcnfViolationDetected) {
  // R2(ABZ) with key AB; A -> C elsewhere is fine, but embed a partial
  // dependency: R3(AC) key A makes A -> C; then R2(ACZ) with key AZ has
  // embedded A -> C with A not a superkey of ACZ.
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AC", {"A"});
  s.AddRelation("R2", "ACZ", {"AZ"});
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_FALSE(s.IsBcnf());
}

// The BMSU closure test, IsLossless on a fresh analysis.
bool LosslessByClosure(const DatabaseScheme& s) {
  SchemeAnalysis analysis(s);
  return IsLossless(analysis);
}

TEST(DatabaseSchemeTest, LosslessAgreesWithChase) {
  std::vector<DatabaseScheme> schemes = {
      test::Example1R(), test::Example1S(), test::Example2(),
      test::Example3(),  test::Example4(),  test::Example6(),
      test::Example8(),  test::Example9(),  test::Example11(),
      test::Example13()};
  for (const DatabaseScheme& s : schemes) {
    EXPECT_EQ(LosslessByClosure(s), IsLosslessByChase(s)) << s.ToString();
  }
}

TEST(DatabaseSchemeTest, LosslessAgreesWithChaseOnRandomSchemes) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomSchemeOptions opt;
    opt.universe_size = 6;
    opt.relations = 4;
    opt.seed = seed;
    DatabaseScheme s = MakeRandomScheme(opt);
    EXPECT_EQ(LosslessByClosure(s), IsLosslessByChase(s)) << s.ToString();
  }
}

TEST(LosslessTest, SingleRelationIsLossless) {
  DatabaseScheme s = test::Example9();
  EXPECT_TRUE(IsLosslessSubset(s, {0}));
}

TEST(LosslessTest, ChainSubsetLossless) {
  DatabaseScheme s = test::Example9();  // AB, BC, CD, DE bidirectional
  EXPECT_TRUE(IsLosslessSubset(s, {0, 1}));
  EXPECT_TRUE(IsLosslessSubset(s, {0, 1, 2, 3}));
  // AB and CD share nothing: the join is a cartesian product, lossy.
  EXPECT_FALSE(IsLosslessSubset(s, {0, 2}));
}

TEST(LosslessTest, Example4BEjoinCE) {
  DatabaseScheme s = test::Example4();
  // {R4(EB), R5(EC)} is lossless (E is a key of both sides).
  auto r4 = s.FindRelation("R4").value();
  auto r5 = s.FindRelation("R5").value();
  EXPECT_TRUE(IsLosslessSubset(s, {r4, r5}));
  // {R1(AB), R4(EB)} share only B, which is no key: lossy.
  auto r1 = s.FindRelation("R1").value();
  EXPECT_FALSE(IsLosslessSubset(s, {r1, r4}));
}

TEST(LosslessTest, MinimalLosslessSubsetsCoveringAE) {
  // Example 4: [AE] is computed by R3 ∪ π_AE(R1 ⋈ R2 ⋈ (R4 ⋈ R5)).
  DatabaseScheme s = test::Example4();
  std::vector<size_t> pool = {0, 1, 2, 3, 4, 5, 6};
  std::vector<std::vector<size_t>> subsets =
      MinimalLosslessSubsetsCovering(s, pool, Attrs(s, "AE"));
  // R3(AE) alone must be among them.
  bool has_r3_alone = false;
  for (const auto& subset : subsets) {
    if (subset == std::vector<size_t>{2}) has_r3_alone = true;
    EXPECT_TRUE(Attrs(s, "AE").IsSubsetOf(s.UnionAttrs(subset)));
    EXPECT_TRUE(IsLosslessSubset(s, subset));
  }
  EXPECT_TRUE(has_r3_alone);
  // The paper's second expression {R1, R2, R4, R5} must appear.
  bool has_quad = false;
  for (const auto& subset : subsets) {
    if (subset == std::vector<size_t>{0, 1, 3, 4}) has_quad = true;
  }
  EXPECT_TRUE(has_quad);
}

TEST(LosslessTest, MinimalityIsEnforced) {
  DatabaseScheme s = test::Example9();
  std::vector<std::vector<size_t>> subsets =
      MinimalLosslessSubsetsCovering(s, {0, 1, 2, 3}, Attrs(s, "AB"));
  // R1 alone covers AB; nothing containing R1 may also appear.
  ASSERT_EQ(subsets.size(), 1u);
  EXPECT_EQ(subsets[0], (std::vector<size_t>{0}));
}

}  // namespace
}  // namespace ird
