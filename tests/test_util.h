// Shared fixtures: the database schemes of the paper's worked examples,
// referenced across the test suite by their example numbers.

#ifndef IRD_TESTS_TEST_UTIL_H_
#define IRD_TESTS_TEST_UTIL_H_

#include <numeric>
#include <vector>

#include "algebra/expression.h"
#include "relation/database_state.h"
#include "schema/database_scheme.h"

namespace ird::test {

// Example 1's R: the university scheme. Neither independent nor γ-acyclic,
// but independence-reducible, bounded and ctm.
//   R1(HRC){HR} R2(HTR){HT,HR} R3(HTC){HT} R4(CSG){CS} R5(HSR){HS}
inline DatabaseScheme Example1R() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "HRC", {"HR"});
  s.AddRelation("R2", "HTR", {"HT", "HR"});
  s.AddRelation("R3", "HTC", {"HT"});
  s.AddRelation("R4", "CSG", {"CS"});
  s.AddRelation("R5", "HSR", {"HS"});
  return s;
}

// Example 1's S: the merged scheme, independent by [S2].
//   S1(HRCT){HR,HT} S2(CSG){CS} S3(HSR){HS}
inline DatabaseScheme Example1S() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("S1", "HRCT", {"HR", "HT"});
  s.AddRelation("S2", "CSG", {"CS"});
  s.AddRelation("S3", "HSR", {"HS"});
  return s;
}

// Example 2: R = {R1(AB), R2(BC), R3(AC)}, F = {A->C, B->C} as embedded
// keys (R1's only key is trivial). Not algebraic-maintainable.
inline DatabaseScheme Example2() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"AB"});
  s.AddRelation("R2", "BC", {"B"});
  s.AddRelation("R3", "AC", {"A"});
  return s;
}

// Example 3 (= Example 10's S): the triangle with bidirectional singleton
// keys. Key-equivalent, split-free, but not independent and not even
// α-acyclic.
inline DatabaseScheme Example3() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A", "B"});
  s.AddRelation("R2", "BC", {"B", "C"});
  s.AddRelation("R3", "AC", {"A", "C"});
  return s;
}

// Examples 4, 5 and 7 share this scheme. Key-equivalent; the key BC is
// split, so it is bounded and algebraic-maintainable but NOT ctm.
//   R1(AB){A} R2(AC){A} R3(AE){A,E} R4(EB){E} R5(EC){E}
//   R6(BCD){BC,D} R7(DA){D,A}
inline DatabaseScheme Example4() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "AC", {"A"});
  s.AddRelation("R3", "AE", {"A", "E"});
  s.AddRelation("R4", "EB", {"E"});
  s.AddRelation("R5", "EC", {"E"});
  s.AddRelation("R6", "BCD", {"BC", "D"});
  s.AddRelation("R7", "DA", {"D", "A"});
  return s;
}

// Example 6: key-equivalent with keys {A, B, E, CD}.
//   R1(ABE){A,B,E} R2(AC){A} R3(AD){A} R4(BC){B} R5(BD){B} R6(CDE){CD,E}
inline DatabaseScheme Example6() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "ABE", {"A", "B", "E"});
  s.AddRelation("R2", "AC", {"A"});
  s.AddRelation("R3", "AD", {"A"});
  s.AddRelation("R4", "BC", {"B"});
  s.AddRelation("R5", "BD", {"B"});
  s.AddRelation("R6", "CDE", {"CD", "E"});
  return s;
}

// Example 8: the key BC is split in R1+, R2+ and R5+, but R3 and R4 are
// split-free.
//   R1(AC){A} R2(AB){A} R3(ABC){A,BC} R4(BCD){BC,D} R5(AD){A,D}
inline DatabaseScheme Example8() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AC", {"A"});
  s.AddRelation("R2", "AB", {"A"});
  s.AddRelation("R3", "ABC", {"A", "BC"});
  s.AddRelation("R4", "BCD", {"BC", "D"});
  s.AddRelation("R5", "AD", {"A", "D"});
  return s;
}

// Example 9: the split-free chain (all keys single attributes).
//   R1(AB){A,B} R2(BC){B,C} R3(CD){C,D} R4(DE){D,E}
inline DatabaseScheme Example9() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A", "B"});
  s.AddRelation("R2", "BC", {"B", "C"});
  s.AddRelation("R3", "CD", {"C", "D"});
  s.AddRelation("R4", "DE", {"D", "E"});
  return s;
}

// Examples 11/12 share this shape; Example 11 has the fully bidirectional
// triangle block. Independence-reducible with partition
// {{R1,R2,R3,R4},{R5,R6}} and D = {D1(ABCD), D2(DEFG)}.
//   R1(AB){A,B} R2(BC){B,C} R3(AC){A,C} R4(AD){A} R5(DEF){D} R6(DEG){D}
inline DatabaseScheme Example11() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A", "B"});
  s.AddRelation("R2", "BC", {"B", "C"});
  s.AddRelation("R3", "AC", {"A", "C"});
  s.AddRelation("R4", "AD", {"A"});
  s.AddRelation("R5", "DEF", {"D"});
  s.AddRelation("R6", "DEG", {"D"});
  return s;
}

// Example 12 verbatim (one-way keys, unlike Example 11's bidirectional
// triangle): F = {A->B, B->C, C->A, A->D, D->EFG}. Independence-reducible
// with partition {{R1,R2,R3,R4},{R5,R6}}.
//   R1(AB){A} R2(BC){B} R3(AC){C} R4(AD){A} R5(DEF){D} R6(DEG){D}
inline DatabaseScheme Example12() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "BC", {"B"});
  s.AddRelation("R3", "AC", {"C"});
  s.AddRelation("R4", "AD", {"A"});
  s.AddRelation("R5", "DEF", {"D"});
  s.AddRelation("R6", "DEG", {"D"});
  return s;
}

// Example 13: KEP input with key-equivalent partition
// {{R1,R3,R4},{R2,R5,R6,R7},{R8}}.
//   R1(AB){AB} R2(CD){CD} R3(ABC){AB} R4(ABD){AB} R5(CDE){CD,E}
//   R6(EA){E} R7(EF){E} R8(FB){F}
inline DatabaseScheme Example13() {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"AB"});
  s.AddRelation("R2", "CD", {"CD"});
  s.AddRelation("R3", "ABC", {"AB"});
  s.AddRelation("R4", "ABD", {"AB"});
  s.AddRelation("R5", "CDE", {"CD", "E"});
  s.AddRelation("R6", "EA", {"E"});
  s.AddRelation("R7", "EF", {"E"});
  s.AddRelation("R8", "FB", {"F"});
  return s;
}

// Every relation of `scheme`, in order: the pool of a whole-scheme run.
inline std::vector<size_t> AllRelations(const DatabaseScheme& scheme) {
  std::vector<size_t> pool(scheme.size());
  std::iota(pool.begin(), pool.end(), 0);
  return pool;
}

// Builds the attribute set for single-letter names already interned in the
// scheme's universe.
inline AttributeSet Attrs(const DatabaseScheme& scheme,
                          std::string_view letters) {
  AttributeSet out;
  for (char c : letters) {
    auto id = scheme.universe().Find(std::string_view(&c, 1));
    IRD_CHECK_MSG(id.ok(), "unknown attribute letter in test");
    out.Add(*id);
  }
  return out;
}

// A tuple on the single-letter attributes `letters` with the given values.
// Values are listed in the order of `letters`; the tuple stores them in
// attribute-id order.
inline PartialTuple Tuple(const DatabaseScheme& scheme,
                          std::string_view letters,
                          const std::vector<Value>& values) {
  IRD_CHECK(letters.size() == values.size());
  std::vector<std::pair<AttributeId, Value>> pairs;
  for (size_t i = 0; i < letters.size(); ++i) {
    auto id = scheme.universe().Find(std::string_view(&letters[i], 1));
    IRD_CHECK_MSG(id.ok(), "unknown attribute letter in test");
    pairs.emplace_back(*id, values[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  AttributeSet attrs;
  std::vector<Value> ordered;
  for (const auto& [a, v] : pairs) {
    attrs.Add(a);
    ordered.push_back(v);
  }
  return PartialTuple(attrs, std::move(ordered));
}

// The join steps of `expr` that take a cartesian product: a join member,
// after the first, sharing no attribute with the members before it.
inline size_t CartesianSteps(const Expression& expr) {
  size_t steps = 0;
  AttributeSet joined;
  for (size_t i = 0; i < expr.children().size(); ++i) {
    const Expression& child = *expr.children()[i];
    steps += CartesianSteps(child);
    if (expr.kind() != Expression::Kind::kJoin) continue;
    if (i > 0 && !child.output_attrs().Intersects(joined)) ++steps;
    joined.UnionWith(child.output_attrs());
  }
  return steps;
}

}  // namespace ird::test

#endif  // IRD_TESTS_TEST_UTIL_H_
