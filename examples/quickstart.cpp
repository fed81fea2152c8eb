// Quickstart: the university database of the paper's Example 1, end to end.
//
//   1. Declare the scheme (relations + candidate keys).
//   2. Recognize it: independence-reducible? ctm? (Algorithm 6 + split test)
//   3. Maintain it: validated inserts in constant time (Algorithm 5 in
//      each split-free block of the sharded maintainer).
//   4. Query it: total projections through the bounded expressions of
//      Theorem 4.1, from the maintainer's plan cache.

#include <algorithm>
#include <cstdio>

#include "core/classify.h"
#include "core/sharded_maintainer.h"
#include "diagnostics/render.h"
#include "schema/database_scheme.h"

using namespace ird;

namespace {

PartialTuple MakeTuple(const DatabaseScheme& scheme, const char* letters,
                       std::initializer_list<Value> values) {
  AttributeSet attrs;
  std::vector<std::pair<AttributeId, Value>> pairs;
  auto v = values.begin();
  for (const char* p = letters; *p != '\0'; ++p, ++v) {
    AttributeId id = scheme.universe().Find(std::string_view(p, 1)).value();
    pairs.emplace_back(id, *v);
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<Value> ordered;
  for (auto& [id, value] : pairs) {
    attrs.Add(id);
    ordered.push_back(value);
  }
  return PartialTuple(attrs, std::move(ordered));
}

}  // namespace

int main() {
  // --- 1. The scheme. H = hour, R = room, C = course, T = teacher,
  //        S = student, G = grade.
  DatabaseScheme scheme = DatabaseScheme::Create();
  scheme.AddRelation("R1", "HRC", {"HR"});
  scheme.AddRelation("R2", "HTR", {"HT", "HR"});
  scheme.AddRelation("R3", "HTC", {"HT"});
  scheme.AddRelation("R4", "CSG", {"CS"});
  scheme.AddRelation("R5", "HSR", {"HS"});
  std::printf("=== Scheme ===\n%s\n", scheme.ToString().c_str());

  // --- 2. Classification (the paper's Example 1 verdict), with the
  //        witness-backed diagnostics explaining every "no".
  std::printf("=== Classification ===\n%s\n",
              diagnostics::FormatSchemeReport(scheme).c_str());

  // --- 3. Constant-time maintenance.
  auto maintainer = ShardedMaintainer::Create(DatabaseState(scheme));
  IRD_CHECK(maintainer.ok());
  std::printf("=== Maintenance ===\n");
  constexpr Value h9 = 9, room101 = 101, algebra = 500, drcodd = 700,
                  alice = 800, gradeA = 1, drfagin = 701;
  struct Insert {
    const char* rel;
    const char* attrs;
    std::initializer_list<Value> values;
  };
  const Insert inserts[] = {
      {"R1", "HRC", {h9, room101, algebra}},
      {"R2", "HTR", {h9, drcodd, room101}},
      {"R3", "HTC", {h9, drcodd, algebra}},
      {"R4", "CSG", {algebra, alice, gradeA}},
      {"R5", "HSR", {h9, alice, room101}},
      // A second teacher in the same room at the same hour: HR -> T says no.
      {"R2", "HTR", {h9, drfagin, room101}},
  };
  for (const Insert& ins : inserts) {
    size_t rel = scheme.FindRelation(ins.rel).value();
    PartialTuple tuple = MakeTuple(scheme, ins.attrs, ins.values);
    Status status = maintainer->Insert(rel, tuple);
    std::printf("  insert %s %-28s -> %s\n", ins.rel,
                tuple.ToString(scheme.universe()).c_str(),
                status.ok() ? "accepted" : status.ToString().c_str());
  }

  // --- 4. Query answering: "which students attend which courses at which
  //        hours?" = the {H, S, C}-total projection.
  AttributeSet hsc = scheme.universe_ptr()->Chars("HSC");
  PartialRelation answer = maintainer->TotalProjection(hsc);
  std::printf("\n=== Query [HSC] ===\n");
  for (const PartialTuple& t : answer.tuples()) {
    std::printf("  %s\n", t.ToString(scheme.universe()).c_str());
  }
  std::printf(
      "\n(Alice is placed in the algebra course at hour 9 even though no\n"
      " single relation stores that fact — the weak instance model derives\n"
      " it through HS -> R and HR -> C.)\n");
  return 0;
}
