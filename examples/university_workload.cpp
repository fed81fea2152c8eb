// A realistic workload on the paper's university scheme, driven through the
// text format: bulk-load a timetable, police a stream of updates (some
// violating the key dependencies), and answer cross-relation queries with
// readable constant names.

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/sharded_maintainer.h"
#include "io/text_format.h"

using namespace ird;

namespace {

constexpr char kDatabase[] = R"(
# The university scheme of Example 1 (PODS'88).
relation Timetable ( H R C ) keys ( H R )
relation Teaching  ( H T R ) keys ( H T ) ( H R )
relation Courses   ( H T C ) keys ( H T )
relation Grades    ( C S G ) keys ( C S )
relation Seating   ( H S R ) keys ( H S )

# Monday 9am block.
insert Timetable mon9 roomA databases
insert Teaching  mon9 codd  roomA
insert Courses   mon9 codd  databases
# Monday 11am block.
insert Timetable mon11 roomB logic
insert Teaching  mon11 fagin roomB
insert Courses   mon11 fagin logic
# Students.
insert Grades databases alice A
insert Grades logic     bob   B
insert Seating mon9  alice roomA
insert Seating mon11 bob   roomB
)";

std::string Render(const ParsedDatabase& db, const PartialTuple& t) {
  std::string out = "<";
  bool first = true;
  t.attrs().ForEach([&](AttributeId a) {
    if (!first) out += ", ";
    out += db.scheme.universe().Name(a) + "=" + db.values.Name(t.At(a));
    first = false;
  });
  return out + ">";
}

}  // namespace

int main() {
  Result<ParsedDatabase> parsed = ParseDatabaseText(kDatabase);
  IRD_CHECK_MSG(parsed.ok(), "built-in database must parse");
  ParsedDatabase& db = parsed.value();
  std::printf("Loaded scheme:\n%s\n", FormatScheme(db.scheme).c_str());

  auto maintainer = ShardedMaintainer::Create(db.MakeState());
  IRD_CHECK_MSG(maintainer.ok(), maintainer.status().message().c_str());
  std::printf("Scheme is independence-reducible; ctm: %s\n\n",
              maintainer->IsCtm() ? "yes" : "no");

  // --- An update stream; conflicting entries must bounce.
  struct Update {
    const char* relation;
    std::initializer_list<const char*> tokens;
  };
  const Update updates[] = {
      // Tuesday block: fine.
      {"Timetable", {"tue9", "roomA", "algebra"}},
      {"Teaching", {"tue9", "maier", "roomA"}},
      // Same room, same hour, different course: violates HR -> C.
      {"Timetable", {"mon9", "roomA", "calculus"}},
      // Same teacher, same hour, different room: violates HT -> R.
      {"Teaching", {"mon9", "codd", "roomB"}},
      // Alice retakes databases with a new grade: violates CS -> G.
      {"Grades", {"databases", "alice", "C"}},
      // Bob audits databases too: fine.
      {"Grades", {"databases", "bob", "B"}},
  };
  std::printf("Update stream:\n");
  for (const Update& u : updates) {
    size_t rel = db.scheme.FindRelation(u.relation).value();
    // Values in declared order -> attribute-id order.
    std::vector<std::pair<AttributeId, Value>> pairs;
    size_t i = 0;
    for (const char* token : u.tokens) {
      pairs.emplace_back(db.declared_order[rel][i++], db.values.Intern(token));
    }
    std::sort(pairs.begin(), pairs.end());
    AttributeSet attrs;
    std::vector<Value> values;
    for (auto& [a, v] : pairs) {
      attrs.Add(a);
      values.push_back(v);
    }
    PartialTuple tuple(attrs, std::move(values));
    Status status = maintainer->Insert(rel, tuple);
    std::string outcome =
        status.ok() ? "ok"
                    : "REJECTED (" + status.message() + ")";
    std::printf("  %-9s %-38s %s\n", u.relation, Render(db, tuple).c_str(),
                outcome.c_str());
  }

  // --- Queries.
  auto query = [&](const char* title, std::string_view letters) {
    AttributeSet x;
    for (char c : letters) {
      x.Add(db.scheme.universe().Find(std::string_view(&c, 1)).value());
    }
    PartialRelation answer = maintainer->TotalProjection(x);
    std::printf("\n[%s] %s:\n", std::string(letters).c_str(), title);
    for (const PartialTuple& t : answer.tuples()) {
      std::printf("  %s\n", Render(db, t).c_str());
    }
  };
  query("who teaches which course", "TC");
  query("students' hours and courses", "HSC");
  query("teacher/student co-location", "TS");
  return 0;
}
