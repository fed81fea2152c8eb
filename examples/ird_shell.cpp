// ird_shell: a line-oriented shell over the library — declare a scheme,
// load data, police inserts, and ask weak-instance queries. Reads commands
// from stdin (or from a script file given as argv[1]):
//
//   relation R ( A B ) keys ( A )      declare a relation (before any data)
//   insert R a1 b1                     validated insert (blocks on violations)
//   query A B                          the [A,B]-total projection
//   classify                           the full class report
//   plan A B                           show the compiled query expression
//   check                              re-verify consistency (chase)
//   dump                               print the current state
//   help / quit
//
// Demo: ./ird_shell <<'EOF'
//   relation Course ( H R C ) keys ( H R )
//   insert Course mon roomA db
//   query H C
// EOF

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/sharded_maintainer.h"
#include "diagnostics/render.h"
#include "io/text_format.h"
#include "relation/weak_instance.h"
#include "tableau/lossless.h"

using namespace ird;

namespace {

class Shell {
 public:
  void Run(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      if (!Dispatch(line)) break;
    }
  }

 private:
  static std::vector<std::string> Words(const std::string& line) {
    std::istringstream stream(line);
    std::vector<std::string> out;
    std::string word;
    while (stream >> word) out.push_back(word);
    return out;
  }

  // Returns false to quit.
  bool Dispatch(const std::string& line) {
    std::vector<std::string> words = Words(line);
    if (words.empty() || words[0][0] == '#') return true;
    const std::string& cmd = words[0];
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::puts(
          "commands: relation | insert | query | plan | classify | check | "
          "dump | quit");
    } else if (cmd == "relation") {
      DeclareRelation(line);
    } else if (cmd == "insert") {
      Insert(words);
    } else if (cmd == "query") {
      Query(words);
    } else if (cmd == "plan") {
      Plan(words);
    } else if (cmd == "classify") {
      if (Ready()) {
        std::printf("%s", diagnostics::FormatSchemeReport(db_.scheme).c_str());
      }
    } else if (cmd == "check") {
      if (Ready()) {
        std::printf("%s\n", IsConsistent(maintainer_->Materialize())
                                ? "consistent"
                                : "INCONSISTENT");
      }
    } else if (cmd == "dump") {
      if (Ready()) {
        std::printf("%s",
                    FormatState(maintainer_->Materialize(), db_.values).c_str());
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    return true;
  }

  void DeclareRelation(const std::string& line) {
    if (maintainer_.has_value()) {
      std::puts("error: declare all relations before inserting data");
      return;
    }
    schema_text_ += line + "\n";
    Result<ParsedDatabase> parsed = ParseDatabaseText(schema_text_);
    if (!parsed.ok()) {
      std::printf("error: %s\n", parsed.status().ToString().c_str());
      schema_text_.erase(schema_text_.rfind(line));
      return;
    }
    db_ = std::move(parsed).value();
    std::printf("ok: %zu relation(s)\n", db_.scheme.size());
  }

  // Lazily freezes the schema into the maintainer, which also answers
  // queries through its plan cache (recognition runs once, inside Create).
  bool Ready() {
    if (maintainer_.has_value()) return true;
    if (db_.scheme.size() == 0) {
      std::puts("error: no relations declared");
      return false;
    }
    Status valid = db_.scheme.Validate();
    if (!valid.ok()) {
      std::printf("error: %s\n", valid.ToString().c_str());
      return false;
    }
    auto m = ShardedMaintainer::Create(DatabaseState(db_.scheme));
    if (!m.ok()) {
      std::printf("error: %s\n", m.status().ToString().c_str());
      return false;
    }
    maintainer_.emplace(std::move(m).value());
    std::printf("schema frozen: independence-reducible, %s\n",
                maintainer_->IsCtm() ? "ctm" : "not ctm (split block)");
    return true;
  }

  void Insert(const std::vector<std::string>& words) {
    if (!Ready()) return;
    if (words.size() < 2) {
      std::puts("usage: insert <relation> <values...>");
      return;
    }
    Result<size_t> rel = db_.scheme.FindRelation(words[1]);
    if (!rel.ok()) {
      std::printf("error: %s\n", rel.status().ToString().c_str());
      return;
    }
    const std::vector<AttributeId>& order = db_.declared_order[*rel];
    if (words.size() - 2 != order.size()) {
      std::printf("error: %s expects %zu values\n", words[1].c_str(),
                  order.size());
      return;
    }
    std::vector<std::pair<AttributeId, Value>> pairs;
    for (size_t i = 0; i < order.size(); ++i) {
      pairs.emplace_back(order[i], db_.values.Intern(words[2 + i]));
    }
    std::sort(pairs.begin(), pairs.end());
    AttributeSet attrs;
    std::vector<Value> values;
    for (auto& [a, v] : pairs) {
      attrs.Add(a);
      values.push_back(v);
    }
    Status status = maintainer_->Insert(*rel, PartialTuple(attrs, values));
    std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
  }

  std::optional<AttributeSet> ParseAttrs(const std::vector<std::string>& words) {
    AttributeSet x;
    for (size_t i = 1; i < words.size(); ++i) {
      Result<AttributeId> id = db_.scheme.universe().Find(words[i]);
      if (!id.ok()) {
        std::printf("error: unknown attribute '%s'\n", words[i].c_str());
        return std::nullopt;
      }
      x.Add(*id);
    }
    if (x.Empty()) {
      std::puts("usage: query/plan <attr> [<attr>...]");
      return std::nullopt;
    }
    return x;
  }

  // A plan (Theorem 4.1) enumerates the lossless subsets of the induced
  // scheme and of the blocks it joins, each at most kMaxLosslessSubsetPool
  // relations; past that bound the shell refuses to compile one.
  bool PlansCompile() {
    const RecognitionResult& r = maintainer_->sharded_state().recognition();
    size_t widest = r.induced->size();
    for (const std::vector<size_t>& block : r.partition) {
      widest = std::max(widest, block.size());
    }
    if (widest <= kMaxLosslessSubsetPool) return true;
    std::printf(
        "error: cannot compile a plan: a pool of %zu relations is past the "
        "lossless-subset bound of %zu\n",
        widest, kMaxLosslessSubsetPool);
    return false;
  }

  void Query(const std::vector<std::string>& words) {
    if (!Ready() || !PlansCompile()) return;
    std::optional<AttributeSet> x = ParseAttrs(words);
    if (!x.has_value()) return;
    PartialRelation answer = maintainer_->TotalProjection(*x);
    for (const PartialTuple& t : answer.tuples()) {
      std::string row;
      t.attrs().ForEach([&](AttributeId a) {
        if (!row.empty()) row += ", ";
        row += db_.scheme.universe().Name(a) + "=" +
               db_.values.Name(t.At(a));
      });
      std::printf("  %s\n", row.c_str());
    }
    std::printf("(%zu row(s))\n", answer.size());
  }

  void Plan(const std::vector<std::string>& words) {
    if (!Ready() || !PlansCompile()) return;
    std::optional<AttributeSet> x = ParseAttrs(words);
    if (!x.has_value()) return;
    // The Theorem 4.1 expression for X, from the maintainer's plan cache.
    ExprPtr plan = maintainer_->PlanFor(*x);
    if (plan == nullptr) {
      std::puts("no covering expression: the projection is always empty");
    } else {
      std::printf("%s\n", plan->ToString(db_.scheme).c_str());
    }
  }

  std::string schema_text_;
  ParsedDatabase db_;
  std::optional<ShardedMaintainer> maintainer_;
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    shell.Run(file);
  } else {
    shell.Run(std::cin);
  }
  return 0;
}
