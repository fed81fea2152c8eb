// Witness explorer: the paper's impossibility arguments, materialized.
// For each demonstration scheme it prints
//   - the γ-cycle (if any) in the scheme's hypergraph,
//   - the adversarial split instance of Theorem 3.4 (and shows raw key
//     probes accepting an insert the chase rejects),
//   - the LSAT ≠ WSAT dependence witness for non-independent schemes.

#include <cstdio>
#include <numeric>

#include "core/ctm_maintainer.h"
#include "core/independence.h"
#include "core/independence_witness.h"
#include "core/split.h"
#include "core/split_witness.h"
#include "hypergraph/gamma_cycle.h"
#include "io/text_format.h"
#include "relation/weak_instance.h"

using namespace ird;

namespace {

DatabaseScheme Example4() {
  Result<ParsedDatabase> parsed = ParseDatabaseText(R"(
relation R1 ( A B ) keys ( A )
relation R2 ( A C ) keys ( A )
relation R3 ( A E ) keys ( A ) ( E )
relation R4 ( E B ) keys ( E )
relation R5 ( E C ) keys ( E )
relation R6 ( B C D ) keys ( B C ) ( D )
relation R7 ( D A ) keys ( D ) ( A )
)");
  IRD_CHECK(parsed.ok());
  return parsed->scheme;
}

DatabaseScheme Example1R() {
  Result<ParsedDatabase> parsed = ParseDatabaseText(R"(
relation R1 ( H R C ) keys ( H R )
relation R2 ( H T R ) keys ( H T ) ( H R )
relation R3 ( H T C ) keys ( H T )
relation R4 ( C S G ) keys ( C S )
relation R5 ( H S R ) keys ( H S )
)");
  IRD_CHECK(parsed.ok());
  return parsed->scheme;
}

void PrintState(const DatabaseState& state, const char* indent) {
  for (size_t rel = 0; rel < state.relation_count(); ++rel) {
    if (state.relation(rel).empty()) continue;
    std::printf("%s%s: %s\n", indent,
                state.scheme().relation(rel).name.c_str(),
                state.relation(rel).ToString(state.universe()).c_str());
  }
}

}  // namespace

int main() {
  // --- γ-cycles -------------------------------------------------------------
  std::printf("== γ-cycles ==\n");
  for (auto& [name, scheme] :
       {std::pair<const char*, DatabaseScheme>{"Example 1 R", Example1R()},
        {"Example 4", Example4()}}) {
    Hypergraph h = Hypergraph::Of(scheme);
    auto cycle = FindGammaCycle(h);
    if (cycle.has_value()) {
      std::printf("  %s: γ-cyclic via %s\n", name,
                  cycle->ToString(scheme.universe()).c_str());
    } else {
      std::printf("  %s: γ-acyclic\n", name);
    }
  }

  // --- The split witness ------------------------------------------------------
  std::printf("\n== Theorem 3.4: the split key BC of Example 4 ==\n");
  DatabaseScheme ex4 = Example4();
  AttributeSet bc;
  bc.Add(ex4.universe().Find("B").value());
  bc.Add(ex4.universe().Find("C").value());
  IRD_CHECK(IsKeySplit(ex4, bc));
  Result<SplitWitness> w = BuildSplitWitness(ex4, bc);
  IRD_CHECK(w.ok());
  std::printf("base state (consistent):\n");
  PrintState(w->state, "  ");
  std::printf("insert %s into %s:\n",
              w->insert.ToString(ex4.universe()).c_str(),
              ex4.relation(w->insert_rel).name.c_str());
  std::printf("  chase verdict:          %s\n",
              WouldRemainConsistent(w->state, w->insert_rel, w->insert)
                  ? "consistent"
                  : "INCONSISTENT");
  std::vector<size_t> pool(ex4.size());
  std::iota(pool.begin(), pool.end(), 0);
  IRD_CHECK(w->state.IndexKeys(pool).ok());
  std::printf("  raw key-probe verdict:  %s   <- why split schemes are not "
              "ctm\n",
              CheckInsertCtm(w->state, pool, w->insert_rel, w->insert).ok()
                  ? "consistent (WRONG)"
                  : "inconsistent");

  // --- The dependence witness ---------------------------------------------------
  std::printf("\n== LSAT ≠ WSAT: Example 1's R is not independent ==\n");
  DatabaseScheme ex1 = Example1R();
  auto violation = FindUniquenessViolation(ex1);
  IRD_CHECK(violation.has_value());
  std::printf("uniqueness violation: %s\n",
              violation->ToString(ex1).c_str());
  Result<DatabaseState> witness = BuildDependenceWitness(ex1);
  IRD_CHECK(witness.ok());
  std::printf("witness state (every relation satisfies its own keys):\n");
  PrintState(*witness, "  ");
  std::printf("  locally consistent: %s\n",
              IsLocallyConsistent(*witness) ? "yes" : "no");
  std::printf("  globally consistent: %s\n",
              IsConsistent(*witness) ? "yes" : "NO");
  return 0;
}
