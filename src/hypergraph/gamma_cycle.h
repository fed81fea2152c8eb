// γ-cycles after Fagin [F3]: a sequence (S1, x1, S2, x2, ..., Sm, xm, S1),
// m >= 3, with distinct edges and distinct connector nodes, xi ∈ Si ∩ Si+1,
// where every connector except one lies in no edge of the cycle other than
// its two neighbors. A hypergraph is γ-acyclic iff it has no γ-cycle.
//
// This is the witness-producing counterpart of hypergraph.h's
// IsGammaAcyclic (the Theorem 2.1 u.m.c. characterization); the test suite
// checks the two recognizers agree on randomized sweeps and on every paper
// example.

#ifndef IRD_HYPERGRAPH_GAMMA_CYCLE_H_
#define IRD_HYPERGRAPH_GAMMA_CYCLE_H_

#include <optional>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace ird {

struct GammaCycle {
  // Edge indices S1..Sm and connectors x1..xm (xi joins Si to Si+1, with
  // xm closing back to S1). The exempt (possibly shared) connector is x1.
  std::vector<size_t> edges;
  std::vector<AttributeId> connectors;

  std::string ToString(const Universe& universe) const;
};

// Finds some γ-cycle, or nullopt when the hypergraph is γ-acyclic.
// Exponential in the number of edges in the worst case; IRD_CHECKs that
// there are at most kMaxGammaCycleEdges (dependency-theory schemes are
// small).
inline constexpr size_t kMaxGammaCycleEdges = 16;
std::optional<GammaCycle> FindGammaCycle(const Hypergraph& h);

}  // namespace ird

#endif  // IRD_HYPERGRAPH_GAMMA_CYCLE_H_
