// Hypergraphs of database schemes (paper §2.4): nodes are the attributes of
// U, edges are the relation schemes. Provides the §2.4 machinery — paths,
// connectivity, Bachman closure, unique minimal connections — plus the
// acyclicity tests used by Section 5 (γ-acyclicity after Fagin [F3],
// α-acyclicity via GYO reduction as a baseline).

#ifndef IRD_HYPERGRAPH_HYPERGRAPH_H_
#define IRD_HYPERGRAPH_HYPERGRAPH_H_

#include <optional>
#include <vector>

#include "base/attribute_set.h"
#include "schema/database_scheme.h"

namespace ird {

class Hypergraph {
 public:
  explicit Hypergraph(std::vector<AttributeSet> edges);

  // The hypergraph H_R of a database scheme.
  static Hypergraph Of(const DatabaseScheme& scheme);

  const std::vector<AttributeSet>& edges() const { return edges_; }
  size_t edge_count() const { return edges_.size(); }

  // Union of all edges.
  const AttributeSet& nodes() const { return nodes_; }

  // True iff every pair of nodes (equivalently edges) is connected by a
  // path (paper §2.4). The empty hypergraph counts as connected.
  bool IsConnected() const;

  // Partition of edge indices into connected components.
  std::vector<std::vector<size_t>> ConnectedComponents() const;

 private:
  std::vector<AttributeSet> edges_;
  AttributeSet nodes_;
};

// True iff the family {W1, ..., Wm} is connected in the §2.4 sense (the
// hypergraph with these sets as edges is connected).
bool IsConnectedFamily(const std::vector<AttributeSet>& family);

// Bachman(E): the closure of the edge family under pairwise intersection,
// dropping empty sets (paper §2.4). Output order: the original edges first,
// then derived intersections. Size is capped (IRD_CHECK) at kMaxBachmanSets
// because the closure can explode combinatorially.
inline constexpr size_t kMaxBachmanSets = 4096;
std::vector<AttributeSet> BachmanClosure(
    const std::vector<AttributeSet>& edges);

// A unique minimal connection among X (paper §2.4): a connected subset V of
// Bachman(R) covering X such that every connected covering subset W of
// Bachman(R) dominates V element-wise. Returns nullopt if none exists.
// Exponential in |Bachman(R)| — meant for the small schemes of tests and
// examples (guarded at 20 Bachman sets).
std::optional<std::vector<AttributeSet>> FindUniqueMinimalConnection(
    const Hypergraph& h, const AttributeSet& x);

// γ-acyclicity via the paper's operative characterization (Theorem 2.1,
// [F3][Y2][BBSK]): a connected hypergraph is γ-acyclic iff a unique minimal
// connection exists among every X ⊆ U. This implementation tests every
// *pair* of nodes per connected component — the pairwise form is the
// original "unique minimal connection between attributes" notion of
// [F3]/[Y2] and agrees with the all-subsets form on every instance the test
// suite sweeps (singleton X always has a u.m.c.: the intersection of all
// Bachman sets containing the node). Exponential in |Bachman(R)| (guarded);
// dependency-theory schemes are small.
bool IsGammaAcyclic(const Hypergraph& h);

// Theorem 2.1 verbatim: u.m.c. among every X ⊆ U (per connected
// component). Exponential in |U|; guarded at 14 nodes. Used to validate
// IsGammaAcyclic in tests.
bool HasUmcForAllSubsets(const Hypergraph& h);

// α-acyclicity via GYO reduction (ear removal): included as the classic
// baseline notion; γ-acyclic implies α-acyclic.
bool IsAlphaAcyclic(const Hypergraph& h);

}  // namespace ird

#endif  // IRD_HYPERGRAPH_HYPERGRAPH_H_
