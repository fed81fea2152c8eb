#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <unordered_set>

namespace ird {

namespace {

// Union-find over edge indices; edges sharing a node merge.
class EdgeUnionFind {
 public:
  explicit EdgeUnionFind(const std::vector<AttributeSet>& edges)
      : parent_(edges.size()) {
    for (size_t i = 0; i < edges.size(); ++i) parent_[i] = i;
    for (size_t i = 0; i < edges.size(); ++i) {
      for (size_t j = i + 1; j < edges.size(); ++j) {
        if (edges[i].Intersects(edges[j])) Merge(i, j);
      }
    }
  }

  size_t Find(size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  void Merge(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Hypergraph::Hypergraph(std::vector<AttributeSet> edges)
    : edges_(std::move(edges)) {
  for (const AttributeSet& e : edges_) {
    IRD_CHECK_MSG(!e.Empty(), "hypergraph edges must be nonempty");
    nodes_.UnionWith(e);
  }
}

Hypergraph Hypergraph::Of(const DatabaseScheme& scheme) {
  std::vector<AttributeSet> edges;
  edges.reserve(scheme.size());
  for (const RelationScheme& r : scheme.relations()) {
    edges.push_back(r.attrs);
  }
  return Hypergraph(std::move(edges));
}

bool Hypergraph::IsConnected() const {
  return ConnectedComponents().size() <= 1;
}

std::vector<std::vector<size_t>> Hypergraph::ConnectedComponents() const {
  EdgeUnionFind uf(edges_);
  std::vector<std::vector<size_t>> components;
  std::vector<int> root_to_component(edges_.size(), -1);
  for (size_t i = 0; i < edges_.size(); ++i) {
    size_t root = uf.Find(i);
    if (root_to_component[root] < 0) {
      root_to_component[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[root_to_component[root]].push_back(i);
  }
  return components;
}

bool IsConnectedFamily(const std::vector<AttributeSet>& family) {
  if (family.empty()) return true;
  for (const AttributeSet& e : family) {
    if (e.Empty()) return false;
  }
  EdgeUnionFind uf(family);
  size_t root = uf.Find(0);
  for (size_t i = 1; i < family.size(); ++i) {
    if (uf.Find(i) != root) return false;
  }
  return true;
}

std::vector<AttributeSet> BachmanClosure(
    const std::vector<AttributeSet>& edges) {
  std::vector<AttributeSet> closure;
  std::unordered_set<AttributeSet, AttributeSetHash> seen;
  for (const AttributeSet& e : edges) {
    if (!e.Empty() && seen.insert(e).second) closure.push_back(e);
  }
  // Closure under pairwise intersection: process pairs until stable.
  for (size_t i = 0; i < closure.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      AttributeSet inter = closure[i].Intersect(closure[j]);
      if (!inter.Empty() && seen.insert(inter).second) {
        closure.push_back(inter);
        IRD_CHECK_MSG(closure.size() <= kMaxBachmanSets,
                      "Bachman closure exceeded the size cap");
      }
    }
  }
  return closure;
}

namespace {

// All *minimal* subsets of `sets` that are connected families covering x,
// as bitmasks: enumerated in increasing popcount order so supersets of an
// already-found minimal cover are skipped cheaply. Exponential scan,
// guarded by the caller.
std::vector<uint64_t> MinimalConnectedCovers(
    const std::vector<AttributeSet>& sets, const AttributeSet& x) {
  const size_t n = sets.size();
  // Pairwise-intersection adjacency for fast connectivity of a mask.
  std::vector<uint64_t> adjacent(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && sets[i].Intersects(sets[j])) {
        adjacent[i] |= uint64_t{1} << j;
      }
    }
  }
  auto mask_connected = [&](uint64_t mask) {
    int start = __builtin_ctzll(mask);
    uint64_t reached = uint64_t{1} << start;
    uint64_t frontier = reached;
    while (frontier != 0) {
      uint64_t next = 0;
      while (frontier != 0) {
        int b = __builtin_ctzll(frontier);
        frontier &= frontier - 1;
        next |= adjacent[b] & mask & ~reached;
      }
      reached |= next;
      frontier = next;
    }
    return reached == mask;
  };
  // Buckets of masks by popcount.
  std::vector<std::vector<uint64_t>> by_count(n + 1);
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    by_count[static_cast<size_t>(__builtin_popcountll(mask))].push_back(
        mask);
  }
  std::vector<uint64_t> minimal;
  for (size_t k = 1; k <= n; ++k) {
    for (uint64_t mask : by_count[k]) {
      bool superset = false;
      for (uint64_t m : minimal) {
        if ((m & mask) == m) {
          superset = true;
          break;
        }
      }
      if (superset) continue;
      AttributeSet cover;
      for (size_t b = 0; b < n; ++b) {
        if ((mask >> b) & 1) cover.UnionWith(sets[b]);
      }
      if (!x.IsSubsetOf(cover)) continue;
      if (!mask_connected(mask)) continue;
      minimal.push_back(mask);
    }
  }
  return minimal;
}

// True iff {W_b : b ∈ w_mask} contains |v| *distinct* elements W_{i_j} with
// W_{i_j} ⊇ V_j — the paper writes the dominating subfamily as a set
// {W_{i_1}, ..., W_{i_m}}, i.e. a system of distinct representatives.
// Kuhn's bipartite matching; both sides are tiny.
bool DominatesInjectively(const std::vector<AttributeSet>& bachman,
                          uint64_t w_mask,
                          const std::vector<AttributeSet>& v) {
  std::vector<std::vector<size_t>> candidates(v.size());
  for (size_t j = 0; j < v.size(); ++j) {
    for (size_t b = 0; b < bachman.size(); ++b) {
      if (((w_mask >> b) & 1) && v[j].IsSubsetOf(bachman[b])) {
        candidates[j].push_back(b);
      }
    }
    if (candidates[j].empty()) return false;
  }
  std::vector<int> matched_to(bachman.size(), -1);
  // Augmenting path search from each V_j.
  std::vector<bool> visited;
  auto augment = [&](auto&& self, size_t j) -> bool {
    for (size_t b : candidates[j]) {
      if (visited[b]) continue;
      visited[b] = true;
      if (matched_to[b] < 0 ||
          self(self, static_cast<size_t>(matched_to[b]))) {
        matched_to[b] = static_cast<int>(j);
        return true;
      }
    }
    return false;
  };
  for (size_t j = 0; j < v.size(); ++j) {
    visited.assign(bachman.size(), false);
    if (!augment(augment, j)) return false;
  }
  return true;
}

// u.m.c. among x given a precomputed Bachman closure.
std::optional<std::vector<AttributeSet>> UmcWithBachman(
    const std::vector<AttributeSet>& bachman, const AttributeSet& x) {
  IRD_CHECK_MSG(bachman.size() <= 18,
                "u.m.c. search is exponential; Bachman closure too large");
  std::vector<uint64_t> minimal = MinimalConnectedCovers(bachman, x);
  if (minimal.empty()) return std::nullopt;  // X not coverable connectedly
  // V is a u.m.c. iff every minimal connected cover dominates it via
  // distinct representatives (then every connected cover does, since each
  // contains a minimal one).
  for (uint64_t v_mask : minimal) {
    std::vector<AttributeSet> v;
    for (size_t b = 0; b < bachman.size(); ++b) {
      if ((v_mask >> b) & 1) v.push_back(bachman[b]);
    }
    bool dominated_by_all = true;
    for (uint64_t w_mask : minimal) {
      if (!DominatesInjectively(bachman, w_mask, v)) {
        dominated_by_all = false;
        break;
      }
    }
    if (dominated_by_all) return v;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::vector<AttributeSet>> FindUniqueMinimalConnection(
    const Hypergraph& h, const AttributeSet& x) {
  return UmcWithBachman(BachmanClosure(h.edges()), x);
}

bool IsGammaAcyclic(const Hypergraph& h) {
  // Theorem 2.1 (pairwise form), per connected component: every pair of
  // nodes of the component must have a unique minimal connection.
  for (const std::vector<size_t>& component : h.ConnectedComponents()) {
    std::vector<AttributeSet> edges;
    AttributeSet nodes;
    for (size_t i : component) {
      edges.push_back(h.edges()[i]);
      nodes.UnionWith(h.edges()[i]);
    }
    std::vector<AttributeSet> bachman = BachmanClosure(edges);
    // Pairwise iteration straight off the bitset: the outer loop walks the
    // component's nodes, the inner loop resumes from the outer position.
    for (auto i = nodes.begin(); i != nodes.end(); ++i) {
      auto j = i;
      for (++j; j != nodes.end(); ++j) {
        AttributeSet pair{*i, *j};
        if (!UmcWithBachman(bachman, pair).has_value()) return false;
      }
    }
  }
  return true;
}

bool HasUmcForAllSubsets(const Hypergraph& h) {
  IRD_CHECK_MSG(h.nodes().Count() <= 14,
                "u.m.c.-for-all-X check is exponential; universe too large");
  IRD_CHECK_MSG(h.IsConnected(),
                "Theorem 2.1 characterizes connected hypergraphs");
  std::vector<AttributeSet> bachman = BachmanClosure(h.edges());
  // The ≤14 guard above bounds the stack buffer.
  AttributeId nodes[14];
  size_t n = 0;
  h.nodes().ForEach([&](AttributeId a) { nodes[n++] = a; });
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    AttributeSet x;
    for (size_t b = 0; b < n; ++b) {
      if ((mask >> b) & 1) x.Add(nodes[b]);
    }
    if (!UmcWithBachman(bachman, x).has_value()) return false;
  }
  return true;
}

bool IsAlphaAcyclic(const Hypergraph& h) {
  // GYO reduction: repeatedly (a) drop nodes occurring in exactly one edge,
  // (b) drop edges contained in another edge (and empty edges). α-acyclic
  // iff everything reduces away.
  std::vector<AttributeSet> edges = h.edges();
  bool changed = true;
  while (changed) {
    changed = false;
    // (a) nodes in exactly one edge.
    AttributeSet all;
    for (const AttributeSet& e : edges) all.UnionWith(e);
    all.ForEach([&](AttributeId node) {
      size_t count = 0;
      size_t holder = 0;
      for (size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].Contains(node)) {
          ++count;
          holder = i;
        }
      }
      if (count == 1) {
        edges[holder].Remove(node);
        changed = true;
      }
    });
    // (b) empty edges and edges contained in another.
    std::vector<AttributeSet> kept;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].Empty()) {
        changed = true;
        continue;
      }
      bool contained = false;
      for (size_t j = 0; j < edges.size(); ++j) {
        if (i == j) continue;
        bool subset = edges[i].IsSubsetOf(edges[j]);
        // Between equal edges keep the first.
        if (subset && (edges[i] != edges[j] || j < i)) {
          contained = true;
          break;
        }
      }
      if (contained) {
        changed = true;
      } else {
        kept.push_back(edges[i]);
      }
    }
    edges = std::move(kept);
  }
  return edges.empty();
}

}  // namespace ird
