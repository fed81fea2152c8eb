#include "hypergraph/gamma_cycle.h"

#include <unordered_set>

namespace ird {

std::string GammaCycle::ToString(const Universe& universe) const {
  std::string out = "(";
  for (size_t i = 0; i < edges.size(); ++i) {
    out += 'E';
    out += std::to_string(edges[i] + 1);
    out += ", ";
    out += universe.Name(connectors[i]);
    out += ", ";
    if (i + 1 == edges.size()) {
      out += 'E';
      out += std::to_string(edges[0] + 1);
    }
  }
  return out + ")";
}

namespace {

// DFS over cycle prefixes S1, x1, ..., Sk. The exempt connector is x1;
// every later connector must avoid all cycle edges but its two neighbors.
// Incremental checks run in both directions: a new connector against the
// existing edges, a new edge against the existing restricted connectors.
class CycleSearch {
 public:
  explicit CycleSearch(const std::vector<AttributeSet>& edges)
      : edges_(edges) {}

  std::optional<GammaCycle> Find() {
    for (size_t start = 0; start < edges_.size(); ++start) {
      seq_.assign(1, start);
      used_.assign(edges_.size(), false);
      used_[start] = true;
      connectors_.clear();
      connector_used_.clear();
      if (Extend()) {
        GammaCycle cycle;
        cycle.edges = seq_;
        cycle.connectors = connectors_;
        return cycle;
      }
    }
    return std::nullopt;
  }

 private:
  // May connector x sit at 1-based position `pos` (>= 2, restricted)?
  bool RestrictedOk(AttributeId x, size_t pos) const {
    for (size_t j = 0; j < seq_.size(); ++j) {
      size_t edge_pos = j + 1;
      if (edge_pos == pos || edge_pos == pos + 1) continue;
      if (edges_[seq_[j]].Contains(x)) return false;
    }
    return true;
  }

  bool TryClose() {
    size_t m = seq_.size();
    if (m < 3) return false;
    AttributeSet closing = edges_[seq_[m - 1]].Intersect(edges_[seq_[0]]);
    bool found = false;
    AttributeId chosen = 0;
    closing.ForEach([&](AttributeId x) {
      if (found || connector_used_.count(x) > 0) return;
      // x_m's neighbors are S_m and S_1; it must avoid S_2..S_{m-1}.
      for (size_t j = 1; j + 1 < m; ++j) {
        if (edges_[seq_[j]].Contains(x)) return;
      }
      found = true;
      chosen = x;
    });
    if (found) connectors_.push_back(chosen);
    return found;
  }

  bool Extend() {
    if (TryClose()) return true;
    size_t k = seq_.size();  // adding S_{k+1}, connector x_k
    for (size_t e = 0; e < edges_.size(); ++e) {
      if (used_[e]) continue;
      // The new edge must avoid every restricted connector chosen so far
      // (their neighbor edges are already in the sequence).
      bool edge_ok = true;
      for (size_t i = 1; i < connectors_.size(); ++i) {
        if (edges_[e].Contains(connectors_[i])) {
          edge_ok = false;
          break;
        }
      }
      if (!edge_ok) continue;
      AttributeSet shared = edges_[seq_.back()].Intersect(edges_[e]);
      bool found = false;
      shared.ForEach([&](AttributeId x) {
        if (found || connector_used_.count(x) > 0) return;
        if (k >= 2 && !RestrictedOk(x, k)) return;
        seq_.push_back(e);
        used_[e] = true;
        connectors_.push_back(x);
        connector_used_.insert(x);
        if (Extend()) {
          found = true;
          return;
        }
        connector_used_.erase(x);
        connectors_.pop_back();
        used_[e] = false;
        seq_.pop_back();
      });
      if (found) return true;
    }
    return false;
  }

  const std::vector<AttributeSet>& edges_;
  std::vector<size_t> seq_;
  std::vector<bool> used_;
  std::vector<AttributeId> connectors_;
  std::unordered_set<AttributeId> connector_used_;
};

}  // namespace

std::optional<GammaCycle> FindGammaCycle(const Hypergraph& h) {
  IRD_CHECK_MSG(h.edge_count() <= kMaxGammaCycleEdges,
                "γ-cycle search is exponential; hypergraph too large");
  if (h.edge_count() < 3) return std::nullopt;
  CycleSearch search(h.edges());
  return search.Find();
}

}  // namespace ird
