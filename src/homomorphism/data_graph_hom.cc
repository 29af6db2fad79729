#include "homomorphism/data_graph_hom.h"

#include <cassert>

namespace gqd {

BinaryRelation Reachability(const DataGraph& graph) {
  std::size_t n = graph.NumNodes();
  BinaryRelation edges(n);
  for (const Edge& e : graph.edges()) {
    edges.Set(e.from, e.to);
  }
  BinaryRelation reach = TransitivePlus(edges);
  reach.UnionWith(BinaryRelation::Identity(n));
  return reach;
}

bool IsDataGraphHomomorphism(const DataGraph& graph,
                             const NodeMapping& mapping) {
  assert(mapping.size() == graph.NumNodes());
  // (1) Single-step compatibility.
  for (const Edge& e : graph.edges()) {
    if (!graph.HasEdge(mapping[e.from], e.label, mapping[e.to])) {
      return false;
    }
  }
  // (2) Data compatibility of reachable pairs.
  BinaryRelation reach = Reachability(graph);
  for (NodeId p = 0; p < graph.NumNodes(); p++) {
    for (NodeId q = 0; q < graph.NumNodes(); q++) {
      if (!reach.Test(p, q)) {
        continue;
      }
      bool same_source = graph.DataValueOf(p) == graph.DataValueOf(q);
      bool same_image =
          graph.DataValueOf(mapping[p]) == graph.DataValueOf(mapping[q]);
      if (same_source != same_image) {
        return false;
      }
    }
  }
  return true;
}

Csp BuildHomomorphismCsp(const DataGraph& graph) {
  return BuildHomomorphismCsp(graph, Reachability(graph));
}

Csp BuildHomomorphismCsp(const DataGraph& graph, const BinaryRelation& reach) {
  std::size_t n = graph.NumNodes();
  Csp csp = Csp::Full(n, n);

  // Per ordered node pair (p, q), the allowed image pairs (x, y). We only
  // materialize a constraint when (p, q) is actually constrained: q is
  // reachable from p (p ≠ q), which every edge p -a-> q implies. Unary
  // constraints (self-loops, p == q) are folded into the variable domains.
  for (NodeId p = 0; p < n; p++) {
    // Unary: self-loop labels must be preserved.
    for (const auto& [label, q0] : graph.OutEdges(p)) {
      if (q0 != p) {
        continue;
      }
      for (NodeId x = 0; x < n; x++) {
        if (!graph.HasEdge(x, label, x)) {
          csp.domains[p].Reset(x);
        }
      }
    }
  }
  // Image-pair matrices over (x, y), bit x·n + y: one per label (x -l-> y
  // is an edge) and one each for equal and unequal data values. A
  // constraint is the AND of the matrices its source pair demands.
  std::vector<DynamicBitset> edge_pairs(graph.NumLabels(),
                                        DynamicBitset(n * n));
  for (const Edge& e : graph.edges()) {
    edge_pairs[e.label].Set(e.from * n + e.to);
  }
  DynamicBitset same_value(n * n);
  DynamicBitset other_value(n * n);
  for (NodeId x = 0; x < n; x++) {
    for (NodeId y = 0; y < n; y++) {
      bool same = graph.DataValueOf(x) == graph.DataValueOf(y);
      (same ? same_value : other_value).Set(x * n + y);
    }
  }
  for (NodeId p = 0; p < n; p++) {
    for (NodeId q = 0; q < n; q++) {
      if (p == q || !reach.Test(p, q)) {
        continue;
      }
      bool same_source = graph.DataValueOf(p) == graph.DataValueOf(q);
      DynamicBitset allowed = same_source ? same_value : other_value;
      for (const auto& [label, to] : graph.OutEdges(p)) {
        if (to == q) {
          allowed &= edge_pairs[label];
        }
      }
      csp.AddConstraint(p, q, std::move(allowed));
    }
  }
  return csp;
}

Result<std::optional<NodeMapping>> FindHomomorphismWithPins(
    const DataGraph& graph,
    const std::vector<std::pair<NodeId, NodeId>>& pins,
    const CspOptions& options, CspStats* stats) {
  Csp csp = BuildHomomorphismCsp(graph);
  for (const auto& [node, image] : pins) {
    csp.Pin(node, image);
    if (csp.domains[node].None()) {
      return std::optional<NodeMapping>();
    }
  }
  GQD_ASSIGN_OR_RETURN(auto solution, SolveCsp(csp, options, stats));
  if (!solution.has_value()) {
    return std::optional<NodeMapping>();
  }
  NodeMapping mapping(solution->begin(), solution->end());
  return std::optional<NodeMapping>(std::move(mapping));
}

Result<std::vector<NodeMapping>> EnumerateHomomorphisms(
    const DataGraph& graph, std::size_t max_solutions) {
  Csp csp = BuildHomomorphismCsp(graph);
  GQD_ASSIGN_OR_RETURN(auto solutions,
                       EnumerateCspSolutions(csp, max_solutions));
  std::vector<NodeMapping> mappings;
  mappings.reserve(solutions.size());
  for (auto& s : solutions) {
    mappings.emplace_back(s.begin(), s.end());
  }
  return mappings;
}

}  // namespace gqd
