// The data-graph model of Libkin & Vrgoč, as used by the paper.
//
// A data graph over a finite alphabet Σ and an infinite value domain D is
// G = (V, E, ρ): finitely many nodes, Σ-labelled directed edges, and a data
// value ρ(v) on every node (Definition 1 of the paper). Only the equality
// partition induced by ρ is observable to the query languages (Fact 10), so
// data values are interned to dense ids; δ denotes how many distinct values
// the graph actually uses.
//
// A DataGraph has two storage modes behind one read API:
//
//  - resident: built additively (AddLabel / AddNode / AddEdge) into owned
//    vectors — the mode every text parse and generator produces;
//  - view: frozen, borrowing node values, edge list, CSR adjacency and the
//    optional name table from externally owned memory — the zero-copy mode
//    the mmap-backed GraphStore (src/storage/) produces straight out of a
//    mapped binary container.
//
// Readers cannot tell the modes apart (adjacency comes back as std::span
// either way); mutation is only legal on resident graphs.

#ifndef GQD_GRAPH_DATA_GRAPH_H_
#define GQD_GRAPH_DATA_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"

namespace gqd {

/// Dense node index within one DataGraph.
using NodeId = std::uint32_t;
/// Dense edge-label index within one DataGraph's alphabet Σ.
using LabelId = std::uint32_t;
/// Dense data-value index within one DataGraph (the partition class of ρ).
using ValueId = std::uint32_t;

/// A directed labelled edge (source, label, target).
struct Edge {
  NodeId from;
  LabelId label;
  NodeId to;

  bool operator==(const Edge& other) const = default;
};

/// One adjacency entry: the label and the far endpoint of an edge incident
/// to the node whose list it sits in. Fixed 8-byte layout — the binary
/// graph container stores CSR entry sections as arrays of this struct and
/// the view mode reads them in place.
struct LabeledEdge {
  LabelId label;
  NodeId node;

  bool operator==(const LabeledEdge& other) const = default;
};

/// Borrowed storage for a view-mode DataGraph. All pointers must stay valid
/// for the lifetime of the graph (the mmap backend parks the mapping in a
/// shared keepalive). Offsets arrays have num_nodes + 1 entries; entry
/// arrays have num_edges entries. The name table is optional (both
/// pointers null when every node is anonymous).
struct GraphView {
  std::size_t num_nodes = 0;
  std::size_t num_edges = 0;
  const ValueId* node_values = nullptr;
  const Edge* edges = nullptr;
  const std::uint64_t* out_offsets = nullptr;
  const LabeledEdge* out_entries = nullptr;
  const std::uint64_t* in_offsets = nullptr;
  const LabeledEdge* in_entries = nullptr;
  const std::uint64_t* name_offsets = nullptr;
  const char* name_blob = nullptr;
};

/// A finite directed graph with Σ-labelled edges and data-valued nodes.
///
/// Construction is additive: AddLabel / AddNode / AddEdge. Nodes carry an
/// optional display name (used by serialization and the examples); names are
/// unique when present.
class DataGraph {
 public:
  DataGraph() = default;

  /// Wraps borrowed storage (see GraphView) as a frozen graph. `labels` and
  /// `values` are materialized eagerly — Σ and δ are small even for
  /// million-node graphs, so interners are the one part of a mapped graph
  /// that lives on the heap.
  static DataGraph FromView(StringInterner labels, StringInterner values,
                            const GraphView& view);

  // --- Construction (resident graphs only) --------------------------------

  /// Interns an edge label; idempotent.
  LabelId AddLabel(std::string_view name) { return labels_.Intern(name); }

  /// Interns a data value by name (e.g. "0", "movie:Alien"); idempotent.
  ValueId AddDataValue(std::string_view name) { return values_.Intern(name); }

  /// Adds a node with the given data value; returns its id.
  /// `name` may be empty (anonymous node).
  NodeId AddNode(ValueId value, std::string_view name = "");

  /// Adds a node whose data value is interned from `value_name`.
  NodeId AddNodeWithValue(std::string_view value_name,
                          std::string_view name = "") {
    return AddNode(AddDataValue(value_name), name);
  }

  /// Adds the edge (from, label, to); duplicate edges are ignored.
  void AddEdge(NodeId from, LabelId label, NodeId to);

  /// Adds an edge by label name, interning the label if new.
  void AddEdgeByName(NodeId from, std::string_view label, NodeId to) {
    AddEdge(from, AddLabel(label), to);
  }

  // --- Shape --------------------------------------------------------------

  std::size_t NumNodes() const {
    return frozen_ ? view_.num_nodes : node_values_.size();
  }
  std::size_t NumLabels() const { return labels_.size(); }
  /// δ: the number of distinct data values used by the graph.
  std::size_t NumDataValues() const { return values_.size(); }
  std::size_t NumEdges() const {
    return frozen_ ? view_.num_edges : edges_.size();
  }

  /// True for a frozen view-mode graph (mmap backend); false for the
  /// resident, mutable mode.
  bool is_view() const { return frozen_; }

  /// ρ(v): the data value of node v.
  ValueId DataValueOf(NodeId v) const {
    return frozen_ ? view_.node_values[v] : node_values_[v];
  }

  /// All edges in insertion order (the canonical serialization order).
  std::span<const Edge> edges() const {
    return frozen_ ? std::span<const Edge>(view_.edges, view_.num_edges)
                   : std::span<const Edge>(edges_);
  }

  /// Out-edges of `v` as (label, target) entries. Resident graphs keep
  /// insertion order; view graphs are sorted by (label, target) — readers
  /// must not rely on a particular order.
  std::span<const LabeledEdge> OutEdges(NodeId v) const {
    if (frozen_) {
      return {view_.out_entries + view_.out_offsets[v],
              static_cast<std::size_t>(view_.out_offsets[v + 1] -
                                       view_.out_offsets[v])};
    }
    return out_edges_[v];
  }
  /// In-edges of `v` as (label, source) entries; ordering as for OutEdges.
  std::span<const LabeledEdge> InEdges(NodeId v) const {
    if (frozen_) {
      return {view_.in_entries + view_.in_offsets[v],
              static_cast<std::size_t>(view_.in_offsets[v + 1] -
                                       view_.in_offsets[v])};
    }
    return in_edges_[v];
  }

  /// True iff the edge (from, label, to) exists.
  bool HasEdge(NodeId from, LabelId label, NodeId to) const;

  // --- Names --------------------------------------------------------------

  const StringInterner& labels() const { return labels_; }
  const StringInterner& data_values() const { return values_; }

  /// Display name of node `v` ("#<id>" if anonymous).
  std::string NodeName(NodeId v) const;

  /// The stored name of `v` ("" when anonymous); no "#<id>" synthesis.
  std::string_view RawNodeName(NodeId v) const;

  /// Finds a node by display name. Accepts the synthesized "#<id>" form
  /// for anonymous nodes, so relation files can address nodes of generated
  /// (nameless) graphs. A linear scan over the stored names; resolve many
  /// names through a NodeNameIndex instead.
  Result<NodeId> FindNode(std::string_view name) const;

  /// True when some node may carry a stored name (false guarantees that
  /// every node is anonymous).
  bool HasNodeNames() const {
    return frozen_ ? view_.name_offsets != nullptr : num_named_ > 0;
  }

  /// Validates internal invariants (edge endpoints in range, etc.).
  Status Validate() const;

  /// Rough heap footprint of this graph's owned storage in bytes. View
  /// graphs only own their interners — the mapped sections are file-backed
  /// and accounted separately by the GraphStore.
  std::size_t EstimateResidentBytes() const;

 private:
  StringInterner labels_;
  StringInterner values_;
  // Resident storage; unused (empty) in view mode.
  std::vector<ValueId> node_values_;
  std::vector<std::string> node_names_;  // "" when anonymous
  std::size_t num_named_ = 0;            // backs HasNodeNames on resident graphs
  std::vector<Edge> edges_;
  std::vector<std::vector<LabeledEdge>> out_edges_;
  std::vector<std::vector<LabeledEdge>> in_edges_;
  // View storage; all-null when resident.
  GraphView view_;
  bool frozen_ = false;
};

/// Resolves non-empty display names exactly as DataGraph::FindNode does (a
/// stored name wins; "#<id>" addresses only an anonymous node) in O(1)
/// expected time per lookup. The stored names are hashed once, at
/// construction and only when the graph has any, so resolving m names
/// costs O(m + n) where FindNode would cost O(m·n). The graph must outlive
/// the index and must not gain nodes while it is in use.
class NodeNameIndex {
 public:
  explicit NodeNameIndex(const DataGraph& graph);

  /// The node `name` resolves to, or std::nullopt.
  std::optional<NodeId> Find(std::string_view name) const;

 private:
  const DataGraph& graph_;
  /// Open-addressed table of node ids keyed by stored name; kEmpty marks a
  /// free slot. Empty when the graph has no stored names.
  std::vector<NodeId> slots_;
  static constexpr NodeId kEmpty = static_cast<NodeId>(-1);
};

}  // namespace gqd

#endif  // GQD_GRAPH_DATA_GRAPH_H_
