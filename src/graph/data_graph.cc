#include "graph/data_graph.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <functional>
#include <unordered_set>

namespace gqd {

namespace {

/// Parses the synthesized "#<id>" display-name form; returns false when
/// `name` is not of that shape (no leading '#', junk after the digits).
bool ParseAnonymousName(std::string_view name, NodeId* id) {
  if (name.size() < 2 || name[0] != '#') {
    return false;
  }
  const char* first = name.data() + 1;
  const char* last = name.data() + name.size();
  auto [ptr, ec] = std::from_chars(first, last, *id);
  return ec == std::errc() && ptr == last;
}

}  // namespace

DataGraph DataGraph::FromView(StringInterner labels, StringInterner values,
                              const GraphView& view) {
  DataGraph graph;
  graph.labels_ = std::move(labels);
  graph.values_ = std::move(values);
  graph.view_ = view;
  graph.frozen_ = true;
  return graph;
}

NodeId DataGraph::AddNode(ValueId value, std::string_view name) {
  assert(!frozen_ && "view-mode graphs are immutable");
  assert(value < values_.size() && "intern the data value first");
  NodeId id = static_cast<NodeId>(node_values_.size());
  node_values_.push_back(value);
  node_names_.emplace_back(name);
  if (!name.empty()) {
    num_named_++;
  }
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return id;
}

void DataGraph::AddEdge(NodeId from, LabelId label, NodeId to) {
  assert(!frozen_ && "view-mode graphs are immutable");
  assert(from < NumNodes() && to < NumNodes() && label < NumLabels());
  if (HasEdge(from, label, to)) {
    return;
  }
  edges_.push_back(Edge{from, label, to});
  out_edges_[from].push_back(LabeledEdge{label, to});
  in_edges_[to].push_back(LabeledEdge{label, from});
}

bool DataGraph::HasEdge(NodeId from, LabelId label, NodeId to) const {
  if (from >= NumNodes()) {
    return false;
  }
  std::span<const LabeledEdge> out = OutEdges(from);
  return std::find(out.begin(), out.end(), LabeledEdge{label, to}) !=
         out.end();
}

std::string_view DataGraph::RawNodeName(NodeId v) const {
  if (frozen_) {
    if (view_.name_offsets == nullptr) {
      return {};
    }
    return std::string_view(
        view_.name_blob + view_.name_offsets[v],
        static_cast<std::size_t>(view_.name_offsets[v + 1] -
                                 view_.name_offsets[v]));
  }
  return v < node_names_.size() ? std::string_view(node_names_[v])
                                : std::string_view();
}

std::string DataGraph::NodeName(NodeId v) const {
  std::string_view raw = RawNodeName(v);
  if (!raw.empty()) {
    return std::string(raw);
  }
  return "#" + std::to_string(v);
}

Result<NodeId> DataGraph::FindNode(std::string_view name) const {
  std::size_t n = NumNodes();
  if (HasNodeNames()) {
    for (NodeId v = 0; v < n; v++) {
      if (RawNodeName(v) == name) {
        return v;
      }
    }
  }
  // "#<id>" resolves an anonymous node by id — the form NodeName
  // synthesizes, so serialized relations over nameless (generated) graphs
  // round-trip.
  NodeId id = 0;
  if (ParseAnonymousName(name, &id) && id < n && RawNodeName(id).empty()) {
    return id;
  }
  return Status::NotFound("no node named '" + std::string(name) + "'");
}

NodeNameIndex::NodeNameIndex(const DataGraph& graph) : graph_(graph) {
  if (!graph.HasNodeNames()) {
    return;
  }
  std::size_t n = graph.NumNodes();
  std::size_t capacity = 16;
  while (capacity < 2 * n) {
    capacity *= 2;
  }
  slots_.assign(capacity, kEmpty);
  std::size_t mask = capacity - 1;
  std::hash<std::string_view> hash;
  for (NodeId v = 0; v < n; v++) {
    std::string_view name = graph.RawNodeName(v);
    if (name.empty()) {
      continue;
    }
    std::size_t pos = hash(name) & mask;
    // The first node with a name keeps it, as in FindNode's scan.
    while (slots_[pos] != kEmpty && graph.RawNodeName(slots_[pos]) != name) {
      pos = (pos + 1) & mask;
    }
    if (slots_[pos] == kEmpty) {
      slots_[pos] = v;
    }
  }
}

std::optional<NodeId> NodeNameIndex::Find(std::string_view name) const {
  if (!slots_.empty()) {
    std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = std::hash<std::string_view>()(name) & mask;
         slots_[pos] != kEmpty; pos = (pos + 1) & mask) {
      if (graph_.RawNodeName(slots_[pos]) == name) {
        return slots_[pos];
      }
    }
  }
  // Without a table every node is anonymous; skipping RawNodeName then
  // saves a cache miss per lookup on large generated graphs.
  NodeId id = 0;
  if (ParseAnonymousName(name, &id) && id < graph_.NumNodes() &&
      (slots_.empty() || graph_.RawNodeName(id).empty())) {
    return id;
  }
  return std::nullopt;
}

Status DataGraph::Validate() const {
  for (const Edge& e : edges()) {
    if (e.from >= NumNodes() || e.to >= NumNodes()) {
      return Status::Internal("edge endpoint out of range");
    }
    if (e.label >= NumLabels()) {
      return Status::Internal("edge label out of range");
    }
  }
  for (NodeId v = 0; v < NumNodes(); v++) {
    if (DataValueOf(v) >= NumDataValues()) {
      return Status::Internal("node data value out of range");
    }
  }
  // Node names, where present, must be unique.
  std::unordered_set<std::string_view> seen;
  seen.reserve(NumNodes());
  for (NodeId v = 0; v < NumNodes(); v++) {
    std::string_view name = RawNodeName(v);
    if (name.empty()) {
      continue;
    }
    if (!seen.insert(name).second) {
      return Status::Internal("duplicate node name '" + std::string(name) +
                              "'");
    }
  }
  return Status::OK();
}

std::size_t DataGraph::EstimateResidentBytes() const {
  std::size_t bytes = 0;
  for (const std::string& name : labels_.names()) {
    bytes += sizeof(std::string) + name.capacity() + 48;  // + hash-map slot
  }
  for (const std::string& name : values_.names()) {
    bytes += sizeof(std::string) + name.capacity() + 48;
  }
  if (frozen_) {
    return bytes;  // the sections themselves are file-backed
  }
  bytes += node_values_.capacity() * sizeof(ValueId);
  bytes += edges_.capacity() * sizeof(Edge);
  for (const std::string& name : node_names_) {
    bytes += sizeof(std::string) + name.capacity();
  }
  for (const auto& adj : out_edges_) {
    bytes += sizeof(adj) + adj.capacity() * sizeof(LabeledEdge);
  }
  for (const auto& adj : in_edges_) {
    bytes += sizeof(adj) + adj.capacity() * sizeof(LabeledEdge);
  }
  return bytes;
}

}  // namespace gqd
