#include "graph/serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json_util.h"

namespace gqd {

namespace {

/// The separators `operator>>` skips within a line in the "C" locale:
/// ' ', '\t', '\v', '\f' and '\r' ('\n' ends the line first).
bool IsTokenSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

/// One pass over line-oriented text: splits `text` into lines at '\n' (as
/// std::getline does, so a missing final newline still ends a line) and
/// each line into whitespace-separated tokens viewing `text` itself. Calls
/// `fn(line_number, tokens)` for every line that is neither blank nor a
/// `#` comment, with 1-based line numbers, and stops at the first error
/// `fn` returns. The token vector is reused, so a parse allocates nothing
/// per line.
template <typename Fn>
Status ForEachDirective(std::string_view text, Fn&& fn) {
  std::vector<std::string_view> tokens;
  std::size_t line_number = 0;
  const char* at = text.data();
  const char* const end = at + text.size();
  while (at < end) {
    const char* newline = static_cast<const char*>(
        std::memchr(at, '\n', static_cast<std::size_t>(end - at)));
    const char* line_end = newline != nullptr ? newline : end;
    line_number++;
    tokens.clear();
    while (true) {
      while (at < line_end && IsTokenSpace(*at)) {
        at++;
      }
      if (at == line_end) {
        break;
      }
      const char* token = at;
      while (at < line_end && !IsTokenSpace(*at)) {
        at++;
      }
      tokens.emplace_back(token, static_cast<std::size_t>(at - token));
    }
    at = line_end + (newline != nullptr ? 1 : 0);
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    GQD_RETURN_NOT_OK(fn(line_number, tokens));
  }
  return Status::OK();
}

Status LineError(std::size_t line_number, std::string_view message) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + std::string(message));
}

Status UnknownNode(std::size_t line_number, std::string_view name) {
  return LineError(line_number,
                   "unknown node '" + std::string(name) + "'");
}

/// Streams the canonical `node`/`edge` text of `graph` line by line into
/// `emit`. WriteGraphText and FingerprintGraphText must agree byte for byte
/// — this is the single definition both build on.
template <typename Emit>
void EmitGraphText(const DataGraph& graph, Emit&& emit) {
  std::string line;
  line = "# gqd data graph: " + std::to_string(graph.NumNodes()) +
         " nodes, " + std::to_string(graph.NumEdges()) +
         " edges, delta=" + std::to_string(graph.NumDataValues()) + "\n";
  emit(line);
  for (NodeId v = 0; v < graph.NumNodes(); v++) {
    line = "node " + graph.NodeName(v) + " " +
           graph.data_values().NameOf(graph.DataValueOf(v)) + "\n";
    emit(line);
  }
  for (const Edge& e : graph.edges()) {
    line = "edge " + graph.NodeName(e.from) + " " +
           graph.labels().NameOf(e.label) + " " + graph.NodeName(e.to) +
           "\n";
    emit(line);
  }
}

}  // namespace

std::string WriteGraphText(const DataGraph& graph) {
  std::string out;
  // node/edge lines run ~20 bytes; reserve to avoid growth churn on
  // million-node graphs.
  out.reserve(32 * (graph.NumNodes() + graph.NumEdges()) + 64);
  EmitGraphText(graph, [&out](const std::string& line) { out += line; });
  return out;
}

std::uint64_t FingerprintGraphText(const DataGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  EmitGraphText(graph, [&hash](const std::string& line) {
    for (unsigned char c : line) {
      hash ^= c;
      hash *= 0x100000001b3ULL;  // FNV prime
    }
  });
  return hash;
}

std::string FingerprintToHex(std::uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buffer);
}

Result<DataGraph> ReadGraphText(const std::string& text) {
  DataGraph graph;
  // Parse-local name index over views into `text`: every node line names
  // its node, so the index resolves every edge endpoint FindNode could.
  std::unordered_map<std::string_view, NodeId> nodes_by_name;
  GQD_RETURN_NOT_OK(ForEachDirective(
      text, [&](std::size_t line, const std::vector<std::string_view>& tokens)
                -> Status {
        if (tokens[0] == "node") {
          if (tokens.size() != 3) {
            return LineError(line, "expected: node <name> <data-value>");
          }
          if (nodes_by_name.count(tokens[1]) > 0) {
            return LineError(line, "duplicate node '" +
                                       std::string(tokens[1]) + "'");
          }
          nodes_by_name.emplace(tokens[1],
                                graph.AddNodeWithValue(tokens[2], tokens[1]));
          return Status::OK();
        }
        if (tokens[0] == "edge") {
          if (tokens.size() != 4) {
            return LineError(line, "expected: edge <from> <label> <to>");
          }
          auto from = nodes_by_name.find(tokens[1]);
          if (from == nodes_by_name.end()) {
            return UnknownNode(line, tokens[1]);
          }
          auto to = nodes_by_name.find(tokens[3]);
          if (to == nodes_by_name.end()) {
            return UnknownNode(line, tokens[3]);
          }
          graph.AddEdgeByName(from->second, tokens[2], to->second);
          return Status::OK();
        }
        return LineError(line, "unknown directive '" +
                                   std::string(tokens[0]) + "'");
      }));
  GQD_RETURN_NOT_OK(graph.Validate());
  return graph;
}

std::string WriteGraphDot(const DataGraph& graph) {
  std::ostringstream os;
  os << "digraph gqd {\n";
  for (NodeId v = 0; v < graph.NumNodes(); v++) {
    os << "  n" << v << " [label=\"" << graph.NodeName(v) << "\\n"
       << graph.data_values().NameOf(graph.DataValueOf(v)) << "\"];\n";
  }
  for (const Edge& e : graph.edges()) {
    os << "  n" << e.from << " -> n" << e.to << " [label=\""
       << graph.labels().NameOf(e.label) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string WriteGraphInfoJson(const DataGraph& graph) {
  std::ostringstream os;
  os << "{\"nodes\":" << graph.NumNodes() << ",\"edges\":" << graph.NumEdges()
     << ",\"alphabet\":[";
  const std::vector<std::string>& labels = graph.labels().names();
  for (std::size_t i = 0; i < labels.size(); i++) {
    os << (i > 0 ? "," : "") << JsonQuote(labels[i]);
  }
  os << "],\"data_values\":[";
  const std::vector<std::string>& values = graph.data_values().names();
  for (std::size_t i = 0; i < values.size(); i++) {
    os << (i > 0 ? "," : "") << JsonQuote(values[i]);
  }
  os << "],\"num_data_values\":" << graph.NumDataValues() << "}";
  return os.str();
}

std::string WriteRelationText(const DataGraph& graph,
                              const BinaryRelation& rel) {
  std::ostringstream os;
  for (const auto& [u, v] : rel.Pairs()) {
    os << "pair " << graph.NodeName(u) << " " << graph.NodeName(v) << "\n";
  }
  return os.str();
}

Result<BinaryRelation> ReadRelationText(const DataGraph& graph,
                                        const std::string& text) {
  auto pairs = ReadRelationPairsText(graph, text);
  GQD_RETURN_NOT_OK(pairs.status());
  BinaryRelation rel(graph.NumNodes());
  for (const auto& [u, v] : pairs.value()) {
    rel.Set(u, v);
  }
  return rel;
}

Result<std::vector<std::pair<NodeId, NodeId>>> ReadRelationPairsText(
    const DataGraph& graph, const std::string& text) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  NodeNameIndex names(graph);
  GQD_RETURN_NOT_OK(ForEachDirective(
      text, [&](std::size_t line, const std::vector<std::string_view>& tokens)
                -> Status {
        if (tokens[0] != "pair" || tokens.size() != 3) {
          return LineError(line, "expected: pair <u> <v>");
        }
        std::optional<NodeId> u = names.Find(tokens[1]);
        std::optional<NodeId> v = names.Find(tokens[2]);
        if (!u.has_value() || !v.has_value()) {
          return UnknownNode(line, u.has_value() ? tokens[2] : tokens[1]);
        }
        pairs.emplace_back(*u, *v);
        return Status::OK();
      }));
  return pairs;
}

std::string WriteRelationPairsText(
    const DataGraph& graph, std::vector<std::pair<NodeId, NodeId>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::string out;
  out.reserve(24 * pairs.size());
  for (const auto& [u, v] : pairs) {
    out += "pair ";
    out += graph.NodeName(u);
    out += " ";
    out += graph.NodeName(v);
    out += "\n";
  }
  return out;
}

Result<TupleRelation> ReadTupleRelationText(const DataGraph& graph,
                                            const std::string& text) {
  std::vector<NodeTuple> tuples;
  std::size_t arity = 0;
  NodeNameIndex names(graph);
  GQD_RETURN_NOT_OK(ForEachDirective(
      text, [&](std::size_t line, const std::vector<std::string_view>& tokens)
                -> Status {
        if (tokens[0] != "tuple" || tokens.size() < 2) {
          return LineError(line, "expected: tuple <n1> ... <nr>");
        }
        NodeTuple tuple;
        for (std::size_t i = 1; i < tokens.size(); i++) {
          std::optional<NodeId> v = names.Find(tokens[i]);
          if (!v.has_value()) {
            return UnknownNode(line, tokens[i]);
          }
          tuple.push_back(*v);
        }
        if (arity == 0) {
          arity = tuple.size();
        } else if (tuple.size() != arity) {
          return LineError(line, "inconsistent tuple arity");
        }
        tuples.push_back(std::move(tuple));
        return Status::OK();
      }));
  if (arity == 0) {
    return Status::InvalidArgument("relation file contains no tuples");
  }
  TupleRelation rel(arity);
  for (NodeTuple& t : tuples) {
    rel.Insert(std::move(t));
  }
  return rel;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace gqd
