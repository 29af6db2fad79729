// Unit tests for the graph substrate: DataGraph, BinaryRelation,
// TupleRelation, data paths, generators, serialization, and the Figure-1
// running example.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "graph/data_path.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/relation.h"
#include "graph/serialization.h"

namespace gqd {
namespace {

DataGraph TinyGraph() {
  // u(0) -a-> v(1) -b-> w(0), v -a-> v
  DataGraph g;
  g.AddLabel("a");
  g.AddLabel("b");
  g.AddDataValue("0");
  g.AddDataValue("1");
  NodeId u = g.AddNodeWithValue("0", "u");
  NodeId v = g.AddNodeWithValue("1", "v");
  NodeId w = g.AddNodeWithValue("0", "w");
  g.AddEdgeByName(u, "a", v);
  g.AddEdgeByName(v, "b", w);
  g.AddEdgeByName(v, "a", v);
  return g;
}

TEST(DataGraph, BasicShape) {
  DataGraph g = TinyGraph();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumLabels(), 2u);
  EXPECT_EQ(g.NumDataValues(), 2u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(DataGraph, EdgesAndAdjacency) {
  DataGraph g = TinyGraph();
  NodeId u = g.FindNode("u").ValueOrDie();
  NodeId v = g.FindNode("v").ValueOrDie();
  NodeId w = g.FindNode("w").ValueOrDie();
  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  EXPECT_TRUE(g.HasEdge(u, a, v));
  EXPECT_TRUE(g.HasEdge(v, b, w));
  EXPECT_TRUE(g.HasEdge(v, a, v));
  EXPECT_FALSE(g.HasEdge(u, b, v));
  EXPECT_EQ(g.OutEdges(u).size(), 1u);
  EXPECT_EQ(g.OutEdges(v).size(), 2u);
  EXPECT_EQ(g.InEdges(v).size(), 2u);  // from u and the self-loop
}

TEST(DataGraph, DuplicateEdgesIgnored) {
  DataGraph g = TinyGraph();
  std::size_t before = g.NumEdges();
  g.AddEdgeByName(g.FindNode("u").ValueOrDie(), "a",
                  g.FindNode("v").ValueOrDie());
  EXPECT_EQ(g.NumEdges(), before);
}

TEST(DataGraph, FindNodeErrors) {
  DataGraph g = TinyGraph();
  EXPECT_FALSE(g.FindNode("nope").ok());
  EXPECT_EQ(g.FindNode("nope").status().code(), StatusCode::kNotFound);
}

TEST(DataGraph, DataValues) {
  DataGraph g = TinyGraph();
  NodeId u = g.FindNode("u").ValueOrDie();
  NodeId v = g.FindNode("v").ValueOrDie();
  NodeId w = g.FindNode("w").ValueOrDie();
  EXPECT_EQ(g.DataValueOf(u), g.DataValueOf(w));
  EXPECT_NE(g.DataValueOf(u), g.DataValueOf(v));
}

TEST(BinaryRelation, BasicOps) {
  BinaryRelation r(4);
  EXPECT_TRUE(r.Empty());
  r.Set(0, 1);
  r.Set(1, 2);
  EXPECT_EQ(r.Count(), 2u);
  EXPECT_TRUE(r.Test(0, 1));
  EXPECT_FALSE(r.Test(1, 0));
  auto pairs = r.Pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(NodeId{0}, NodeId{1}));
}

TEST(BinaryRelation, Compose) {
  BinaryRelation r(4), s(4);
  r.Set(0, 1);
  r.Set(0, 2);
  s.Set(1, 3);
  s.Set(2, 0);
  BinaryRelation c = r.Compose(s);
  EXPECT_TRUE(c.Test(0, 3));
  EXPECT_TRUE(c.Test(0, 0));
  EXPECT_EQ(c.Count(), 2u);
}

TEST(BinaryRelation, ComposeWithIdentityIsNoop) {
  BinaryRelation r = RandomRelation(10, 30, 7);
  BinaryRelation id = BinaryRelation::Identity(10);
  EXPECT_EQ(r.Compose(id), r);
  EXPECT_EQ(id.Compose(r), r);
}

TEST(BinaryRelation, ComposeAssociative) {
  BinaryRelation a = RandomRelation(12, 20, 1);
  BinaryRelation b = RandomRelation(12, 20, 2);
  BinaryRelation c = RandomRelation(12, 20, 3);
  EXPECT_EQ(a.Compose(b).Compose(c), a.Compose(b.Compose(c)));
}

TEST(BinaryRelation, ComposeDistributesOverUnion) {
  BinaryRelation a = RandomRelation(10, 25, 4);
  BinaryRelation b = RandomRelation(10, 25, 5);
  BinaryRelation c = RandomRelation(10, 25, 6);
  BinaryRelation lhs = (a | b).Compose(c);
  BinaryRelation rhs = a.Compose(c) | b.Compose(c);
  EXPECT_EQ(lhs, rhs);
}

TEST(BinaryRelation, Restrictions) {
  DataGraph g = TinyGraph();  // values: u=0, v=1, w=0
  BinaryRelation full = BinaryRelation::Full(3);
  BinaryRelation eq = full.EqRestrict(g);
  BinaryRelation neq = full.NeqRestrict(g);
  NodeId u = g.FindNode("u").ValueOrDie();
  NodeId v = g.FindNode("v").ValueOrDie();
  NodeId w = g.FindNode("w").ValueOrDie();
  EXPECT_TRUE(eq.Test(u, w));
  EXPECT_TRUE(eq.Test(u, u));
  EXPECT_FALSE(eq.Test(u, v));
  EXPECT_TRUE(neq.Test(u, v));
  EXPECT_FALSE(neq.Test(u, w));
  // The restrictions partition the relation.
  EXPECT_EQ(eq.Count() + neq.Count(), full.Count());
  BinaryRelation merged = eq | neq;
  EXPECT_EQ(merged, full);
}

TEST(BinaryRelation, RestrictionDistributesOverUnion) {
  DataGraph g = RandomDataGraph({.num_nodes = 9,
                                 .num_labels = 1,
                                 .num_data_values = 3,
                                 .edge_percent = 20,
                                 .seed = 11});
  BinaryRelation a = RandomRelation(9, 30, 8);
  BinaryRelation b = RandomRelation(9, 30, 9);
  EXPECT_EQ((a | b).EqRestrict(g), a.EqRestrict(g) | b.EqRestrict(g));
  EXPECT_EQ((a | b).NeqRestrict(g), a.NeqRestrict(g) | b.NeqRestrict(g));
}

TEST(BinaryRelation, SubsetAndHash) {
  BinaryRelation a(5), b(5);
  a.Set(0, 1);
  b.Set(0, 1);
  b.Set(2, 3);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_NE(a.Hash(), b.Hash());
  b.Reset(2, 3);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a, b);
}

TEST(BinaryRelation, TransitivePlus) {
  // 0 -> 1 -> 2 -> 3 chain.
  BinaryRelation r(4);
  r.Set(0, 1);
  r.Set(1, 2);
  r.Set(2, 3);
  BinaryRelation closure = TransitivePlus(r);
  EXPECT_TRUE(closure.Test(0, 3));
  EXPECT_TRUE(closure.Test(1, 3));
  EXPECT_FALSE(closure.Test(0, 0));
  EXPECT_EQ(closure.Count(), 6u);
}

TEST(BinaryRelation, TransitivePlusOnCycleIsFullAmongCycleNodes) {
  BinaryRelation r(3);
  r.Set(0, 1);
  r.Set(1, 2);
  r.Set(2, 0);
  BinaryRelation closure = TransitivePlus(r);
  EXPECT_EQ(closure, BinaryRelation::Full(3));
}

TEST(TupleRelation, InsertContains) {
  TupleRelation r(3);
  r.Insert({0, 1, 2});
  r.Insert({0, 1, 2});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({0, 1, 2}));
  EXPECT_FALSE(r.Contains({2, 1, 0}));
}

TEST(DataPath, ConcatRequiresSharedBoundary) {
  DataPath w1{{0, 1}, {0}};
  DataPath w2{{1, 2}, {0}};
  DataPath w3{{5, 2}, {0}};
  auto ok = w1.Concat(w2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().values, (std::vector<ValueId>{0, 1, 2}));
  EXPECT_EQ(ok.value().letters, (std::vector<LabelId>{0, 0}));
  EXPECT_FALSE(w1.Concat(w3).ok());
}

TEST(DataPath, CanonicalFormAndAutomorphism) {
  DataPath w1{{5, 9, 5, 9}, {0, 0, 0}};
  DataPath w2{{2, 3, 2, 3}, {0, 0, 0}};
  DataPath w3{{2, 3, 2, 2}, {0, 0, 0}};
  EXPECT_TRUE(w1.IsAutomorphicTo(w2));
  EXPECT_FALSE(w1.IsAutomorphicTo(w3));
  EXPECT_EQ(w1.CanonicalForm().values, (std::vector<ValueId>{0, 1, 0, 1}));
}

TEST(DataPath, EnumerateConnectingPaths) {
  DataGraph g = TinyGraph();
  NodeId u = g.FindNode("u").ValueOrDie();
  NodeId w = g.FindNode("w").ValueOrDie();
  // u -a-> v (-a-> v)* -b-> w; lengths 2 and 3 within bound 3.
  auto paths = EnumerateConnectingPaths(g, u, w, 3);
  EXPECT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.values.front(), g.DataValueOf(u));
    EXPECT_EQ(p.values.back(), g.DataValueOf(w));
  }
}

TEST(Generators, RandomGraphIsValidAndDeterministic) {
  RandomGraphOptions options{.num_nodes = 12,
                             .num_labels = 2,
                             .num_data_values = 4,
                             .edge_percent = 25,
                             .seed = 42};
  DataGraph g1 = RandomDataGraph(options);
  DataGraph g2 = RandomDataGraph(options);
  EXPECT_TRUE(g1.Validate().ok());
  EXPECT_EQ(g1.NumNodes(), 12u);
  EXPECT_EQ(g1.NumEdges(), g2.NumEdges());
  EXPECT_EQ(WriteGraphText(g1), WriteGraphText(g2));
}

TEST(Generators, LineAndCycle) {
  DataGraph line = LineGraph({0, 1, 0});
  EXPECT_EQ(line.NumNodes(), 3u);
  EXPECT_EQ(line.NumEdges(), 2u);
  DataGraph cycle = CycleGraph({0, 1, 0});
  EXPECT_EQ(cycle.NumEdges(), 3u);
}

TEST(Serialization, GraphRoundTrip) {
  DataGraph g = Figure1Graph();
  std::string text = WriteGraphText(g);
  auto parsed = ReadGraphText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(WriteGraphText(parsed.value()), text);
}

TEST(Serialization, RelationRoundTrip) {
  DataGraph g = Figure1Graph();
  BinaryRelation s1 = Figure1S1(g);
  std::string text = WriteRelationText(g, s1);
  auto parsed = ReadRelationText(g, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), s1);
}

TEST(Serialization, RejectsMalformedInput) {
  EXPECT_FALSE(ReadGraphText("node x").ok());
  EXPECT_FALSE(ReadGraphText("edge a b c").ok());
  EXPECT_FALSE(ReadGraphText("node x 0\nnode x 1").ok());
  EXPECT_FALSE(ReadGraphText("bogus line here").ok());
  DataGraph g = Figure1Graph();
  EXPECT_FALSE(ReadRelationText(g, "pair v1 nosuch").ok());
  EXPECT_FALSE(ReadTupleRelationText(g, "tuple v1 v2\ntuple v1 v2 v3").ok());
}

TEST(Serialization, ParseErrorsNameTheLine) {
  // Readers must report where the problem is, not just that one exists.
  auto bad_graph = ReadGraphText("node u 0\nnode v 1\nbogus here\n");
  ASSERT_FALSE(bad_graph.ok());
  EXPECT_NE(bad_graph.status().message().find("line 3"), std::string::npos)
      << bad_graph.status();

  DataGraph g = Figure1Graph();
  auto bad_pair = ReadRelationText(g, "pair v1 v2\npair v1 nosuch\n");
  ASSERT_FALSE(bad_pair.ok());
  EXPECT_NE(bad_pair.status().message().find("line 2"), std::string::npos)
      << bad_pair.status();
  // The offending node is named, so typos are findable in big files.
  EXPECT_NE(bad_pair.status().message().find("'nosuch'"), std::string::npos)
      << bad_pair.status();

  auto bad_tuple = ReadTupleRelationText(g, "tuple v1 v2\ntuple v1\n");
  ASSERT_FALSE(bad_tuple.ok());
  EXPECT_NE(bad_tuple.status().message().find("line 2"), std::string::npos)
      << bad_tuple.status();
}

TEST(Serialization, DotOutputMentionsAllNodes) {
  DataGraph g = TinyGraph();
  std::string dot = WriteGraphDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"u\\n0\""), std::string::npos);
}

TEST(Figure1, MatchesPaperFacts) {
  DataGraph g = Figure1Graph();
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.NumNodes(), 10u);
  EXPECT_EQ(g.NumEdges(), 12u);
  EXPECT_EQ(g.NumDataValues(), 4u);
  Figure1Nodes n = Figure1NodeIds(g);
  // The only data paths connecting v1 to v2 are 0a1 and 0a1a1 (Example 14).
  auto paths = EnumerateConnectingPaths(g, n.v1, n.v2, 4);
  ASSERT_EQ(paths.size(), 2u);
  // w5 = 0a1a1a0 connects v1 to v3 (Example 12).
  bool found_w5 = false;
  for (const auto& p : EnumerateConnectingPaths(g, n.v1, n.v3, 3)) {
    if (p.values == std::vector<ValueId>{0, 1, 1, 0}) {
      found_w5 = true;
    }
  }
  EXPECT_TRUE(found_w5);
}

// --- Differential parser test ----------------------------------------------
//
// The naive oracle is the reader the one-pass scanner replaced: std::getline
// over an istringstream, a second istringstream per line to tokenize, and a
// DataGraph::FindNode scan per name. The production readers must return the
// same pairs / tuples / graph, or byte-identical error text, on every input.

std::vector<std::string> NaiveTokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

bool NaiveSkip(const std::vector<std::string>& tokens) {
  return tokens.empty() || tokens[0][0] == '#';
}

Result<std::vector<std::pair<NodeId, NodeId>>> NaiveReadPairs(
    const DataGraph& graph, const std::string& text) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::istringstream is(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    line_number++;
    std::vector<std::string> tokens = NaiveTokenize(line);
    if (NaiveSkip(tokens)) {
      continue;
    }
    if (tokens[0] != "pair" || tokens.size() != 3) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected: pair <u> <v>");
    }
    auto u = graph.FindNode(tokens[1]);
    auto v = graph.FindNode(tokens[2]);
    if (!u.ok() || !v.ok()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": unknown node '" +
          (u.ok() ? tokens[2] : tokens[1]) + "'");
    }
    pairs.emplace_back(u.value(), v.value());
  }
  return pairs;
}

Result<TupleRelation> NaiveReadTuples(const DataGraph& graph,
                                      const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_number = 0;
  std::vector<NodeTuple> tuples;
  std::size_t arity = 0;
  while (std::getline(is, line)) {
    line_number++;
    std::vector<std::string> tokens = NaiveTokenize(line);
    if (NaiveSkip(tokens)) {
      continue;
    }
    if (tokens[0] != "tuple" || tokens.size() < 2) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected: tuple <n1> ... <nr>");
    }
    NodeTuple tuple;
    for (std::size_t i = 1; i < tokens.size(); i++) {
      auto v = graph.FindNode(tokens[i]);
      if (!v.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": unknown node '" + tokens[i] + "'");
      }
      tuple.push_back(v.value());
    }
    if (arity == 0) {
      arity = tuple.size();
    } else if (tuple.size() != arity) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": inconsistent tuple arity");
    }
    tuples.push_back(std::move(tuple));
  }
  if (arity == 0) {
    return Status::InvalidArgument("relation file contains no tuples");
  }
  TupleRelation rel(arity);
  for (NodeTuple& t : tuples) {
    rel.Insert(std::move(t));
  }
  return rel;
}

Result<DataGraph> NaiveReadGraph(const std::string& text) {
  DataGraph graph;
  std::unordered_map<std::string, NodeId> nodes_by_name;
  std::istringstream is(text);
  std::string line;
  std::size_t line_number = 0;
  auto resolve = [&](const std::string& name) -> Result<NodeId> {
    auto it = nodes_by_name.find(name);
    if (it != nodes_by_name.end()) {
      return it->second;
    }
    return graph.FindNode(name);
  };
  while (std::getline(is, line)) {
    line_number++;
    std::vector<std::string> tokens = NaiveTokenize(line);
    if (NaiveSkip(tokens)) {
      continue;
    }
    auto error = [&](const std::string& msg) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + msg);
    };
    if (tokens[0] == "node") {
      if (tokens.size() != 3) {
        return error("expected: node <name> <data-value>");
      }
      if (nodes_by_name.count(tokens[1]) > 0) {
        return error("duplicate node '" + tokens[1] + "'");
      }
      NodeId id = graph.AddNodeWithValue(tokens[2], tokens[1]);
      nodes_by_name.emplace(tokens[1], id);
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 4) {
        return error("expected: edge <from> <label> <to>");
      }
      auto from = resolve(tokens[1]);
      if (!from.ok()) {
        return error("unknown node '" + tokens[1] + "'");
      }
      auto to = resolve(tokens[3]);
      if (!to.ok()) {
        return error("unknown node '" + tokens[3] + "'");
      }
      graph.AddEdgeByName(from.value(), tokens[2], to.value());
    } else {
      return error("unknown directive '" + tokens[0] + "'");
    }
  }
  GQD_RETURN_NOT_OK(graph.Validate());
  return graph;
}

/// Random line-oriented text over a caller-chosen vocabulary, with every
/// separator operator>> skips, CRLF endings, comments, blank lines, and a
/// missing final newline, then optionally a few byte-level mutations.
class TextFuzzer {
 public:
  explicit TextFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::size_t Below(std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng_);
  }

  const std::string& Pick(const std::vector<std::string>& from) {
    return from[Below(from.size())];
  }

  std::string Gap() {
    static const char kSpaces[] = {' ', '\t', '\r', '\v', '\f'};
    std::string gap(1, ' ');
    if (Below(3) == 0) {
      gap.clear();
      for (std::size_t i = 0, n = 1 + Below(3); i < n; i++) {
        gap += kSpaces[Below(sizeof(kSpaces))];
      }
    }
    return gap;
  }

  /// Joins `tokens` into one line with random separators, leading and
  /// trailing blanks, and a random (or no) line ending.
  void AppendLine(const std::vector<std::string>& tokens, std::string* out) {
    if (Below(4) == 0) {
      *out += Gap();
    }
    for (std::size_t i = 0; i < tokens.size(); i++) {
      *out += (i > 0 ? Gap() : "") + tokens[i];
    }
    if (Below(4) == 0) {
      *out += Gap();
    }
    *out += Below(5) == 0 ? "\r\n" : "\n";
  }

  /// One non-directive line: a comment, a blank, or whitespace only.
  void AppendFiller(std::string* out) {
    switch (Below(4)) {
      case 0:
        AppendLine({"#", "a", "comment"}, out);
        break;
      case 1:
        AppendLine({"#pair", "x", "y"}, out);
        break;
      case 2:
        *out += "\n";
        break;
      default:
        *out += Gap() + "\n";
        break;
    }
  }

  void Finish(std::string* out) {
    if (!out->empty() && out->back() == '\n' && Below(3) == 0) {
      out->pop_back();  // missing trailing newline
    }
    for (std::size_t m = Below(3) == 0 ? 1 + Below(3) : 0; m > 0; m--) {
      static const char kBytes[] = {' ', '\t', '\n', '\r', '\v', '\f',
                                    '#', 'x', '1', '\0'};
      std::size_t at = out->empty() ? 0 : Below(out->size() + 1);
      switch (Below(3)) {
        case 0:
          out->insert(out->begin() + static_cast<std::ptrdiff_t>(at),
                      kBytes[Below(sizeof(kBytes))]);
          break;
        case 1:
          if (at < out->size()) {
            out->erase(at, 1);
          }
          break;
        default:
          if (at < out->size()) {
            (*out)[at] = kBytes[Below(sizeof(kBytes))];
          }
          break;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

/// The three graph shapes relation files are parsed against: every node
/// named, every node anonymous, and a mix in which stored names shadow the
/// "#<id>" form ("#2" names node 0 while node 2 is anonymous) and some
/// "#<id>" addresses a named node (which must not resolve).
std::vector<DataGraph> ParserTestGraphs() {
  std::vector<DataGraph> graphs;
  DataGraph named;
  named.AddDataValue("0");
  for (const char* name : {"alice", "bob", "cam", "dee", "eve"}) {
    named.AddNode(0, name);
  }
  graphs.push_back(std::move(named));
  DataGraph anonymous;
  anonymous.AddDataValue("0");
  for (int i = 0; i < 6; i++) {
    anonymous.AddNode(0);
  }
  graphs.push_back(std::move(anonymous));
  DataGraph mixed;
  mixed.AddDataValue("0");
  mixed.AddNode(0, "#2");
  mixed.AddNode(0, "bob");
  mixed.AddNode(0);
  mixed.AddNode(0);
  mixed.AddNode(0, "#9");
  graphs.push_back(std::move(mixed));
  return graphs;
}

/// Node-name tokens: near misses plus every display name of the graph,
/// the latter weighted so most generated lines resolve.
std::vector<std::string> NameVocabulary(const DataGraph& graph) {
  std::vector<std::string> names = {"#0",  "#1", "#2",  "#3",  "#01",
                                    "#99", "#",  "#-1", "#1x", "nosuch",
                                    "#4294967296"};
  for (int copy = 0; copy < 4; copy++) {
    for (NodeId v = 0; v < graph.NumNodes(); v++) {
      names.push_back(graph.NodeName(v));
    }
  }
  return names;
}

template <typename T>
void ExpectSameResult(const Result<T>& naive, const Result<T>& scanned,
                      const std::string& text) {
  ASSERT_EQ(naive.ok(), scanned.ok())
      << "naive: " << naive.status() << "\nscanned: " << scanned.status()
      << "\ninput: " << ::testing::PrintToString(text);
  if (naive.ok()) {
    EXPECT_TRUE(naive.value() == scanned.value())
        << ::testing::PrintToString(text);
  } else {
    EXPECT_EQ(naive.status().code(), scanned.status().code());
    EXPECT_EQ(naive.status().message(), scanned.status().message())
        << ::testing::PrintToString(text);
  }
}

TEST(SerializationDiff, RelationPairsMatchNaiveReader) {
  TextFuzzer fuzz(11);
  const std::vector<std::string> keywords = {"pair", "pair", "pair",
                                             "pair", "Pair", "pairs",
                                             "tuple", "node"};
  std::size_t accepted = 0;
  for (const DataGraph& graph : ParserTestGraphs()) {
    std::vector<std::string> names = NameVocabulary(graph);
    for (int round = 0; round < 1500; round++) {
      std::string text;
      for (std::size_t line = 0, n = fuzz.Below(7); line < n; line++) {
        if (fuzz.Below(3) == 0) {
          fuzz.AppendFiller(&text);
          continue;
        }
        std::vector<std::string> tokens = {
            fuzz.Below(6) == 0 ? fuzz.Pick(keywords) : "pair"};
        std::size_t arity = fuzz.Below(8) == 0 ? 1 + fuzz.Below(3) : 2;
        for (std::size_t i = 0; i < arity; i++) {
          tokens.push_back(fuzz.Pick(names));
        }
        fuzz.AppendLine(tokens, &text);
      }
      fuzz.Finish(&text);
      auto naive = NaiveReadPairs(graph, text);
      accepted += naive.ok() ? 1 : 0;
      ExpectSameResult(naive, ReadRelationPairsText(graph, text), text);
    }
  }
  // The vocabulary must exercise the accepting path, not only errors.
  EXPECT_GT(accepted, 500u) << accepted;
}

TEST(SerializationDiff, TupleRelationsMatchNaiveReader) {
  TextFuzzer fuzz(12);
  std::size_t accepted = 0;
  for (const DataGraph& graph : ParserTestGraphs()) {
    std::vector<std::string> names = NameVocabulary(graph);
    for (int round = 0; round < 1500; round++) {
      std::string text;
      std::size_t arity = 1 + fuzz.Below(3);
      for (std::size_t line = 0, n = fuzz.Below(6); line < n; line++) {
        if (fuzz.Below(3) == 0) {
          fuzz.AppendFiller(&text);
          continue;
        }
        std::vector<std::string> tokens = {fuzz.Below(8) == 0 ? "pair"
                                                              : "tuple"};
        std::size_t width = fuzz.Below(6) == 0 ? fuzz.Below(4) : arity;
        for (std::size_t i = 0; i < width; i++) {
          tokens.push_back(fuzz.Pick(names));
        }
        fuzz.AppendLine(tokens, &text);
      }
      fuzz.Finish(&text);
      auto naive = NaiveReadTuples(graph, text);
      accepted += naive.ok() ? 1 : 0;
      ExpectSameResult(naive, ReadTupleRelationText(graph, text), text);
    }
  }
  EXPECT_GT(accepted, 300u) << accepted;
}

TEST(SerializationDiff, GraphTextMatchesNaiveReader) {
  TextFuzzer fuzz(13);
  const std::vector<std::string> names = {"u", "v", "w", "#0", "#1", "x"};
  const std::vector<std::string> directives = {"node", "edge", "nodes",
                                               "Edge", "pair"};
  std::size_t accepted = 0;
  for (int round = 0; round < 4000; round++) {
    std::string text;
    for (std::size_t line = 0, n = fuzz.Below(9); line < n; line++) {
      if (fuzz.Below(4) == 0) {
        fuzz.AppendFiller(&text);
        continue;
      }
      std::vector<std::string> tokens;
      bool node = line < 3 ? fuzz.Below(4) != 0 : fuzz.Below(3) == 0;
      std::size_t arity = node ? 2 : 3;
      if (fuzz.Below(10) == 0) {
        tokens.push_back(fuzz.Pick(directives));
        arity = 1 + fuzz.Below(4);
      } else {
        tokens.push_back(node ? "node" : "edge");
      }
      for (std::size_t i = 0; i < arity; i++) {
        // Middle token of an edge is a label; last of a node a value.
        bool name = node ? i == 0 : i != 1;
        tokens.push_back(name ? fuzz.Pick(names)
                              : std::string(1, "ab01"[fuzz.Below(4)]));
      }
      fuzz.AppendLine(tokens, &text);
    }
    fuzz.Finish(&text);
    auto naive = NaiveReadGraph(text);
    auto scanned = ReadGraphText(text);
    ASSERT_EQ(naive.ok(), scanned.ok())
        << "naive: " << naive.status() << "\nscanned: " << scanned.status()
        << "\ninput: " << ::testing::PrintToString(text);
    if (naive.ok()) {
      accepted++;
      EXPECT_EQ(WriteGraphText(naive.value()), WriteGraphText(scanned.value()))
          << ::testing::PrintToString(text);
    } else {
      EXPECT_EQ(naive.status().message(), scanned.status().message())
          << ::testing::PrintToString(text);
    }
  }
  EXPECT_GT(accepted, 500u) << accepted;
}

TEST(SerializationDiff, NameIndexKeepsFindNodePrecedence) {
  std::vector<DataGraph> graphs = ParserTestGraphs();
  const DataGraph& mixed = graphs[2];
  NodeNameIndex index(mixed);
  for (const std::string& name : NameVocabulary(mixed)) {
    auto found = mixed.FindNode(name);
    std::optional<NodeId> indexed = index.Find(name);
    ASSERT_EQ(found.ok(), indexed.has_value()) << name;
    if (found.ok()) {
      EXPECT_EQ(found.value(), *indexed) << name;
    }
  }
  EXPECT_EQ(index.Find("#2"), std::optional<NodeId>(0));  // stored name wins
  EXPECT_EQ(index.Find("#3"), std::optional<NodeId>(3));  // anonymous by id
  EXPECT_EQ(index.Find("#1"), std::nullopt);  // node 1 is named "bob"

  // Graphs built through the API are not validated, so a name can repeat;
  // FindNode's scan returns the first such node, and so must the index.
  DataGraph repeated;
  repeated.AddDataValue("0");
  repeated.AddNode(0, "x");
  repeated.AddNode(0, "dup");
  repeated.AddNode(0, "dup");
  EXPECT_EQ(NodeNameIndex(repeated).Find("dup"), std::optional<NodeId>(1));
  EXPECT_EQ(repeated.FindNode("dup").ValueOrDie(), 1u);
}

}  // namespace
}  // namespace gqd
