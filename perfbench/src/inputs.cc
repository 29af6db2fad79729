#include "inputs.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace perfbench {
namespace {

using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

std::vector<std::string> LabelNames(std::size_t count) {
  static const char* kLetters[] = {"a", "b", "c", "d"};
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; i++) {
    names.push_back(i < 4 ? kLetters[i] : "l" + std::to_string(i));
  }
  return names;
}

std::vector<std::uint32_t> RandomWord(Rng& rng, std::size_t num_labels,
                                      std::size_t min_len,
                                      std::size_t max_len) {
  std::vector<std::uint32_t> word(rng.Range(min_len, max_len));
  for (auto& letter : word) {
    letter = static_cast<std::uint32_t>(rng.Below(num_labels));
  }
  return word;
}

/// Random labelled graph with `delta` data values and about
/// `edges_per_node` out-edges per node.
GenGraph RandomGraph(std::uint64_t seed, std::size_t n,
                     std::size_t num_labels, std::size_t delta,
                     double edges_per_node) {
  Rng rng(seed);
  GenGraph g;
  g.n = n;
  g.labels = LabelNames(num_labels);
  for (std::size_t v = 0; v < n; v++) {
    g.values.push_back(static_cast<std::uint32_t>(rng.Below(delta)));
  }
  std::size_t m = static_cast<std::size_t>(edges_per_node *
                                           static_cast<double>(n));
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  while (g.edges.size() < m) {
    auto u = static_cast<std::uint32_t>(rng.Below(n));
    auto l = static_cast<std::uint32_t>(rng.Below(num_labels));
    auto v = static_cast<std::uint32_t>(rng.Below(n));
    if (seen.emplace(u, l, v).second) {
      g.edges.push_back({u, l, v});
    }
  }
  return g;
}

/// Label-local banded graph: band b's out-edges all carry label b.
GenGraph BandedGraph(std::size_t n, std::size_t bands, std::size_t delta) {
  GenGraph g;
  g.n = n;
  for (std::size_t b = 0; b < bands; b++) {
    g.labels.push_back("l" + std::to_string(b));
  }
  for (std::size_t v = 0; v < n; v++) {
    g.values.push_back(static_cast<std::uint32_t>(v % delta));
  }
  for (std::size_t u = 0; u < n; u++) {
    auto label = static_cast<std::uint32_t>(u * bands / n);
    g.edges.push_back({static_cast<std::uint32_t>(u), label,
                       static_cast<std::uint32_t>((u + 1) % n)});
    g.edges.push_back({static_cast<std::uint32_t>(u), label,
                       static_cast<std::uint32_t>((u * 7 + 3) % n)});
  }
  return g;
}

/// w×h grid: label a steps right, label b steps down.
GenGraph GridGraph(std::size_t w, std::size_t h) {
  GenGraph g;
  g.n = w * h;
  g.labels = LabelNames(2);
  for (std::size_t y = 0; y < h; y++) {
    for (std::size_t x = 0; x < w; x++) {
      g.values.push_back(static_cast<std::uint32_t>((x + y) % 4));
      auto v = static_cast<std::uint32_t>(y * w + x);
      if (x + 1 < w) {
        g.edges.push_back({v, 0, v + 1});
      }
      if (y + 1 < h) {
        g.edges.push_back({v, 1, static_cast<std::uint32_t>(v + w)});
      }
    }
  }
  return g;
}

/// Preferential-attachment graph with `m` out-edges per node.
GenGraph ScaleFreeGraph(std::uint64_t seed, std::size_t n, std::size_t m,
                        std::size_t num_labels, std::size_t delta) {
  Rng rng(seed);
  GenGraph g;
  g.n = n;
  g.labels = LabelNames(num_labels);
  // Endpoint list: picking a uniform entry picks a node with probability
  // proportional to its degree.
  std::vector<std::uint32_t> endpoints;
  for (std::size_t v = 0; v < n; v++) {
    g.values.push_back(static_cast<std::uint32_t>(rng.Below(delta)));
    for (std::size_t j = 0; j < m && v > 0; j++) {
      auto target = endpoints.empty()
                        ? 0u
                        : endpoints[rng.Below(endpoints.size())];
      auto label = static_cast<std::uint32_t>(rng.Below(num_labels));
      g.edges.push_back({static_cast<std::uint32_t>(v), label, target});
      endpoints.push_back(target);
    }
    endpoints.push_back(static_cast<std::uint32_t>(v));
  }
  return g;
}

/// Node display name: "v<i>" for text graphs, "#<i>" for the anonymous
/// nodes of containers.
std::string NodeName(std::uint32_t v, bool anonymous) {
  return (anonymous ? "#" : "v") + std::to_string(v);
}

/// "pair <u> <v>" lines, sorted and deduplicated.
std::string RelationText(Pairs pairs, bool anonymous) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::string out;
  out.reserve(20 * pairs.size());
  for (const auto& [u, v] : pairs) {
    out += "pair " + NodeName(u, anonymous) + " " + NodeName(v, anonymous) +
           "\n";
  }
  return out;
}

/// R_w: pairs joined by a path spelling `word` (label ids).
Pairs WordPairs(const GenGraph& g, const std::vector<std::uint32_t>& word) {
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> out(g.n);
  for (const auto& e : g.edges) {
    out[e.from].emplace_back(e.label, e.to);
  }
  Pairs pairs;
  std::vector<char> mark(g.n, 0);
  for (std::uint32_t start = 0; start < g.n; start++) {
    std::vector<std::uint32_t> frontier = {start};
    for (std::uint32_t letter : word) {
      std::vector<std::uint32_t> next;
      for (std::uint32_t u : frontier) {
        for (const auto& [label, v] : out[u]) {
          if (label == letter && !mark[v]) {
            mark[v] = 1;
            next.push_back(v);
          }
        }
      }
      for (std::uint32_t v : next) {
        mark[v] = 0;
      }
      frontier = std::move(next);
    }
    for (std::uint32_t v : frontier) {
      pairs.emplace_back(start, v);
    }
  }
  return pairs;
}

/// `count` distinct random pairs.
Pairs RandomPairs(std::uint64_t seed, std::size_t n, std::size_t count) {
  Rng rng(seed);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  count = std::min(count, n * n);
  while (seen.size() < count) {
    seen.emplace(static_cast<std::uint32_t>(rng.Below(n)),
                 static_cast<std::uint32_t>(rng.Below(n)));
  }
  return Pairs(seen.begin(), seen.end());
}

/// Keeps the pairs whose endpoints carry equal (or distinct) values.
Pairs FilterByValue(const GenGraph& g, const Pairs& pairs, bool equal) {
  Pairs out;
  for (const auto& [u, v] : pairs) {
    if ((g.values[u] == g.values[v]) == equal) {
      out.emplace_back(u, v);
    }
  }
  return out;
}

/// A relation for a pool instance: a word relation (definable by
/// construction for RPQ), its equal-value restriction, or that with a few
/// random pairs mixed in (usually not definable).
Pairs PoolRelation(std::uint64_t seed, const GenGraph& g, int shape) {
  Rng rng(seed);
  std::vector<std::uint32_t> word = RandomWord(rng, g.labels.size(), 1, 3);
  Pairs pairs = WordPairs(g, word);
  if (shape == 1) {
    pairs = FilterByValue(g, pairs, true);
  }
  if (shape == 2) {
    Pairs extra = RandomPairs(seed ^ 0x5bd1e995, g.n, 2);
    pairs.insert(pairs.end(), extra.begin(), extra.end());
  }
  if (pairs.empty()) {
    pairs = RandomPairs(seed ^ 0x9e37, g.n, 3);
  }
  return pairs;
}

CheckInstance MakeInstance(std::string id, std::string checker, int k,
                           GenGraph graph, const Pairs& pairs,
                           std::uint64_t max_tuples) {
  CheckInstance inst;
  inst.id = std::move(id);
  inst.checker = std::move(checker);
  inst.k = k;
  inst.graph = std::move(graph);
  inst.relation_text = RelationText(pairs, false);
  inst.max_tuples = max_tuples;
  return inst;
}

/// Random regular expression over `letters` (depth-bounded).
std::string RandomRegex(Rng& rng, std::size_t num_labels, int depth) {
  static const char* kLetters[] = {"a", "b", "c"};
  std::string letter = kLetters[rng.Below(num_labels)];
  if (depth == 0) {
    return letter;
  }
  switch (rng.Below(5)) {
    case 0:
      return letter;
    case 1:
      return "(" + RandomRegex(rng, num_labels, depth - 1) + "|" +
             RandomRegex(rng, num_labels, depth - 1) + ")";
    case 2:
      return RandomRegex(rng, num_labels, depth - 1) + "." +
             RandomRegex(rng, num_labels, depth - 1);
    case 3:
      return "(" + RandomRegex(rng, num_labels, depth - 1) + ")+";
    default:
      return "(" + RandomRegex(rng, num_labels, depth - 1) + ")*";
  }
}

/// Random REE: a regex skeleton with =/!= restrictions on sub-terms.
std::string RandomRee(Rng& rng, std::size_t num_labels, int depth) {
  std::string inner = RandomRegex(rng, num_labels, depth);
  switch (rng.Below(3)) {
    case 0:
      return "(" + inner + ")=";
    case 1:
      return "(" + inner + ")!=";
    default:
      return "((" + RandomRegex(rng, num_labels, depth - 1) + ")!= " +
             RandomRegex(rng, num_labels, depth - 1) + ")=";
  }
}

/// Random REM with one or two registers.
std::string RandomRem(Rng& rng, std::size_t num_labels, int depth) {
  const char* cond = rng.Chance(0.5) ? "[r1=]" : "[r1!=]";
  if (rng.Chance(0.6)) {
    return "$r1. (" + RandomRegex(rng, num_labels, depth) + ")" + cond;
  }
  return "$r1. " + RandomRegex(rng, num_labels, depth - 1) + " $r2. (" +
         RandomRegex(rng, num_labels, depth - 1) + ")[r2!=] (" +
         RandomRegex(rng, num_labels, 0) + ")" + cond;
}

}  // namespace

std::string GraphText(const GenGraph& g) {
  std::string out;
  out.reserve(24 * (g.n + g.edges.size()));
  for (std::size_t v = 0; v < g.n; v++) {
    out += "node v" + std::to_string(v) + " d" +
           std::to_string(g.values[v]) + "\n";
  }
  for (const auto& e : g.edges) {
    out += "edge v" + std::to_string(e.from) + " " + g.labels[e.label] +
           " v" + std::to_string(e.to) + "\n";
  }
  return out;
}

std::uint64_t GraphHash(const GenGraph& g) {
  std::uint64_t h = Fnv1a64(std::to_string(g.n));
  for (const auto& label : g.labels) {
    h = Fnv1a64(label + ",", h);
  }
  h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(g.values.data()),
                               g.values.size() * sizeof(std::uint32_t)),
              h);
  for (const auto& e : g.edges) {
    std::uint32_t words[3] = {e.from, e.label, e.to};
    h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(words),
                                 sizeof(words)),
                h);
  }
  return h;
}

std::string CheckInstance::Digest() const {
  std::uint64_t h = GraphHash(graph);
  h = Fnv1a64(checker + "/" + std::to_string(k) + "/" +
                  std::to_string(max_tuples) + "/" +
                  std::to_string(max_bytes) + "/",
              h);
  return Hex64(Fnv1a64(relation_text, h));
}

std::string EvalDigest(std::uint64_t graph_hash, const EvalQuery& q) {
  return Hex64(Fnv1a64(q.language + "/" + q.text, graph_hash));
}

std::vector<CheckInstance> CheckServePool() {
  // 35 instances: with an equal number of samples per instance, the
  // nearest-rank p50 and p90 (ranks 17.5 and 31.5 of 35) fall mid-block
  // rather than on the boundary between two instances' latencies.
  std::vector<CheckInstance> pool;
  const std::size_t rpq_n[] = {16, 20, 24, 28, 32, 32, 24};
  for (std::size_t i = 0; i < 7; i++) {
    GenGraph g = RandomGraph(1000 + i, rpq_n[i], 2, 3, 1.5);
    Pairs s = PoolRelation(2000 + i, g, static_cast<int>(i % 3));
    pool.push_back(MakeInstance("rpq-" + std::to_string(i), "rpq", 0,
                                std::move(g), s, 20'000));
  }
  for (std::size_t i = 0; i < 7; i++) {
    std::size_t delta = 2 + i % 3;
    GenGraph g = RandomGraph(1100 + i, 8, 2, delta, 1.5);
    Pairs s = PoolRelation(2100 + i, g, static_cast<int>(i % 3));
    pool.push_back(MakeInstance("krem1-" + std::to_string(i), "krem", 1,
                                std::move(g), s, 20'000));
  }
  for (std::size_t i = 0; i < 7; i++) {
    std::size_t n = 5 + i % 3;
    GenGraph g = RandomGraph(1200 + i, n, 2, 3, 1.5);
    Pairs s = PoolRelation(2200 + i, g, static_cast<int>(i % 3));
    pool.push_back(MakeInstance("krem2-" + std::to_string(i), "krem", 2,
                                std::move(g), s, 20'000));
  }
  for (std::size_t i = 0; i < 6; i++) {
    std::size_t delta = 3 + i % 2;
    GenGraph g = RandomGraph(1300 + i, 8, 2, delta, 1.5);
    Pairs s = PoolRelation(2300 + i, g, static_cast<int>(i % 3));
    pool.push_back(MakeInstance("ree-" + std::to_string(i), "ree", 0,
                                std::move(g), s, 1'500));
  }
  const std::size_t ucrdpq_n[] = {8, 12, 16, 20, 24, 24, 10};
  for (std::size_t i = 0; i < 7; i++) {
    GenGraph g = RandomGraph(1400 + i, ucrdpq_n[i], 2, 4, 1.5);
    Pairs s = PoolRelation(2400 + i, g, static_cast<int>(i % 3));
    pool.push_back(MakeInstance("ucrdpq-" + std::to_string(i), "ucrdpq", 0,
                                std::move(g), s, 200'000));
  }
  {
    // The banded n=128, 16-label planned-dispatch instance.
    GenGraph g = BandedGraph(128, 16, 15);
    Pairs s = RandomPairs(2500, 128, 128 * 128 * 15 / 100);
    pool.push_back(MakeInstance("banded-0", "krem", 1, std::move(g), s,
                                1'000));
  }
  return pool;
}

std::vector<GenGraph> RoutedGraphPool() {
  std::vector<GenGraph> pool;
  for (std::size_t i = 0; i < 8; i++) {
    pool.push_back(RandomGraph(3000 + i, 10 + i % 3, 2, 4, 1.2));
  }
  return pool;
}

std::vector<EvalQuery> RoutedQueries() {
  return {
      {"rpq", "a+"},
      {"rpq", "a.b"},
      {"rpq", "(a|b)*.a"},
      {"rpq", "b+.a"},
      {"rem", "$r1. a+ [r1=]"},
      {"rem", "$r1. (a|b)+ [r1!=]"},
      {"rem", "$r1. a.b [r1=]"},
      {"rem", "$r1. b $r2. a+ [r2!=] b [r1=]"},
      {"ree", "(a.a)="},
      {"ree", "(a+)!="},
      {"ree", "((a)!= (b)!=)!="},
      {"ree", "((a|b)+)="},
  };
}

std::vector<CheckInstance> RoutedChecks(const std::vector<GenGraph>& graphs) {
  std::vector<CheckInstance> checks;
  for (std::size_t i = 0; i < graphs.size(); i++) {
    Pairs s = PoolRelation(3100 + i, graphs[i], static_cast<int>(i % 3));
    checks.push_back(MakeInstance("routed-rpq-" + std::to_string(i), "rpq", 0,
                                  graphs[i], s, 2'000));
  }
  return checks;
}

std::vector<GenGraph> ColdGraphPool() {
  std::vector<GenGraph> pool;
  for (std::size_t i = 0; i < 8; i++) {
    pool.push_back(RandomGraph(4000 + i, 100 + 100 * i / 7, 3, 6, 3.0));
  }
  return pool;
}

std::vector<EvalQuery> ColdQueries() {
  Rng rng(4100);
  std::vector<EvalQuery> queries;
  std::set<std::string> seen;
  while (queries.size() < 400) {
    EvalQuery q;
    std::size_t slot = queries.size() % 10;
    if (slot < 6) {
      q = {"rpq", RandomRegex(rng, 3, 3)};
    } else if (slot < 8) {
      q = {"rem", RandomRem(rng, 3, 2)};
    } else {
      q = {"ree", RandomRee(rng, 3, 2)};
    }
    if (seen.insert(q.language + q.text).second) {
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

CheckInstance LargeGridInstance() {
  CheckInstance inst;
  inst.id = "grid-300";
  inst.checker = "rpq";
  inst.graph = GridGraph(300, 300);
  inst.relation_text = RelationText(WordPairs(inst.graph, {0, 1}), true);
  return inst;
}

CheckInstance LargeScaleFreeInstance(std::size_t pool_index) {
  CheckInstance inst;
  inst.id = "scalefree-" + std::to_string(pool_index);
  inst.checker = "rpq";
  inst.graph = ScaleFreeGraph(5000 + pool_index, 8192, 4, 2, 8);
  inst.relation_text =
      RelationText(RandomPairs(5100 + pool_index, 8192, 90'000), true);
  inst.max_bytes = std::uint64_t{32} << 20;
  return inst;
}

std::string CheckLine(const CheckInstance& inst, const std::string& graph,
                      std::uint64_t id) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"cmd\":\"check\",\"graph\":" + JsonQuote(graph) +
                     ",\"checker\":\"" + inst.checker + "\"";
  if (inst.checker == "krem") {
    line += ",\"k\":" + std::to_string(inst.k);
  }
  if (inst.max_tuples > 0) {
    line += ",\"max_tuples\":" + std::to_string(inst.max_tuples);
  }
  if (inst.max_bytes > 0) {
    line += ",\"max_bytes\":" + std::to_string(inst.max_bytes);
  }
  return line + ",\"relation\":" + JsonQuote(inst.relation_text) + "}";
}

std::string EvalLine(const std::string& graph, const EvalQuery& q,
                     std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"cmd\":\"eval\",\"graph\":" + JsonQuote(graph) +
         ",\"language\":\"" + q.language + "\",\"query\":" +
         JsonQuote(q.text) + "}";
}

std::string BatchLine(const std::string& graph,
                      const std::vector<EvalQuery>& queries,
                      std::uint64_t id) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"cmd\":\"eval\",\"graph\":" + JsonQuote(graph) +
                     ",\"language\":\"" + queries.front().language +
                     "\",\"queries\":[";
  for (std::size_t i = 0; i < queries.size(); i++) {
    line += (i == 0 ? "" : ",") + JsonQuote(queries[i].text);
  }
  return line + "]}";
}

std::string LoadTextLine(const std::string& name, const std::string& text,
                         std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"cmd\":\"load\",\"name\":" + JsonQuote(name) +
         ",\"text\":" + JsonQuote(text) + "}";
}

std::string LoadPathLine(const std::string& name, const std::string& path,
                         std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"cmd\":\"load\",\"name\":" + JsonQuote(name) +
         ",\"path\":" + JsonQuote(path) + "}";
}

}  // namespace perfbench
