// Relation intake: the cost of reading a check request's relation text
// (`pair <u> <v>` lines) against the graph it is checked on.
//
// The shape is the serving benchmark's large check: a 300×300 grid ("a"
// east, "b" south) and 90k pairs. The anonymous leg addresses nodes as
// "#<id>", as relations over generated graphs do; the named leg gives every
// node a stored name, so each lookup goes through the name index. The
// NamedSide sweep (10k and 40k nodes, one pair per node) shows the named
// parse staying linear in pairs + nodes.
//
//   build/bench/bench_relation_intake --benchmark_min_time=0.2

#include <benchmark/benchmark.h>

#include <string>

#include "graph/data_graph.h"
#include "graph/serialization.h"

namespace gqd {
namespace {

/// A side×side grid; nodes are named "r<row>c<col>" when `named`.
DataGraph Grid(std::size_t side, bool named) {
  DataGraph graph;
  graph.AddDataValue("0");
  for (std::size_t r = 0; r < side; r++) {
    for (std::size_t c = 0; c < side; c++) {
      graph.AddNode(0, named ? "r" + std::to_string(r) + "c" +
                                   std::to_string(c)
                             : std::string());
    }
  }
  LabelId east = graph.AddLabel("a");
  LabelId south = graph.AddLabel("b");
  for (std::size_t v = 0; v < side * side; v++) {
    if ((v + 1) % side != 0) {
      graph.AddEdge(static_cast<NodeId>(v), east, static_cast<NodeId>(v + 1));
    }
    if (v + side < side * side) {
      graph.AddEdge(static_cast<NodeId>(v), south,
                    static_cast<NodeId>(v + side));
    }
  }
  return graph;
}

/// One pair per node, v → a pseudo-random partner, in display names.
std::string PairsText(const DataGraph& graph) {
  std::size_t n = graph.NumNodes();
  std::string text;
  for (std::size_t v = 0; v < n; v++) {
    std::size_t partner = (v * 7919 + 1) % n;
    text += "pair " + graph.NodeName(static_cast<NodeId>(v)) + " " +
            graph.NodeName(static_cast<NodeId>(partner)) + "\n";
  }
  return text;
}

void RunIntake(benchmark::State& state, std::size_t side, bool named) {
  DataGraph graph = Grid(side, named);
  std::string text = PairsText(graph);
  std::size_t pairs = 0;
  for (auto _ : state) {
    auto parsed = ReadRelationPairsText(graph, text);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().ToString().c_str());
      return;
    }
    pairs = parsed.value().size();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["nodes"] = static_cast<double>(graph.NumNodes());
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ReadRelationPairsText(benchmark::State& state, bool named) {
  RunIntake(state, 300, named);
}
BENCHMARK_CAPTURE(BM_ReadRelationPairsText, anonymous, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ReadRelationPairsText, named, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ReadRelationPairsText_NamedSide(benchmark::State& state) {
  RunIntake(state, static_cast<std::size_t>(state.range(0)), true);
}
BENCHMARK(BM_ReadRelationPairsText_NamedSide)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace gqd
