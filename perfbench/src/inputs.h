// Benchmark inputs. Everything here is generated by the benchmark's own
// code from fixed pool seeds or the run seed; the program under test only
// ever sees the resulting graph text, containers, relation text and query
// strings.

#ifndef GQD_PERFBENCH_INPUTS_H_
#define GQD_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

struct GenGraph {
  struct Edge {
    std::uint32_t from;
    std::uint32_t label;
    std::uint32_t to;
  };
  std::size_t n = 0;
  std::vector<std::string> labels;
  std::vector<std::uint32_t> values;  ///< data value id per node
  std::vector<Edge> edges;
};

/// "node v<i> d<value>" / "edge v<u> <label> v<v>" text.
std::string GraphText(const GenGraph& g);

/// One definability instance of a pinned pool.
struct CheckInstance {
  std::string id;       ///< stable key in the pin file
  std::string checker;  ///< rpq | krem | ree | ucrdpq
  int k = 0;            ///< krem only
  GenGraph graph;
  std::string relation_text;
  std::uint64_t max_tuples = 0;
  std::uint64_t max_bytes = 0;
  /// Input digest: pins are only valid for the exact input they were made
  /// from, so a drifted generator fails loudly instead of silently.
  std::string Digest() const;
};

struct EvalQuery {
  std::string language;  ///< rpq | rem | ree
  std::string text;
};

/// check-serve: 35 small-to-medium instances of all four checkers.
std::vector<CheckInstance> CheckServePool();

/// eval-routed: 8 small shard graphs, 12 eval templates over labels a,b
/// and one tiny rpq check per graph.
std::vector<GenGraph> RoutedGraphPool();
std::vector<EvalQuery> RoutedQueries();
std::vector<CheckInstance> RoutedChecks(const std::vector<GenGraph>& graphs);

/// eval-cold: 8 graphs of 100-200 nodes over labels a,b,c and a pool of
/// distinct rpq/rem/ree queries.
std::vector<GenGraph> ColdGraphPool();
std::vector<EvalQuery> ColdQueries();

/// check-large: the 300x300 grid with its a.b word relation, and one of
/// four 8192-node scale-free graphs (picked by the run seed) with a
/// blocked-range random relation checked under a byte budget.
CheckInstance LargeGridInstance();
CheckInstance LargeScaleFreeInstance(std::size_t pool_index);
inline constexpr std::size_t kLargeScaleFreePool = 4;

/// Content hash of a graph's text form.
std::uint64_t GraphHash(const GenGraph& g);
/// Digest of an eval input (graph hash + language + query).
std::string EvalDigest(std::uint64_t graph_hash, const EvalQuery& q);

/// Request lines. The id comes first so a wrapping handler can read it
/// without parsing the line.
std::string CheckLine(const CheckInstance& inst, const std::string& graph,
                      std::uint64_t id);
std::string EvalLine(const std::string& graph, const EvalQuery& q,
                     std::uint64_t id);
/// One batched eval; every query shares the first query's language.
std::string BatchLine(const std::string& graph,
                      const std::vector<EvalQuery>& queries,
                      std::uint64_t id);
std::string LoadTextLine(const std::string& name, const std::string& text,
                         std::uint64_t id);
std::string LoadPathLine(const std::string& name, const std::string& path,
                         std::uint64_t id);

}  // namespace perfbench

#endif  // GQD_PERFBENCH_INPUTS_H_
