#include "definability/ucrdpq_definability.h"

#include <cassert>
#include <cstdint>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_ucrdpq_search, "ucrdpq.search");

/// Enumerates tuples of V^arity in lexicographic order via an odometer.
bool NextTuple(NodeTuple* tuple, std::size_t n) {
  for (std::size_t i = tuple->size(); i-- > 0;) {
    if (++(*tuple)[i] < n) {
      return true;
    }
    (*tuple)[i] = 0;
  }
  return false;
}

/// Pins consistent with the tuple pattern: positions of t with equal nodes
/// must receive equal images (they pin the same CSP variable).
bool BuildPins(const NodeTuple& source, const NodeTuple& image,
               std::vector<std::pair<NodeId, NodeId>>* pins) {
  pins->clear();
  for (std::size_t i = 0; i < source.size(); i++) {
    for (const auto& [node, pinned] : *pins) {
      if (node == source[i] && pinned != image[i]) {
        return false;  // contradictory pin: h(v) can't be two nodes
      }
    }
    pins->emplace_back(source[i], image[i]);
  }
  return true;
}

/// How the seeds of one check ended (ucrdpq.search span attributes).
struct SeedCounts {
  std::size_t pruned = 0;    ///< a pinned value is absent from the base
  std::size_t wiped = 0;     ///< propagating the pins wiped a domain
  std::size_t searched = 0;  ///< reached the backtracking search
};

/// Accounted bytes of the prepared homomorphism CSP of an n-node graph
/// with `constraints` constraints: each constraint's allowed matrix and
/// support rows, the build's image-pair matrices (one per label plus two
/// for data values), and three domain vectors (the CSP's own, the
/// propagated base and the per-seed copy).
std::uint64_t HomomorphismCspBytes(std::size_t n, std::size_t labels,
                                   std::size_t constraints) {
  std::uint64_t word = sizeof(std::uint64_t);
  std::uint64_t domains_bytes = std::uint64_t{n} * ((n + 63) / 64) * word;
  std::uint64_t matrix_bytes = (std::uint64_t{n} * n + 63) / 64 * word;
  return (constraints + labels + 2) * matrix_bytes +
         CspSolver::SupportRowBytes(constraints, n) + 3 * domains_bytes;
}

/// The seed loop of Lemma 34: for each t ∈ S and each t' ∉ S, pin
/// h(t) = t' on a copy of the base domains, propagate from the pinned
/// variables and search. Sets result->verdict, or returns an error.
Status SearchSeeds(const DataGraph& graph, const TupleRelation& relation,
                   const UcrdpqDefinabilityOptions& options,
                   CspSolver* solver, const std::vector<DynamicBitset>& base,
                   UcrdpqDefinabilityResult* result, SeedCounts* counts) {
  const std::size_t n = graph.NumNodes();
  const bool use_ac3 = options.csp.use_ac3;
  std::vector<std::pair<NodeId, NodeId>> pins;
  std::vector<std::size_t> pinned_vars;
  std::vector<DynamicBitset> domains;
  for (const NodeTuple& source : relation.tuples()) {
    NodeTuple image(relation.arity(), 0);
    do {
      if (relation.Contains(image)) {
        continue;  // h(t) ∈ S is not a violation
      }
      if (!BuildPins(source, image, &pins)) {
        continue;  // incompatible with h being a function
      }
      // Each seeded search may be too small to reach the CSP engine's
      // strided cancel poll, so the seed loop polls the deadline itself.
      if (options.csp.cancel != nullptr && options.csp.cancel->Expired()) {
        return options.csp.cancel->Check();
      }
      if (GQD_FAILPOINT_FIRED(fp_ucrdpq_search)) {
        return Status::ResourceExhausted(
            "injected seeded-search failure (failpoint ucrdpq.search)");
      }
      // Counted as a tried seed however it ends — seeds_tried is pinned by
      // the differential tests.
      result->seeds_tried++;
      // A pin wipes a domain at once exactly when the base lacks the pinned
      // value, so probe the base before copying it.
      bool absent = false;
      for (const auto& [node, pinned] : pins) {
        if (!base[node].Test(pinned)) {
          absent = true;
          break;
        }
      }
      if (absent) {
        counts->pruned++;
        continue;
      }
      domains = base;
      pinned_vars.clear();
      for (const auto& [node, pinned] : pins) {
        domains[node].Clear();
        domains[node].Set(pinned);
        pinned_vars.push_back(node);
      }
      if (use_ac3 &&
          !solver->Propagate(&domains, pinned_vars, &result->csp_stats)) {
        counts->wiped++;
        continue;
      }
      counts->searched++;
      auto solved = solver->Solve(domains, options.csp, &result->csp_stats);
      if (!solved.ok()) {
        if (solved.status().code() == StatusCode::kResourceExhausted) {
          result->verdict = DefinabilityVerdict::kBudgetExhausted;
          if (options.csp.budget != nullptr &&
              options.csp.budget->Exhausted()) {
            result->partial = PartialProgress{
                result->csp_stats.nodes_expanded, result->seeds_tried,
                options.csp.budget->bytes_peak(), "ucrdpq-csp"};
          }
          return Status::OK();
        }
        return solved.status();
      }
      if (solved.value().has_value()) {
        NodeMapping mapping(solved.value()->begin(), solved.value()->end());
        assert(IsDataGraphHomomorphism(graph, mapping));
        result->verdict = DefinabilityVerdict::kNotDefinable;
        result->violating_homomorphism = std::move(mapping);
        result->violated_tuple = source;
        return Status::OK();
      }
    } while (NextTuple(&image, n));
  }
  result->verdict = DefinabilityVerdict::kDefinable;
  return Status::OK();
}

}  // namespace

Result<UcrdpqDefinabilityResult> CheckUcrdpqDefinability(
    const DataGraph& graph, const TupleRelation& relation,
    const UcrdpqDefinabilityOptions& options) {
  std::size_t n = graph.NumNodes();
  UcrdpqDefinabilityResult result;
  if (relation.empty()) {
    // Vacuously preserved by every homomorphism; definable (e.g. by a
    // CRDPQ with an unsatisfiable atom such as x -(eps)≠-> x... any query
    // with empty answer works).
    result.verdict = DefinabilityVerdict::kDefinable;
    return result;
  }

  GQD_TRACE_SPAN(search_span, "ucrdpq.search");
  // Charge each allocation before making it; a byte cap that cannot hold
  // the CSP stops the check before it is built.
  const ResourceBudget* budget = options.csp.budget;
  auto over_budget = [&](std::uint64_t bytes) {
    if (budget == nullptr) {
      return false;
    }
    budget->ChargeBytes(static_cast<std::int64_t>(bytes));
    if (!budget->Exhausted()) {
      return false;
    }
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    result.partial = PartialProgress{0, 0, budget->bytes_peak(), "ucrdpq-csp"};
    return true;
  };
  // Build and prepare the homomorphism CSP once, and make its domains
  // arc-consistent once; each seed pins a copy of those domains.
  Csp csp;
  std::optional<CspSolver> solver;
  std::vector<DynamicBitset> base;
  {
    GQD_TRACE_SPAN(build_span, "ucrdpq.build_csp");
    if (over_budget(n * ((n + 63) / 64) * sizeof(std::uint64_t))) {
      return result;
    }
    BinaryRelation reach = Reachability(graph);
    std::size_t constraints = reach.Count() - n;
    GQD_TRACE_SPAN_ATTR(build_span, "variables", n);
    GQD_TRACE_SPAN_ATTR(build_span, "constraints", constraints);
    if (over_budget(
            HomomorphismCspBytes(n, graph.NumLabels(), constraints))) {
      return result;
    }
    csp = BuildHomomorphismCsp(graph, reach);
    solver.emplace(csp);
    base = csp.domains;
    // The identity is a homomorphism, so the base never wipes out.
    if (options.csp.use_ac3) {
      bool consistent = solver->PropagateAll(&base, &result.csp_stats);
      assert(consistent);
      (void)consistent;
    }
  }
  SeedCounts counts;
  Status status = SearchSeeds(graph, relation, options, &*solver, base,
                              &result, &counts);
  GQD_TRACE_SPAN_ATTR(search_span, "seeds_tried", result.seeds_tried);
  GQD_TRACE_SPAN_ATTR(search_span, "seeds_pruned", counts.pruned);
  GQD_TRACE_SPAN_ATTR(search_span, "seeds_wiped", counts.wiped);
  GQD_TRACE_SPAN_ATTR(search_span, "seeds_searched", counts.searched);
  GQD_RETURN_NOT_OK(status);
  return result;
}

Result<UcrdpqDefinabilityResult> CheckUcrdpqDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const UcrdpqDefinabilityOptions& options) {
  return CheckUcrdpqDefinability(graph, TupleRelation::FromBinary(relation),
                                 options);
}

Result<UcrdpqDefinabilityResult> CheckUcrdpqDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const UcrdpqDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  // TupleRelation's std::set iterates row-major — the same order
  // TupleRelation::FromBinary produces from a dense relation, so the seed
  // loop (and with it seeds_tried and any violation witness) is identical.
  TupleRelation tuples(2);
  for (const auto& [u, v] : relation.Pairs()) {
    tuples.Insert({u, v});
  }
  return CheckUcrdpqDefinability(graph, tuples, options);
}

}  // namespace gqd
