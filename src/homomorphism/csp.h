// A small binary-CSP engine: backtracking search with AC-3 propagation and
// minimum-remaining-values ordering.
//
// CspSolver prepares a Csp once — per-variable arc lists plus word-aligned
// forward and reverse support rows per constraint — so a revision tests a
// value's support with one row/domain intersection, and AC-3 can resume from
// just the variables whose domains narrowed. SolveCsp and
// EnumerateCspSolutions are thin wrappers over it.
//
// This is the decision procedure behind UCRDPQ-definability (Theorem 35):
// finding a data-graph homomorphism is an instance of a binary CSP whose
// variables are the graph's nodes and whose domain is also the node set.
// The engine is generic so tests can exercise it on plain CSPs too.

#ifndef GQD_HOMOMORPHISM_CSP_H_
#define GQD_HOMOMORPHISM_CSP_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/budget.h"
#include "common/cancel.h"
#include "common/status.h"

namespace gqd {

/// A binary constraint between two variables: the set of allowed value
/// pairs, stored row-major (allowed[x * domain + y]).
struct BinaryConstraint {
  std::size_t var_a;
  std::size_t var_b;
  DynamicBitset allowed;  ///< size = domain_size², bit (a_val*D + b_val).

  bool Allows(std::uint32_t a_value, std::uint32_t b_value,
              std::size_t domain_size) const {
    return allowed.Test(a_value * domain_size + b_value);
  }
};

/// A binary CSP over `num_variables` variables sharing one value domain.
struct Csp {
  std::size_t num_variables = 0;
  std::size_t domain_size = 0;
  /// Initial per-variable domains (callers may pre-restrict, e.g. seeds).
  std::vector<DynamicBitset> domains;
  std::vector<BinaryConstraint> constraints;

  /// Creates a CSP with full domains.
  static Csp Full(std::size_t num_variables, std::size_t domain_size);

  /// Adds a constraint between two distinct variables; `allowed` must have
  /// domain_size² bits. (Restrict a domain for a unary constraint.)
  void AddConstraint(std::size_t var_a, std::size_t var_b,
                     DynamicBitset allowed);

  /// Restricts variable `var` to exactly `value`.
  void Pin(std::size_t var, std::uint32_t value);
};

/// Search statistics (exposed for the E9 ablation bench).
struct CspStats {
  std::size_t nodes_expanded = 0;   ///< backtracking tree nodes visited
  std::size_t propagations = 0;     ///< AC-3 arc revisions (queued arcs only)
};

/// Options controlling the solver.
struct CspOptions {
  bool use_ac3 = true;             ///< propagate with AC-3 at every node
  std::size_t max_nodes = 10'000'000;  ///< search budget
  /// Optional cooperative cancellation: the backtracking search polls this
  /// token and returns Status::DeadlineExceeded once it expires.
  const CancelToken* cancel = nullptr;
  /// Optional resource governance: each expanded node charges one tuple and
  /// the search polls for exhaustion (search memory is bounded by its
  /// depth, so only the tuple and wall-clock axes apply here; the UCRDPQ
  /// checker charges the CSP's own bytes before building it).
  const ResourceBudget* budget = nullptr;
};

/// A Csp prepared for repeated propagation and search. Build one per Csp
/// and reuse it across pins: the support rows and arc lists are built here
/// once. Not thread-safe (it owns the AC-3 work queue); `csp` must outlive
/// it and must not gain constraints afterwards.
class CspSolver {
 public:
  explicit CspSolver(const Csp& csp);

  /// Bytes of support rows a solver allocates for `num_constraints`
  /// constraints over `domain_size` values (for budget charging before
  /// construction).
  static std::uint64_t SupportRowBytes(std::size_t num_constraints,
                                       std::size_t domain_size);

  /// AC-3 to a fixpoint, starting from the arcs that revise a neighbour of
  /// a variable in `changed` against it. When `domains` were arc-consistent
  /// before those variables narrowed, the result equals AC-3 from scratch
  /// (the AC closure is unique). Returns false if some domain wiped out.
  bool Propagate(std::vector<DynamicBitset>* domains,
                 std::span<const std::size_t> changed, CspStats* stats);

  /// AC-3 from scratch: Propagate with every variable changed.
  bool PropagateAll(std::vector<DynamicBitset>* domains, CspStats* stats);

  /// Backtracking search from `domains`, which must already be
  /// arc-consistent when options.use_ac3 is set. Same results as SolveCsp.
  Result<std::optional<std::vector<std::uint32_t>>> Solve(
      const std::vector<DynamicBitset>& domains, const CspOptions& options,
      CspStats* stats);

  /// Enumerates up to `max_solutions` solutions from arc-consistent
  /// `domains` (tests/oracles only; exponential).
  Result<std::vector<std::vector<std::uint32_t>>> Enumerate(
      const std::vector<DynamicBitset>& domains, std::size_t max_solutions);

 private:
  struct Search;

  /// Arc 2c revises constraints[c].var_a against var_b; arc 2c+1 revises
  /// var_b against var_a.
  std::size_t Target(std::size_t arc) const;
  std::size_t Support(std::size_t arc) const;
  /// Removes target values whose support row misses the support domain.
  bool Revise(std::size_t arc, std::vector<DynamicBitset>* domains) const;
  void Push(std::uint32_t arc);  // no-op when already queued
  std::uint32_t Pop();
  /// Revises queued arcs to a fixpoint; empties the queue either way.
  bool Drain(std::vector<DynamicBitset>* domains, CspStats* stats);

  const Csp& csp_;
  std::size_t row_words_;
  /// Per variable v: the arcs whose support variable is v.
  std::vector<std::vector<std::uint32_t>> arcs_from_;
  /// Arc k's support rows at [k·D·W, (k+1)·D·W): row x (W words) holds the
  /// support-variable values compatible with target value x.
  std::vector<std::uint64_t> rows_;
  /// AC-3 work queue: a ring of at most one entry per arc.
  std::vector<std::uint32_t> queue_;
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;
  std::vector<bool> queued_;
};

/// Finds one solution, or nullopt if none (or OutOfRange if the node budget
/// is exhausted — reported via Status to distinguish "no" from "gave up").
Result<std::optional<std::vector<std::uint32_t>>> SolveCsp(
    const Csp& csp, const CspOptions& options = {}, CspStats* stats = nullptr);

/// Enumerates all solutions (tests/oracles only; exponential).
Result<std::vector<std::vector<std::uint32_t>>> EnumerateCspSolutions(
    const Csp& csp, std::size_t max_solutions = 1'000'000);

}  // namespace gqd

#endif  // GQD_HOMOMORPHISM_CSP_H_
