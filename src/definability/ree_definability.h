// RDPQ_=-definability (Section 4 of the paper): PSPACE algorithm via the
// level hierarchy of Definition 27.
//
// Key algebra (Lemma 29 + distributivity): ∘ distributes over +, and the
// =/≠ restrictions distribute over + as well:
//   (S1 + S2) ∘ T = S1∘T + S2∘T,   (S1 + S2)= = S1= + S2=.
// Hence every level L_i is exactly the set of unions of elements of a
// finite ∘-monoid M_i, where
//   M_0 = ∘-closure({S_ε} ∪ {S_a : a ∈ Σ})
//   M_i = ∘-closure(M_{i-1} ∪ {m=, m≠ : m ∈ M_{i-1}})
// and the hierarchy stabilizes within n² rounds (Lemma 28). By Lemma 30,
// S is RDPQ_=-definable iff S ∈ L_∞, i.e. iff S equals the union of all
// monoid elements contained in S.
//
// Every monoid element carries its REE derivation, so a defining REE is
// synthesized directly from a greedy cover of S (and round-trip-verified by
// tests through EvaluateRee).

#ifndef GQD_DEFINABILITY_REE_DEFINABILITY_H_
#define GQD_DEFINABILITY_REE_DEFINABILITY_H_

#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/status.h"
#include "definability/verdict.h"
#include "graph/data_graph.h"
#include "graph/relation.h"
#include "graph/sparse_relation.h"
#include "ree/ast.h"

namespace gqd {

/// Which relation machinery the level closure runs on. Both engines
/// enumerate the monoid in the same order and compute the same relations,
/// so verdicts, levels_used, monoid_size and the synthesized expression
/// are identical — the reference engine exists as a differential-testing
/// oracle for the planned engine (see tests/test_definability_diff).
enum class ReeEngine {
  /// Packed 64-bit relations when n ≤ 8, else word-parallel value-class
  /// restrictions (ValueClassMasks) over bitset rows — specialized by the
  /// query-plan analyzer to the diagonal forms when every value class is a
  /// single node (ρ injective): S= degenerates to row_u ∧ {u} and S≠ to
  /// clearing bit u, no class masks touched. The default.
  kPlanned,
  /// Generic BinaryRelation ops with per-bit =/≠ restriction loops — the
  /// shape of the original implementation, kept as an oracle.
  kReference,
};

struct ReeDefinabilityOptions {
  /// Maximum number of distinct relations to materialize in the monoid
  /// (0 = unlimited). A secondary cap; max_monoid_bytes is the primary
  /// guard because blocked-relation elements vary in size by orders of
  /// magnitude, so a count bounds memory only for dense backends.
  std::size_t max_monoid_size = 200'000;
  /// Maximum bytes of monoid storage (0 = unlimited), accounted by each
  /// element's *actual* representation size (BlockedBinaryRelation's
  /// heap footprint for sparse backends, the n²-bit matrix for dense)
  /// through an internal ResourceBudget. Tripping either monoid cap stops
  /// the closure cleanly with verdict kBudgetExhausted and a populated
  /// `partial` report (stage "ree-monoid").
  std::size_t max_monoid_bytes = std::size_t{1} << 30;
  /// Maximum restriction levels; 0 means the paper's bound n².
  std::size_t max_levels = 0;
  /// Relation machinery; kPlanned unless you are cross-checking.
  ReeEngine engine = ReeEngine::kPlanned;
  /// Optional cooperative cancellation: the level closure polls this token
  /// and returns Status::DeadlineExceeded once it expires.
  const CancelToken* cancel = nullptr;
  /// Optional resource governance: monoid insertions are charged here and
  /// the closure polls it. On exhaustion the checker stops cleanly with
  /// verdict kBudgetExhausted and a populated `partial` report.
  const ResourceBudget* budget = nullptr;
};

struct ReeDefinabilityResult {
  DefinabilityVerdict verdict = DefinabilityVerdict::kBudgetExhausted;
  /// Number of restriction levels applied before the monoid stabilized.
  std::size_t levels_used = 0;
  /// Final monoid size (the E4 bench's cost measure).
  std::size_t monoid_size = 0;
  /// A defining REE (populated iff verdict == kDefinable and S non-empty).
  ReePtr defining_expression;
  /// Set iff a budget trip stopped the closure: how far it got. Stage
  /// "ree-closure" marks an options.budget trip, "ree-monoid" a
  /// max_monoid_bytes / max_monoid_size trip.
  std::optional<PartialProgress> partial;
};

/// Decides whether `relation` is definable by an RDPQ_= on `graph`.
Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const ReeDefinabilityOptions& options = {});

/// Same decision on a density-adaptive relation. A dense backend delegates
/// to the overload above; sparse/blocked backends run the level closure on
/// blocked (array/bitmap container) relations, whose compose streams
/// per-source frontiers instead of materializing n² intermediates. The
/// monoid interner is semantic, so verdict, levels_used, monoid_size and
/// the synthesized expression are identical across backends (the `engine`
/// option only matters on the dense path).
Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const ReeDefinabilityOptions& options = {});

}  // namespace gqd

#endif  // GQD_DEFINABILITY_REE_DEFINABILITY_H_
