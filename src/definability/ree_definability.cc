#include "definability/ree_definability.h"

#include <cstdint>
#include <vector>

#include "analysis/plan/kernel_class.h"
#include "analysis/plan/plan_metrics.h"
#include "common/failpoint.h"
#include "definability/small_relation.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_ree_closure, "ree.closure");

/// Policy for the generic level algorithm over plain BinaryRelations.
/// With `masks` set, the =/≠ restrictions run rowized (one word-parallel
/// AND / AND-NOT per row against the source node's value class); with
/// `masks == nullptr` they run the retained per-bit reference loops. With
/// `diagonal` set (all value classes singletons) they run the diagonal
/// forms instead, counting executions into `diagonal_hits`.
struct BigRelationOps {
  using Rel = BinaryRelation;
  using Hash = BinaryRelationHash;

  const DataGraph* graph;
  const ValueClassMasks* masks;
  bool diagonal = false;
  std::uint64_t* diagonal_hits = nullptr;

  Rel Empty() const { return BinaryRelation(graph->NumNodes()); }
  Rel Identity() const { return BinaryRelation::Identity(graph->NumNodes()); }
  Rel FromLabel(LabelId a) const {
    return BinaryRelation::FromEdges(*graph, a);
  }
  Rel Compose(const Rel& a, const Rel& b) const { return a.Compose(b); }
  Rel Eq(const Rel& a) const {
    if (diagonal) {
      (*diagonal_hits)++;
      return a.EqRestrictDiagonal();
    }
    return masks != nullptr ? a.EqRestrict(*masks) : a.EqRestrict(*graph);
  }
  Rel Neq(const Rel& a) const {
    if (diagonal) {
      (*diagonal_hits)++;
      return a.NeqRestrictDiagonal();
    }
    return masks != nullptr ? a.NeqRestrict(*masks) : a.NeqRestrict(*graph);
  }
  bool Subset(const Rel& a, const Rel& b) const { return a.IsSubsetOf(b); }
  void UnionInto(Rel* a, const Rel& b) const { a->UnionWith(b); }
  bool Equal(const Rel& a, const Rel& b) const { return a == b; }
  /// Actual bytes one materialized relation costs (budget accounting):
  /// dense rows are fixed-size, so the n²-bit matrix is exact.
  std::size_t ElementBytes(const Rel& /*rel*/) const {
    std::size_t n = graph->NumNodes();
    return sizeof(Rel) + n * ((n + 63) / 64) * sizeof(std::uint64_t);
  }
};

/// Policy over blocked (array/bitmap container) relations — what the
/// AdaptiveRelation overload runs on for non-dense backends. Every
/// operation produces the same *set* the dense ops produce, and the monoid
/// interner is semantic (hash + Equal), so the closure enumerates the same
/// elements in the same order: verdict, levels_used, monoid_size and the
/// synthesized expression are identical to the dense engines. Compose
/// streams per-source frontiers through one n-bit scratch row instead of
/// materializing an n² intermediate.
struct BlockedRelationOps {
  using Rel = BlockedBinaryRelation;
  using Hash = BlockedBinaryRelationHash;

  const DataGraph* graph;
  const ValueClassMasks* masks;

  Rel Empty() const { return BlockedBinaryRelation(graph->NumNodes()); }
  Rel Identity() const {
    return BlockedBinaryRelation::Identity(graph->NumNodes());
  }
  Rel FromLabel(LabelId a) const {
    return BlockedBinaryRelation::FromEdges(*graph, a);
  }
  Rel Compose(const Rel& a, const Rel& b) const { return a.Compose(b); }
  Rel Eq(const Rel& a) const { return a.EqRestrict(*masks); }
  Rel Neq(const Rel& a) const { return a.NeqRestrict(*masks); }
  bool Subset(const Rel& a, const Rel& b) const { return a.IsSubsetOf(b); }
  void UnionInto(Rel* a, const Rel& b) const { a->UnionWith(b); }
  bool Equal(const Rel& a, const Rel& b) const { return a == b; }
  /// Actual per-element budget charge: blocked rows size with content, so
  /// the container's own heap accounting is the honest cost — a
  /// near-empty relation charges a few rows, a dense-ish one its bitmap
  /// blocks. Byte-budget trip points are therefore representation-exact,
  /// not a nominal per-element constant.
  std::size_t ElementBytes(const Rel& rel) const {
    return sizeof(Rel) + rel.ByteSize();
  }
};

/// Policy over packed 64-bit relations (n ≤ 8) — same algorithm, ~10-50×
/// cheaper per operation (the E9 ablation).
struct SmallRelationOps {
  using Rel = SmallRelation;
  using Hash = std::hash<std::uint64_t>;

  const SmallRelationSpace* space;

  Rel Empty() const { return space->Empty(); }
  Rel Identity() const { return space->Identity(); }
  Rel FromLabel(LabelId a) const { return space->FromLabel(a); }
  Rel Compose(Rel a, Rel b) const { return space->Compose(a, b); }
  Rel Eq(Rel a) const { return space->EqRestrict(a); }
  Rel Neq(Rel a) const { return space->NeqRestrict(a); }
  bool Subset(Rel a, Rel b) const { return space->IsSubsetOf(a, b); }
  void UnionInto(Rel* a, Rel b) const { *a |= b; }
  bool Equal(Rel a, Rel b) const { return a == b; }
  std::size_t ElementBytes(Rel /*rel*/) const { return sizeof(Rel); }
};

/// How a monoid element was derived. The closure attempts |M|·|gens|
/// compositions but inserts only |M| of them, so REE ASTs are *not* built
/// eagerly per attempt — each element records this five-word recipe and the
/// few elements the greedy cover actually uses are materialized at the end.
struct Derivation {
  enum class Kind : std::uint8_t { kEpsilon, kLetter, kConcat, kEq, kNeq };
  Kind kind = Kind::kEpsilon;
  std::uint32_t a = 0;  ///< left/only operand element index
  std::uint32_t b = 0;  ///< kConcat: right operand index; kLetter: label id
};

/// The level algorithm (Definition 27 / Lemmas 28-31), generic over the
/// relation representation. See the header for the algebraic argument
/// (distribution of ∘ and =/≠ over +) that reduces levels to a ∘-monoid
/// with generator-only closure.
template <typename Ops>
Result<ReeDefinabilityResult> RunLevelAlgorithm(
    const Ops& ops, const typename Ops::Rel& target, bool target_empty,
    std::size_t num_nodes, std::size_t num_labels,
    const std::vector<std::string>& label_names,
    const ReeDefinabilityOptions& options) {
  using Rel = typename Ops::Rel;
  std::size_t max_levels =
      options.max_levels > 0 ? options.max_levels : num_nodes * num_nodes;
  ReeDefinabilityResult result;
  GQD_TRACE_SPAN(algorithm_span, "ree.level_algorithm");
  GQD_TRACE_SPAN_ATTR(algorithm_span, "nodes", num_nodes);
  GQD_TRACE_SPAN_ATTR(algorithm_span, "labels", num_labels);

  // The monoid: distinct relations, each with one derivation recipe. The
  // interner is open-addressed over stored hashes — probes compare against
  // elements[slot] directly, so a relation is never copied into a map key.
  std::vector<Rel> elements;
  std::vector<Derivation> derivations;
  std::vector<std::size_t> hashes;
  std::vector<std::size_t> slots(64, 0);  // index+1, 0 = empty; pow-2 size
  // Generator bookkeeping: right-multiplication by generators alone
  // enumerates the ∘-semigroup (every element is a generator product),
  // making the closure |M|·|gens| instead of |M|².
  std::vector<std::size_t> gens;
  std::vector<bool> is_gen;
  std::vector<std::size_t> applied;

  // The monoid cap reuses ResourceBudget accounting: the bytes axis caps
  // the *actual* representation size of the interned elements (exact for
  // dense, the container's heap footprint for blocked), the tuples axis
  // keeps the legacy element-count cap. Tripping either stops the closure
  // with a partial-progress verdict, exactly like an options.budget trip.
  const ResourceBudget monoid_budget(options.max_monoid_bytes,
                                     options.max_monoid_size);
  // Interner bookkeeping per element (hash, slot, derivation, flags).
  const std::size_t bookkeeping_bytes =
      3 * sizeof(std::size_t) + sizeof(Derivation);

  auto add_element = [&](Rel rel, Derivation derivation) -> std::size_t {
    std::size_t hash = typename Ops::Hash{}(rel);
    std::size_t mask = slots.size() - 1;
    std::size_t pos = hash & mask;
    while (slots[pos] != 0) {
      std::size_t index = slots[pos] - 1;
      if (hashes[index] == hash && ops.Equal(elements[index], rel)) {
        return index;
      }
      pos = (pos + 1) & mask;
    }
    std::size_t index = elements.size();
    elements.push_back(std::move(rel));
    derivations.push_back(derivation);
    hashes.push_back(hash);
    applied.push_back(0);
    is_gen.push_back(false);
    slots[pos] = index + 1;
    const std::size_t element_bytes =
        ops.ElementBytes(elements.back()) + bookkeeping_bytes;
    monoid_budget.ChargeBytes(static_cast<std::int64_t>(element_bytes));
    monoid_budget.ChargeTuples(1);
    if (options.budget != nullptr) {
      options.budget->ChargeBytes(static_cast<std::int64_t>(element_bytes));
      options.budget->ChargeTuples(1);
    }
    if ((elements.size() + 1) * 4 > slots.size() * 3) {
      std::vector<std::size_t> bigger(slots.size() * 2, 0);
      std::size_t bigger_mask = bigger.size() - 1;
      for (std::size_t i = 0; i < elements.size(); i++) {
        std::size_t p = hashes[i] & bigger_mask;
        while (bigger[p] != 0) {
          p = (p + 1) & bigger_mask;
        }
        bigger[p] = i + 1;
      }
      slots.swap(bigger);
    }
    return index;
  };
  auto add_generator = [&](Rel rel, Derivation derivation) {
    std::size_t i = add_element(std::move(rel), derivation);
    if (!is_gen[i]) {
      is_gen[i] = true;
      gens.push_back(i);
    }
  };

  add_generator(ops.Identity(), Derivation{Derivation::Kind::kEpsilon, 0, 0});
  for (LabelId a = 0; a < num_labels; a++) {
    add_generator(ops.FromLabel(a),
                  Derivation{Derivation::Kind::kLetter, 0, a});
  }

  std::uint32_t ticks = 0;
  std::uint32_t budget_ticks = 0;
  bool expired = false;
  bool injected = false;
  bool budget_tripped = false;
  bool monoid_tripped = false;
  auto close = [&]() -> bool {
    GQD_TRACE_SPAN(round_span, "ree.closure_round");
    GQD_TRACE_SPAN_ATTR(round_span, "elements_before", elements.size());
    if (GQD_FAILPOINT_FIRED(fp_ree_closure)) {
      injected = true;
      return false;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < elements.size(); i++) {
        while (applied[i] < gens.size()) {
          if (GQD_CANCEL_STRIDE_CHECK(options.cancel, ticks)) {
            expired = true;
            return false;
          }
          if (GQD_BUDGET_STRIDE_CHECK(options.budget, budget_ticks)) {
            budget_tripped = true;
            return false;
          }
          std::size_t g = gens[applied[i]++];
          std::size_t before = elements.size();
          add_element(ops.Compose(elements[i], elements[g]),
                      Derivation{Derivation::Kind::kConcat,
                                 static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(g)});
          if (elements.size() > before) {
            progress = true;
          }
          if (elements.size() > before && monoid_budget.Exhausted()) {
            monoid_tripped = true;
            return false;
          }
        }
      }
    }
    return true;
  };

  // Maps a failed close() to the corresponding outcome: cancellation,
  // injected fault, ResourceBudget trip, or the monoid byte/count cap —
  // both budget paths report partial progress.
  auto closure_failure = [&]() -> Result<ReeDefinabilityResult> {
    if (expired) {
      return options.cancel->Check();
    }
    if (injected) {
      return Status::ResourceExhausted(
          "injected monoid closure failure (failpoint ree.closure)");
    }
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    result.monoid_size = elements.size();
    if (budget_tripped || (options.budget != nullptr &&
                           options.budget->Exhausted())) {
      result.partial =
          PartialProgress{elements.size(), result.levels_used,
                          options.budget->bytes_peak(), "ree-closure"};
    } else if (monoid_tripped || monoid_budget.Exhausted()) {
      result.partial =
          PartialProgress{elements.size(), result.levels_used,
                          monoid_budget.bytes_peak(), "ree-monoid"};
    }
    return result;
  };

  if (!close()) {
    return closure_failure();
  }
  for (std::size_t level = 0; level < max_levels; level++) {
    GQD_TRACE_SPAN(level_span, "ree.level");
    GQD_TRACE_SPAN_ATTR(level_span, "level", level);
    std::size_t before = elements.size();
    for (std::size_t i = 0; i < before; i++) {
      if (GQD_CANCEL_STRIDE_CHECK(options.cancel, ticks)) {
        return options.cancel->Check();
      }
      add_generator(ops.Eq(elements[i]),
                    Derivation{Derivation::Kind::kEq,
                               static_cast<std::uint32_t>(i), 0});
      add_generator(ops.Neq(elements[i]),
                    Derivation{Derivation::Kind::kNeq,
                               static_cast<std::uint32_t>(i), 0});
      if (GQD_BUDGET_STRIDE_CHECK(options.budget, budget_ticks)) {
        budget_tripped = true;
        return closure_failure();
      }
      if (monoid_budget.Exhausted()) {
        monoid_tripped = true;
        return closure_failure();
      }
    }
    if (elements.size() == before) {
      break;
    }
    result.levels_used = level + 1;
    if (!close()) {
      return closure_failure();
    }
  }
  result.monoid_size = elements.size();
  GQD_TRACE_SPAN_ATTR(algorithm_span, "monoid_size", elements.size());
  GQD_TRACE_SPAN_ATTR(algorithm_span, "levels_used", result.levels_used);

  // Decision (Lemma 30) + greedy synthesis.
  GQD_TRACE_SPAN(synthesis_span, "ree.synthesize");
  Rel covered = ops.Empty();
  std::vector<std::size_t> cover;
  for (std::size_t i = 0; i < elements.size(); i++) {
    if (!ops.Subset(elements[i], target)) {
      continue;
    }
    Rel merged = covered;
    ops.UnionInto(&merged, elements[i]);
    if (!ops.Equal(merged, covered)) {
      covered = merged;
      cover.push_back(i);
    }
    if (ops.Equal(covered, target)) {
      break;
    }
  }
  if (!ops.Equal(covered, target)) {
    result.verdict = DefinabilityVerdict::kNotDefinable;
    return result;
  }
  result.verdict = DefinabilityVerdict::kDefinable;
  if (target_empty) {
    result.defining_expression = ree::Neq(ree::Epsilon());
    return result;
  }

  // Materialize the cover members' recipes as REE ASTs (iteratively — a
  // concat chain's depth can approach the monoid size). Shared subtrees
  // materialize once via the memo.
  std::vector<ReePtr> memo(elements.size());
  std::vector<std::size_t> stack;
  std::vector<ReePtr> cover_exprs;
  for (std::size_t root : cover) {
    stack.push_back(root);
    while (!stack.empty()) {
      std::size_t i = stack.back();
      if (memo[i] != nullptr) {
        stack.pop_back();
        continue;
      }
      const Derivation& d = derivations[i];
      switch (d.kind) {
        case Derivation::Kind::kEpsilon:
          memo[i] = ree::Epsilon();
          break;
        case Derivation::Kind::kLetter:
          memo[i] = ree::Letter(label_names[d.b]);
          break;
        case Derivation::Kind::kConcat:
          if (memo[d.a] == nullptr) {
            stack.push_back(d.a);
          } else if (memo[d.b] == nullptr) {
            stack.push_back(d.b);
          } else {
            memo[i] = ree::Concat({memo[d.a], memo[d.b]});
          }
          break;
        case Derivation::Kind::kEq:
          if (memo[d.a] == nullptr) {
            stack.push_back(d.a);
          } else {
            memo[i] = ree::Eq(memo[d.a]);
          }
          break;
        case Derivation::Kind::kNeq:
          if (memo[d.a] == nullptr) {
            stack.push_back(d.a);
          } else {
            memo[i] = ree::Neq(memo[d.a]);
          }
          break;
      }
      if (memo[i] != nullptr) {
        stack.pop_back();
      }
    }
    cover_exprs.push_back(memo[root]);
  }
  result.defining_expression = ree::Union(std::move(cover_exprs));
  return result;
}

}  // namespace

Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const ReeDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  const std::vector<std::string>& label_names = graph.labels().names();
  if (options.engine == ReeEngine::kReference) {
    BigRelationOps ops{&graph, nullptr};
    return RunLevelAlgorithm(ops, relation, relation.Empty(),
                             graph.NumNodes(), graph.NumLabels(), label_names,
                             options);
  }
  if (graph.NumNodes() <= 8 && graph.NumNodes() > 0) {
    SmallRelationSpace space(graph);
    SmallRelationOps ops{&space};
    return RunLevelAlgorithm(ops, space.Pack(relation), relation.Empty(),
                             graph.NumNodes(), graph.NumLabels(), label_names,
                             options);
  }
  ValueClassMasks masks(graph);
  if (masks.AllSingletons()) {
    // Planned diagonal kernel: ρ is injective, so the =/≠ restrictions
    // never need the class masks. Flush executions into the plan metrics
    // once, alongside the k-REM checker's kernel-class hits.
    std::uint64_t diagonal_hits = 0;
    BigRelationOps ops{&graph, &masks, /*diagonal=*/true, &diagonal_hits};
    Result<ReeDefinabilityResult> result = RunLevelAlgorithm(
        ops, relation, relation.Empty(), graph.NumNodes(), graph.NumLabels(),
        label_names, options);
    if (diagonal_hits != 0) {
      std::uint64_t hits[kNumKernelClasses] = {};
      hits[static_cast<std::size_t>(TransitionKernelClass::kDiagonal)] =
          diagonal_hits;
      RecordPlanKernelHits(hits);
    }
    return result;
  }
  BigRelationOps ops{&graph, &masks};
  return RunLevelAlgorithm(ops, relation, relation.Empty(),
                           graph.NumNodes(), graph.NumLabels(), label_names,
                           options);
}

Result<ReeDefinabilityResult> CheckReeDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const ReeDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  if (relation.backend() == RelationBackend::kDense) {
    return CheckReeDefinability(graph, relation.dense(), options);
  }
  BlockedBinaryRelation converted;
  const BlockedBinaryRelation* target = &converted;
  if (relation.backend() == RelationBackend::kBlocked) {
    target = &relation.blocked();
  } else {
    converted = BlockedBinaryRelation::FromPairs(graph.NumNodes(),
                                                 relation.Pairs());
  }
  ValueClassMasks masks(graph);
  BlockedRelationOps ops{&graph, &masks};
  return RunLevelAlgorithm(ops, *target, relation.Empty(),
                           graph.NumNodes(), graph.NumLabels(),
                           graph.labels().names(), options);
}

}  // namespace gqd
