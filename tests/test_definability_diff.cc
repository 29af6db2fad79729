// Differential tests for the specialized successor kernels.
//
// The k-REM and REE checkers each keep two engines: the planned engine
// (dispatch-table specialized inner loops over rowized bitset adjacency /
// packed relations, incremental subset unions) and the reference engine
// (the shape of the original per-successor, from-scratch implementation).
// Both explore in the same canonical order, so on every input they must
// agree not just on the verdict but on the exact exploration cost and the
// exact synthesized witnesses — which is what these tests pin down over
// randomized small instances, alongside bit-identical results across tuple
// stores, relation backends and storage backends. The UCRDPQ checker is
// also held against a brute-force homomorphism oracle.

#include <chrono>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "definability/ucrdpq_definability.h"
#include "eval/rem_eval.h"
#include "eval/ree_eval.h"
#include "graph/generators.h"
#include "graph/sparse_relation.h"
#include "ree/parser.h"
#include "storage/container.h"
#include "storage/graph_store.h"

namespace gqd {
namespace {

struct RandomCase {
  DataGraph graph;
  BinaryRelation relation;
  std::size_t k;
};

/// A deterministic family of small instances: n ≤ 6, k ≤ 2, varying label
/// and value counts. Small enough to finish in milliseconds, varied enough
/// to hit definable, non-definable and budget-exhausted outcomes.
RandomCase MakeCase(std::uint64_t seed) {
  std::size_t n = 3 + seed % 4;  // 3..6
  DataGraph graph = RandomDataGraph({.num_nodes = n,
                                     .num_labels = 1 + seed % 2,
                                     .num_data_values = 2 + seed % 2,
                                     .edge_percent =
                                         static_cast<std::uint32_t>(
                                             30 + 5 * (seed % 4)),
                                     .seed = seed});
  BinaryRelation relation = RandomRelation(n, 25, seed * 7 + 1);
  return RandomCase{std::move(graph), std::move(relation), seed % 3};
}

bool SameBlocks(const std::vector<BasicRemBlock>& a,
                const std::vector<BasicRemBlock>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); i++) {
    if (a[i].store_mask != b[i].store_mask || a[i].label != b[i].label ||
        a[i].condition != b[i].condition) {
      return false;
    }
  }
  return true;
}

void ExpectSameKRemResult(const KRemDefinabilityResult& a,
                          const KRemDefinabilityResult& b,
                          std::uint64_t seed) {
  EXPECT_EQ(a.verdict, b.verdict) << "seed " << seed;
  EXPECT_EQ(a.tuples_explored, b.tuples_explored) << "seed " << seed;
  ASSERT_EQ(a.witnesses.size(), b.witnesses.size()) << "seed " << seed;
  for (std::size_t w = 0; w < a.witnesses.size(); w++) {
    EXPECT_EQ(a.witnesses[w].from, b.witnesses[w].from) << "seed " << seed;
    EXPECT_EQ(a.witnesses[w].to, b.witnesses[w].to) << "seed " << seed;
    EXPECT_TRUE(SameBlocks(a.witnesses[w].blocks, b.witnesses[w].blocks))
        << "seed " << seed << " witness " << w;
  }
}

TEST(KRemDiff, KernelMatchesReferenceOnRandomGraphs) {
  // The planned engine's specialized kernels compute the same pattern-part
  // bits as the reference engine, so both must agree on verdicts,
  // witnesses and exploration cost exactly.
  for (std::uint64_t seed = 1; seed <= 24; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions planned, reference;
    planned.max_tuples = reference.max_tuples = 20'000;
    planned.engine = KRemEngine::kPlanned;
    reference.engine = KRemEngine::kReference;
    auto a = CheckKRemDefinability(c.graph, c.relation, c.k, planned);
    auto b = CheckKRemDefinability(c.graph, c.relation, c.k, reference);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    ExpectSameKRemResult(a.value(), b.value(), seed);

    // Witness validity: the union of the evaluated witnesses must be
    // exactly S (Lemma 21's characterization, checked end to end).
    if (a.value().verdict == DefinabilityVerdict::kDefinable) {
      BinaryRelation defined(c.graph.NumNodes());
      for (const KRemWitness& witness : a.value().witnesses) {
        RemPtr e = BasicRemFromBlocks(witness.blocks, c.k, c.graph.labels());
        BinaryRelation rel = EvaluateRem(c.graph, e);
        EXPECT_TRUE(rel.Test(witness.from, witness.to)) << "seed " << seed;
        defined.UnionWith(rel);
      }
      EXPECT_EQ(defined, c.relation) << "seed " << seed;
    }
  }
}

TEST(KRemDiff, DeadlineHonoredBeforeSearch) {
  RandomCase c = MakeCase(1);
  CancelToken expired(std::chrono::nanoseconds(0));
  KRemDefinabilityOptions options;
  options.cancel = &expired;
  auto r = CheckKRemDefinability(c.graph, c.relation, 2, options);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ReeDiff, KernelMatchesReferenceOnSmallGraphs) {
  // n ≤ 6 exercises the packed SmallRelation path against the generic
  // per-bit reference.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    ReeDefinabilityOptions planned, reference;
    planned.max_monoid_size = reference.max_monoid_size = 20'000;
    reference.engine = ReeEngine::kReference;
    auto a = CheckReeDefinability(c.graph, c.relation, planned);
    auto b = CheckReeDefinability(c.graph, c.relation, reference);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(a.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(a.value().levels_used, b.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(a.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
    if (a.value().verdict == DefinabilityVerdict::kDefinable &&
        !c.relation.Empty()) {
      EXPECT_EQ(EvaluateRee(c.graph, a.value().defining_expression),
                c.relation)
          << "seed " << seed;
      EXPECT_EQ(EvaluateRee(c.graph, b.value().defining_expression),
                c.relation)
          << "seed " << seed;
    }
  }
}

TEST(ReeDiff, KernelMatchesReferenceOnBigGraphs) {
  // n > 8 exercises the rowized ValueClassMasks path against the per-bit
  // reference. Low density keeps the monoid small.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 10,
                                   .num_labels = 1,
                                   .num_data_values = 2,
                                   .edge_percent = 8,
                                   .seed = seed});
    BinaryRelation s = RandomRelation(10, 10, seed * 3 + 2);
    ReeDefinabilityOptions planned, reference;
    planned.max_monoid_size = reference.max_monoid_size = 20'000;
    reference.engine = ReeEngine::kReference;
    auto a = CheckReeDefinability(g, s, planned);
    auto b = CheckReeDefinability(g, s, reference);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(a.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(a.value().levels_used, b.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(a.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
  }
}

/// n nodes with pairwise-distinct data values (ρ injective — the shape the
/// planned REE engine's diagonal kernel specializes), plus deterministic
/// pseudo-random `a`-edges.
DataGraph DistinctValuesGraph(std::size_t n, std::uint64_t seed) {
  DataGraph g;
  LabelId a = g.AddLabel("a");
  for (std::size_t i = 0; i < n; i++) {
    g.AddNodeWithValue("v" + std::to_string(i), "n" + std::to_string(i));
  }
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t u = 0; u < n; u++) {
    for (std::size_t v = 0; v < n; v++) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((state >> 33) % 100 < 20) {
        g.AddEdge(static_cast<NodeId>(u), a, static_cast<NodeId>(v));
      }
    }
  }
  return g;
}

TEST(ReeDiff, PlannedDiagonalMatchesReference) {
  // n > 8 all-distinct-values graphs take the diagonal Eq/Neq kernels;
  // the planned engine must agree with the reference bit for bit.
  // Kept small: the reference oracle is quadratic per monoid element and
  // distinct-value graphs grow the monoid quickly.
  for (std::uint64_t seed = 1; seed <= 4; seed++) {
    DataGraph g = DistinctValuesGraph(9 + seed % 2, seed);
    BinaryRelation s = RandomRelation(g.NumNodes(), 10, seed * 3 + 2);
    ReeDefinabilityOptions planned, reference;
    planned.max_monoid_size = reference.max_monoid_size = 4'000;
    planned.engine = ReeEngine::kPlanned;
    reference.engine = ReeEngine::kReference;
    auto p = CheckReeDefinability(g, s, planned);
    auto b = CheckReeDefinability(g, s, reference);
    ASSERT_TRUE(p.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(p.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(p.value().levels_used, b.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(p.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
  }
}

TEST(ReeDiff, PlannedFallsBackWhenValuesRepeat) {
  // Repeated data values (ρ not injective) disable the diagonal kernel;
  // the planned engine's class-mask path must match the reference.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 10,
                                   .num_labels = 1,
                                   .num_data_values = 2,
                                   .edge_percent = 8,
                                   .seed = seed});
    BinaryRelation s = RandomRelation(10, 10, seed * 5 + 3);
    ReeDefinabilityOptions planned, reference;
    planned.max_monoid_size = reference.max_monoid_size = 20'000;
    planned.engine = ReeEngine::kPlanned;
    reference.engine = ReeEngine::kReference;
    auto p = CheckReeDefinability(g, s, planned);
    auto b = CheckReeDefinability(g, s, reference);
    ASSERT_TRUE(p.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    EXPECT_EQ(p.value().verdict, b.value().verdict) << "seed " << seed;
    EXPECT_EQ(p.value().monoid_size, b.value().monoid_size)
        << "seed " << seed;
  }
}

TEST(ReeDiff, DiagonalRestrictOverloadsAgree) {
  // On an injective-ρ graph the diagonal forms are definitionally equal to
  // the masked and per-bit restrictions, on arbitrary relations.
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    DataGraph g = DistinctValuesGraph(12, seed);
    ValueClassMasks masks(g);
    ASSERT_TRUE(masks.AllSingletons()) << "seed " << seed;
    BinaryRelation r = RandomRelation(12, 35, seed + 200);
    EXPECT_EQ(r.EqRestrictDiagonal(), r.EqRestrict(g)) << "seed " << seed;
    EXPECT_EQ(r.EqRestrictDiagonal(), r.EqRestrict(masks))
        << "seed " << seed;
    EXPECT_EQ(r.NeqRestrictDiagonal(), r.NeqRestrict(g)) << "seed " << seed;
    EXPECT_EQ(r.NeqRestrictDiagonal(), r.NeqRestrict(masks))
        << "seed " << seed;
  }
}

TEST(ReeDiff, SmallRelationBoundary) {
  // n = 8 is the last packed SmallRelation width, n = 9 the first rowized
  // one; both sides of the boundary must agree with the reference engine.
  for (std::size_t n : {8, 9}) {
    for (std::uint64_t seed = 1; seed <= 4; seed++) {
      DataGraph g = RandomDataGraph({.num_nodes = n,
                                     .num_labels = 1,
                                     .num_data_values = 2,
                                     .edge_percent = 10,
                                     .seed = seed});
      BinaryRelation s = RandomRelation(n, 12, seed * 9 + 4);
      ReeDefinabilityOptions fast, reference;
      fast.max_monoid_size = reference.max_monoid_size = 20'000;
      reference.engine = ReeEngine::kReference;
      auto a = CheckReeDefinability(g, s, fast);
      auto b = CheckReeDefinability(g, s, reference);
      ASSERT_TRUE(a.ok()) << "n " << n << " seed " << seed;
      ASSERT_TRUE(b.ok()) << "n " << n << " seed " << seed;
      EXPECT_EQ(a.value().verdict, b.value().verdict)
          << "n " << n << " seed " << seed;
      EXPECT_EQ(a.value().monoid_size, b.value().monoid_size)
          << "n " << n << " seed " << seed;
    }
  }
}

TEST(ReeDiff, RestrictOverloadsAgree) {
  // The rowized EqRestrict/NeqRestrict must equal the per-bit originals on
  // arbitrary relations, not only monoid elements.
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    DataGraph g = RandomDataGraph({.num_nodes = 12,
                                   .num_labels = 2,
                                   .num_data_values = 3,
                                   .edge_percent = 30,
                                   .seed = seed});
    ValueClassMasks masks(g);
    BinaryRelation r = RandomRelation(12, 35, seed + 100);
    EXPECT_EQ(r.EqRestrict(g), r.EqRestrict(masks)) << "seed " << seed;
    EXPECT_EQ(r.NeqRestrict(g), r.NeqRestrict(masks)) << "seed " << seed;
  }
}

// --- Relation backends: dense vs sparse vs blocked, bit-identical --------

/// The pair list of a dense relation, row-major (the canonical order every
/// adaptive representation builds from).
std::vector<std::pair<NodeId, NodeId>> PairsOf(const BinaryRelation& r) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < r.num_nodes(); u++) {
    for (NodeId v = 0; v < r.num_nodes(); v++) {
      if (r.Test(u, v)) {
        pairs.emplace_back(u, v);
      }
    }
  }
  return pairs;
}

constexpr RelationBackend kAllBackends[] = {RelationBackend::kDense,
                                            RelationBackend::kSparse,
                                            RelationBackend::kBlocked};

TEST(RelationBackendDiff, KRemIdenticalAcrossBackends) {
  // Every physical representation of the same pair set must produce the
  // dense checker's exact result — verdict, exploration count, witnesses.
  // Identity is pinned via max_tuples, never byte budgets: the stores
  // charge their actual (representation-specific) allocations, so a byte
  // budget would trip at different points.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions options;
    options.max_tuples = 20'000;
    auto dense = CheckKRemDefinability(c.graph, c.relation, c.k, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      ASSERT_EQ(adaptive.backend(), backend) << "seed " << seed;
      auto r = CheckKRemDefinability(c.graph, adaptive, c.k, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      ExpectSameKRemResult(dense.value(), r.value(), seed);
    }
  }
}

TEST(KRemDiff, SparseFrontierStoreMatchesDenseStore) {
  // The frontier-streaming tuple store explores the same canonical order
  // as the dense bitset store, so forcing each one over the same instance
  // must agree exactly — including under the sparse store's ignore-engine
  // contract.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions dense_store, sparse_store;
    dense_store.max_tuples = sparse_store.max_tuples = 20'000;
    dense_store.tuple_store = KRemTupleStore::kDense;
    sparse_store.tuple_store = KRemTupleStore::kSparseFrontier;
    auto a = CheckKRemDefinability(c.graph, c.relation, c.k, dense_store);
    auto b = CheckKRemDefinability(c.graph, c.relation, c.k, sparse_store);
    ASSERT_TRUE(a.ok()) << "seed " << seed;
    ASSERT_TRUE(b.ok()) << "seed " << seed;
    ExpectSameKRemResult(a.value(), b.value(), seed);
    // engine must be a no-op on the sparse-frontier path.
    KRemDefinabilityOptions sparse_reference = sparse_store;
    sparse_reference.engine = KRemEngine::kReference;
    auto t =
        CheckKRemDefinability(c.graph, c.relation, c.k, sparse_reference);
    ASSERT_TRUE(t.ok()) << "seed " << seed;
    ExpectSameKRemResult(a.value(), t.value(), seed);
  }
}

TEST(KRemDiff, SparseFrontierMaxTuplesTripsIdentically) {
  // A max_tuples trip is representation-independent (unlike byte budgets),
  // so both stores must stop with the same partial verdict.
  RandomCase c = MakeCase(2);
  KRemDefinabilityOptions dense_store, sparse_store;
  dense_store.max_tuples = sparse_store.max_tuples = 3;
  dense_store.tuple_store = KRemTupleStore::kDense;
  sparse_store.tuple_store = KRemTupleStore::kSparseFrontier;
  auto a = CheckKRemDefinability(c.graph, c.relation, c.k, dense_store);
  auto b = CheckKRemDefinability(c.graph, c.relation, c.k, sparse_store);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().verdict, b.value().verdict);
  EXPECT_EQ(a.value().tuples_explored, b.value().tuples_explored);
}

TEST(RelationBackendDiff, ReeIdenticalAcrossBackends) {
  // The level algorithm's semantic interner makes the blocked-relation run
  // reproduce the dense run exactly: same verdict, levels, monoid size,
  // and the same defining expression when one exists.
  for (std::uint64_t seed = 1; seed <= 16; seed++) {
    RandomCase c = MakeCase(seed);
    ReeDefinabilityOptions options;
    options.max_monoid_size = 20'000;
    auto dense = CheckReeDefinability(c.graph, c.relation, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      auto r = CheckReeDefinability(c.graph, adaptive, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().verdict, r.value().verdict)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().levels_used, r.value().levels_used)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().monoid_size, r.value().monoid_size)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      if (dense.value().verdict == DefinabilityVerdict::kDefinable &&
          !c.relation.Empty()) {
        EXPECT_EQ(ReeToString(dense.value().defining_expression),
                  ReeToString(r.value().defining_expression))
            << "seed " << seed << " backend "
            << RelationBackendName(backend);
      }
    }
  }
}

TEST(RelationBackendDiff, UcrdpqIdenticalAcrossBackends) {
  // Pair-list seeding iterates row-major — the order FromBinary produces —
  // so verdicts, seeds_tried, and any violation witness all coincide.
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    RandomCase c = MakeCase(seed);
    UcrdpqDefinabilityOptions options;
    auto dense = CheckUcrdpqDefinability(c.graph, c.relation, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      auto r = CheckUcrdpqDefinability(c.graph, adaptive, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().verdict, r.value().verdict)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().seeds_tried, r.value().seeds_tried)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().violated_tuple.has_value(),
                r.value().violated_tuple.has_value())
          << "seed " << seed;
      if (dense.value().violated_tuple.has_value() &&
          r.value().violated_tuple.has_value()) {
        EXPECT_EQ(*dense.value().violated_tuple, *r.value().violated_tuple)
            << "seed " << seed;
      }
    }
  }
}

TEST(RelationBackendDiff, RpqIdenticalAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    KRemDefinabilityOptions options;
    options.max_tuples = 20'000;
    auto dense = CheckRpqDefinability(c.graph, c.relation, options);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    for (RelationBackend backend : kAllBackends) {
      AdaptiveRelation adaptive = AdaptiveRelation::FromPairs(
          c.graph.NumNodes(), PairsOf(c.relation), backend);
      auto r = CheckRpqDefinability(c.graph, adaptive, options);
      ASSERT_TRUE(r.ok())
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().verdict, r.value().verdict)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().witness_words, r.value().witness_words)
          << "seed " << seed << " backend " << RelationBackendName(backend);
      EXPECT_EQ(dense.value().empty_relation_witness,
                r.value().empty_relation_witness)
          << "seed " << seed;
    }
  }
}

// --- Storage backends: resident vs mmap must be bit-identical -----------

/// Round-trips `graph` through a binary container and returns the mapped
/// zero-copy view (the shared_ptr keeps the mapping alive).
std::shared_ptr<const DataGraph> MapThroughContainer(const DataGraph& graph,
                                                     std::uint64_t seed) {
  std::string path = ::testing::TempDir() + "gqd_diff_" +
                     std::to_string(seed) + ".gqdg";
  Status written = WriteGraphContainer(graph, path);
  EXPECT_TRUE(written.ok()) << written;
  auto mapped = GraphStore::OpenContainer(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped.value().info.backend, GraphBackend::kMapped);
  return mapped.value().graph;
}

TEST(StorageDiff, KRemVerdictsIdenticalAcrossBackends) {
  // The checkers read the graph only through the DataGraph accessors, so a
  // zero-copy mapped view must produce the exact result of the resident
  // parse — verdicts, exploration counts and witnesses — on both engines.
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    auto mapped = MapThroughContainer(c.graph, seed);
    ASSERT_NE(mapped, nullptr);
    for (KRemEngine engine : {KRemEngine::kPlanned, KRemEngine::kReference}) {
      KRemDefinabilityOptions options;
      options.max_tuples = 20'000;
      options.engine = engine;
      auto resident = CheckKRemDefinability(c.graph, c.relation, c.k,
                                            options);
      auto view = CheckKRemDefinability(*mapped, c.relation, c.k, options);
      ASSERT_TRUE(resident.ok()) << "seed " << seed;
      ASSERT_TRUE(view.ok()) << "seed " << seed;
      ExpectSameKRemResult(resident.value(), view.value(), seed);
    }
  }
}

TEST(StorageDiff, ReeVerdictsIdenticalAcrossBackends) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    RandomCase c = MakeCase(seed);
    auto mapped = MapThroughContainer(c.graph, seed + 100);
    ASSERT_NE(mapped, nullptr);
    ReeDefinabilityOptions options;
    options.max_monoid_size = 20'000;
    auto resident = CheckReeDefinability(c.graph, c.relation, options);
    auto view = CheckReeDefinability(*mapped, c.relation, options);
    ASSERT_TRUE(resident.ok()) << "seed " << seed;
    ASSERT_TRUE(view.ok()) << "seed " << seed;
    EXPECT_EQ(resident.value().verdict, view.value().verdict)
        << "seed " << seed;
    EXPECT_EQ(resident.value().levels_used, view.value().levels_used)
        << "seed " << seed;
    EXPECT_EQ(resident.value().monoid_size, view.value().monoid_size)
        << "seed " << seed;
    // A synthesized expression evaluates identically over both backends.
    if (resident.value().verdict == DefinabilityVerdict::kDefinable &&
        !c.relation.Empty()) {
      EXPECT_EQ(EvaluateRee(*mapped, resident.value().defining_expression),
                c.relation)
          << "seed " << seed;
    }
  }
}

/// Lexicographic successor of a tuple over V^k; false after the last one.
bool NextTuple(std::vector<NodeId>* tuple, std::size_t n) {
  for (std::size_t i = tuple->size(); i-- > 0;) {
    if (++(*tuple)[i] < n) {
      return true;
    }
    (*tuple)[i] = 0;
  }
  return false;
}

NodeTuple Apply(const NodeMapping& h, const NodeTuple& t) {
  NodeTuple image(t.size());
  for (std::size_t i = 0; i < t.size(); i++) {
    image[i] = h[t[i]];
  }
  return image;
}

/// Every map V → V that passes Definition 33, by exhaustive enumeration
/// (n^n candidates): no CSP code involved.
std::vector<NodeMapping> BruteForceHomomorphisms(const DataGraph& graph) {
  std::size_t n = graph.NumNodes();
  std::vector<NodeMapping> homs;
  NodeMapping mapping(n, 0);
  do {
    if (IsDataGraphHomomorphism(graph, mapping)) {
      homs.push_back(mapping);
    }
  } while (NextTuple(&mapping, n));
  return homs;
}

/// Lemma 34 by brute force: S is UCRDPQ-definable iff every homomorphism
/// maps every tuple of S into S.
bool BruteForceDefinable(const std::vector<NodeMapping>& homs,
                         const TupleRelation& relation) {
  for (const NodeMapping& h : homs) {
    for (const NodeTuple& t : relation.tuples()) {
      if (!relation.Contains(Apply(h, t))) {
        return false;
      }
    }
  }
  return true;
}

TEST(UcrdpqDiff, MatchesBruteForceHomomorphismOracle) {
  // Random graphs with n ≤ 5, two labels and δ ≤ 3. Per graph and arity
  // 1–3: a random relation (usually not definable) and the closure of a
  // random tuple set under all homomorphisms (definable by Lemma 34).
  std::size_t definable = 0;
  std::size_t not_definable = 0;
  for (std::uint64_t seed = 1; seed <= 48; seed++) {
    std::size_t n = 2 + seed % 4;
    DataGraph graph = RandomDataGraph(
        {.num_nodes = n,
         .num_labels = 2,
         .num_data_values = 1 + seed % 3,
         .edge_percent = static_cast<std::uint32_t>(20 + 5 * (seed % 6)),
         .seed = seed});
    std::vector<NodeMapping> homs = BruteForceHomomorphisms(graph);
    SplitMix64 rng(seed * 131 + 5);
    for (std::size_t arity = 1; arity <= 3; arity++) {
      TupleRelation random(arity);
      TupleRelation closed(arity);
      std::size_t count = 1 + rng.NextBelow(4);
      for (std::size_t i = 0; i < count; i++) {
        NodeTuple t(arity);
        for (NodeId& v : t) {
          v = static_cast<NodeId>(rng.NextBelow(n));
        }
        random.Insert(t);
        for (const NodeMapping& h : homs) {
          closed.Insert(Apply(h, t));
        }
      }
      for (const TupleRelation* relation : {&random, &closed}) {
        bool expected = BruteForceDefinable(homs, *relation);
        auto result = CheckUcrdpqDefinability(graph, *relation);
        ASSERT_TRUE(result.ok()) << result.status();
        const UcrdpqDefinabilityResult& r = result.value();
        ASSERT_EQ(r.verdict, expected ? DefinabilityVerdict::kDefinable
                                      : DefinabilityVerdict::kNotDefinable)
            << "seed " << seed << " arity " << arity;
        if (expected) {
          definable++;
          continue;
        }
        not_definable++;
        ASSERT_TRUE(r.violating_homomorphism.has_value());
        ASSERT_TRUE(r.violated_tuple.has_value());
        EXPECT_TRUE(IsDataGraphHomomorphism(graph, *r.violating_homomorphism))
            << "seed " << seed << " arity " << arity;
        EXPECT_TRUE(relation->Contains(*r.violated_tuple));
        EXPECT_FALSE(relation->Contains(
            Apply(*r.violating_homomorphism, *r.violated_tuple)))
            << "seed " << seed << " arity " << arity;
      }
    }
  }
  EXPECT_GT(definable, 60u);
  EXPECT_GT(not_definable, 30u);
}

}  // namespace
}  // namespace gqd
