// Unit tests for the CSP engine and data-graph homomorphisms (Def. 33).

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "common/cancel.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "homomorphism/csp.h"
#include "homomorphism/data_graph_hom.h"

namespace gqd {
namespace {

TEST(Csp, TrivialSatisfiable) {
  Csp csp = Csp::Full(2, 3);
  // x != y.
  DynamicBitset neq(9);
  for (std::uint32_t a = 0; a < 3; a++) {
    for (std::uint32_t b = 0; b < 3; b++) {
      if (a != b) {
        neq.Set(a * 3 + b);
      }
    }
  }
  csp.AddConstraint(0, 1, neq);
  auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().has_value());
  EXPECT_NE((*solution.value())[0], (*solution.value())[1]);
}

TEST(Csp, DetectsUnsatisfiable) {
  // 3 mutually-different variables over a 2-value domain.
  Csp csp = Csp::Full(3, 2);
  DynamicBitset neq(4);
  neq.Set(0 * 2 + 1);
  neq.Set(1 * 2 + 0);
  csp.AddConstraint(0, 1, neq);
  csp.AddConstraint(1, 2, neq);
  csp.AddConstraint(0, 2, neq);
  auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution.value().has_value());
}

TEST(Csp, PinRestrictsSolution) {
  Csp csp = Csp::Full(2, 4);
  csp.Pin(0, 2);
  auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution.value().has_value());
  EXPECT_EQ((*solution.value())[0], 2u);
}

TEST(Csp, EnumerationCountsGraphColorings) {
  // Proper 3-colorings of a triangle: 3! = 6.
  Csp csp = Csp::Full(3, 3);
  DynamicBitset neq(9);
  for (std::uint32_t a = 0; a < 3; a++) {
    for (std::uint32_t b = 0; b < 3; b++) {
      if (a != b) {
        neq.Set(a * 3 + b);
      }
    }
  }
  csp.AddConstraint(0, 1, neq);
  csp.AddConstraint(1, 2, neq);
  csp.AddConstraint(0, 2, neq);
  auto solutions = EnumerateCspSolutions(csp);
  ASSERT_TRUE(solutions.ok());
  EXPECT_EQ(solutions.value().size(), 6u);
}

TEST(Csp, Ac3OffMatchesAc3On) {
  // Same solutions either way; AC-3 just prunes the search.
  for (std::uint64_t seed = 1; seed <= 6; seed++) {
    SplitMix64 rng(seed);
    Csp csp = Csp::Full(4, 4);
    for (std::size_t i = 0; i < 4; i++) {
      for (std::size_t j = i + 1; j < 4; j++) {
        DynamicBitset allowed(16);
        for (std::size_t bit = 0; bit < 16; bit++) {
          if (rng.NextBool(60, 100)) {
            allowed.Set(bit);
          }
        }
        csp.AddConstraint(i, j, allowed);
      }
    }
    CspOptions with, without;
    with.use_ac3 = true;
    without.use_ac3 = false;
    auto a = SolveCsp(csp, with);
    auto b = SolveCsp(csp, without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().has_value(), b.value().has_value()) << seed;
  }
}

TEST(Csp, BudgetIsReported) {
  // A hard unsatisfiable instance with a tiny node budget.
  Csp csp = Csp::Full(8, 8);
  DynamicBitset neq(64);
  for (std::uint32_t a = 0; a < 8; a++) {
    for (std::uint32_t b = 0; b < 8; b++) {
      if (a != b) {
        neq.Set(a * 8 + b);
      }
    }
  }
  // 9-clique coloring with 8 colors is unsat, but we only have 8 vars;
  // make it unsat by pinning two vars equal and constraining them apart.
  csp.AddConstraint(0, 1, neq);
  csp.Pin(0, 3);
  csp.Pin(1, 3);
  CspOptions options;
  options.use_ac3 = false;  // otherwise the initial AC-3 pass refutes it
  options.max_nodes = 0;    // forces exhaustion immediately
  auto result = SolveCsp(csp, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Csp, DeadlineCancelsMidSearch) {
  // All-different with one more variable than values: unsatisfiable, but
  // AC-3 over != constraints only prunes singletons, so refuting it by
  // backtracking is astronomically expensive. The strided cancel poll must
  // stop the search shortly after the deadline instead.
  constexpr std::size_t kVariables = 13;
  constexpr std::uint32_t kValues = 12;
  Csp csp = Csp::Full(kVariables, kValues);
  DynamicBitset neq(kValues * kValues);
  for (std::uint32_t a = 0; a < kValues; a++) {
    for (std::uint32_t b = 0; b < kValues; b++) {
      if (a != b) {
        neq.Set(a * kValues + b);
      }
    }
  }
  for (std::size_t i = 0; i < kVariables; i++) {
    for (std::size_t j = i + 1; j < kVariables; j++) {
      csp.AddConstraint(i, j, neq);
    }
  }
  CancelToken cancel(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::milliseconds(20)));
  CspOptions options;
  options.cancel = &cancel;
  auto start = std::chrono::steady_clock::now();
  auto result = SolveCsp(csp, options);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_LT(elapsed_ms, 5000.0);
}

/// Oracle for the AC closure that shares no code with CspSolver: revise
/// every constraint in both directions, one value pair at a time, until
/// nothing changes. Returns false if a domain wiped out.
bool NaiveArcConsistency(const Csp& csp, std::vector<DynamicBitset>* domains) {
  std::size_t d = csp.domain_size;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const BinaryConstraint& c : csp.constraints) {
      DynamicBitset& dom_a = (*domains)[c.var_a];
      DynamicBitset& dom_b = (*domains)[c.var_b];
      for (std::uint32_t a = 0; a < d; a++) {
        bool supported = false;
        for (std::uint32_t b = 0; b < d && !supported; b++) {
          supported = dom_b.Test(b) && c.Allows(a, b, d);
        }
        if (dom_a.Test(a) && !supported) {
          dom_a.Reset(a);
          changed = true;
        }
      }
      for (std::uint32_t b = 0; b < d; b++) {
        bool supported = false;
        for (std::uint32_t a = 0; a < d && !supported; a++) {
          supported = dom_a.Test(a) && c.Allows(a, b, d);
        }
        if (dom_b.Test(b) && !supported) {
          dom_b.Reset(b);
          changed = true;
        }
      }
    }
  }
  for (const DynamicBitset& domain : *domains) {
    if (domain.None()) {
      return false;
    }
  }
  return true;
}

/// A random binary CSP; every fourth seed uses a domain wider than one
/// 64-bit word so support rows span several words.
Csp RandomBinaryCsp(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::size_t variables = 3 + rng.NextBelow(6);
  std::size_t domain = seed % 4 == 0 ? 65 + rng.NextBelow(80)
                                     : 2 + rng.NextBelow(8);
  Csp csp = Csp::Full(variables, domain);
  for (std::size_t v = 0; v < variables; v++) {
    for (std::size_t x = 0; x < domain; x++) {
      if (rng.NextBool(15, 100)) {
        csp.domains[v].Reset(x);
      }
    }
  }
  for (std::size_t i = 0; i < variables; i++) {
    for (std::size_t j = 0; j < variables; j++) {
      if (i == j || !rng.NextBool(40, 100)) {
        continue;
      }
      DynamicBitset allowed(domain * domain);
      for (std::size_t bit = 0; bit < domain * domain; bit++) {
        if (rng.NextBool(domain > 64 ? 4 : 55, 100)) {
          allowed.Set(bit);
        }
      }
      csp.AddConstraint(i, j, std::move(allowed));
    }
  }
  return csp;
}

TEST(Csp, IncrementalPropagationMatchesFromScratch) {
  // Propagating only from the pinned variables of an arc-consistent base
  // must reach exactly the from-scratch AC closure of the pinned CSP.
  std::size_t consistent_bases = 0;
  std::size_t wiped = 0;
  std::size_t survived = 0;
  for (std::uint64_t seed = 1; seed <= 300; seed++) {
    Csp csp = RandomBinaryCsp(seed);
    CspSolver solver(csp);
    std::vector<DynamicBitset> base = csp.domains;
    std::vector<DynamicBitset> naive_base = csp.domains;
    bool base_ok = solver.PropagateAll(&base, nullptr);
    ASSERT_EQ(base_ok, NaiveArcConsistency(csp, &naive_base)) << seed;
    if (!base_ok) {
      continue;
    }
    ASSERT_EQ(base, naive_base) << seed;
    consistent_bases++;
    SplitMix64 rng(seed * 31 + 7);
    for (int trial = 0; trial < 4; trial++) {
      // Pin 1–3 variables to values their base domains still hold.
      Csp pinned = csp;
      std::vector<DynamicBitset> incremental = base;
      std::vector<std::size_t> changed;
      std::size_t pin_count = 1 + rng.NextBelow(3);
      for (std::size_t p = 0; p < pin_count; p++) {
        std::size_t var = rng.NextBelow(csp.num_variables);
        std::vector<std::uint32_t> values;
        for (std::size_t x = incremental[var].FindNext(0);
             x < csp.domain_size; x = incremental[var].FindNext(x + 1)) {
          values.push_back(static_cast<std::uint32_t>(x));
        }
        if (values.empty()) {
          continue;  // an earlier pin of the same variable emptied it
        }
        std::uint32_t value = values[rng.NextBelow(values.size())];
        pinned.Pin(var, value);
        incremental[var] &= pinned.domains[var];
        changed.push_back(var);
      }
      std::vector<DynamicBitset> scratch = pinned.domains;
      bool scratch_ok = NaiveArcConsistency(pinned, &scratch);
      bool incremental_ok = solver.Propagate(&incremental, changed, nullptr);
      ASSERT_EQ(incremental_ok, scratch_ok) << seed << " trial " << trial;
      if (scratch_ok) {
        EXPECT_EQ(incremental, scratch) << seed << " trial " << trial;
        survived++;
      } else {
        wiped++;
      }
      auto solved = SolveCsp(pinned);
      auto all = EnumerateCspSolutions(pinned);
      ASSERT_TRUE(solved.ok());
      ASSERT_TRUE(all.ok());
      EXPECT_EQ(solved.value().has_value(), !all.value().empty())
          << seed << " trial " << trial;
    }
  }
  // The family must exercise both outcomes.
  EXPECT_GT(consistent_bases, 100u);
  EXPECT_GT(wiped, 20u);
  EXPECT_GT(survived, 20u);
}

TEST(DataGraphHom, IdentityIsAlwaysHomomorphism) {
  DataGraph g = Figure1Graph();
  NodeMapping identity(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    identity[v] = v;
  }
  EXPECT_TRUE(IsDataGraphHomomorphism(g, identity));
}

TEST(DataGraphHom, RejectsEdgeViolation) {
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  NodeMapping mapping(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    mapping[v] = v;
  }
  mapping[n.v2] = n.v4;  // v1 -a-> v2 needs v1 -a-> v4, which is absent
  EXPECT_FALSE(IsDataGraphHomomorphism(g, mapping));
}

TEST(DataGraphHom, Reachability) {
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  BinaryRelation reach = Reachability(g);
  EXPECT_TRUE(reach.Test(n.v1, n.v1));   // reflexive
  EXPECT_TRUE(reach.Test(n.v1, n.w4));   // v1 →* v'4
  EXPECT_FALSE(reach.Test(n.v4, n.v1));  // v4 is a sink
}

/// Oracle: enumerate all n^n mappings and filter by Definition 33.
std::vector<NodeMapping> NaiveHomomorphisms(const DataGraph& g) {
  std::vector<NodeMapping> result;
  std::size_t n = g.NumNodes();
  NodeMapping mapping(n, 0);
  while (true) {
    if (IsDataGraphHomomorphism(g, mapping)) {
      result.push_back(mapping);
    }
    std::size_t i = n;
    while (i > 0) {
      i--;
      if (++mapping[i] < n) {
        break;
      }
      mapping[i] = 0;
      if (i == 0) {
        return result;
      }
    }
  }
}

class HomEnumerationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HomEnumerationTest, CspEnumerationMatchesNaive) {
  DataGraph g = RandomDataGraph({.num_nodes = 5,
                                 .num_labels = 2,
                                 .num_data_values = 2,
                                 .edge_percent = 25,
                                 .seed = GetParam()});
  auto csp_homs = EnumerateHomomorphisms(g);
  ASSERT_TRUE(csp_homs.ok());
  std::vector<NodeMapping> naive = NaiveHomomorphisms(g);
  // Compare as sets.
  std::set<NodeMapping> a(csp_homs.value().begin(), csp_homs.value().end());
  std::set<NodeMapping> b(naive.begin(), naive.end());
  EXPECT_EQ(a, b) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, HomEnumerationTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(DataGraphHom, PinsSeedTheSearch) {
  DataGraph g = Figure1Graph();
  Figure1Nodes n = Figure1NodeIds(g);
  // Pinning the identity on every node succeeds.
  std::vector<std::pair<NodeId, NodeId>> pins;
  for (NodeId v = 0; v < g.NumNodes(); v++) {
    pins.emplace_back(v, v);
  }
  auto hom = FindHomomorphismWithPins(g, pins);
  ASSERT_TRUE(hom.ok());
  EXPECT_TRUE(hom.value().has_value());
  // Pinning v1 -> v4 (a sink with a different value situation) must fail:
  // v1 has out-edges, v4 has none, violating single-step compatibility.
  auto bad = FindHomomorphismWithPins(g, {{n.v1, n.v4}});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().has_value());
}

}  // namespace
}  // namespace gqd
