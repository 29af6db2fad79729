#include "homomorphism/csp.h"

#include <bit>
#include <cassert>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {
GQD_FAILPOINT_DEFINE(fp_csp_search, "csp.search");
}  // namespace

Csp Csp::Full(std::size_t num_variables, std::size_t domain_size) {
  Csp csp;
  csp.num_variables = num_variables;
  csp.domain_size = domain_size;
  DynamicBitset full(domain_size);
  for (std::size_t v = 0; v < domain_size; v++) {
    full.Set(v);
  }
  csp.domains.assign(num_variables, full);
  return csp;
}

void Csp::AddConstraint(std::size_t var_a, std::size_t var_b,
                        DynamicBitset allowed) {
  assert(var_a != var_b);  // unary constraints belong in the domains
  assert(allowed.size() == domain_size * domain_size);
  constraints.push_back(BinaryConstraint{var_a, var_b, std::move(allowed)});
}

void Csp::Pin(std::size_t var, std::uint32_t value) {
  DynamicBitset single(domain_size);
  single.Set(value);
  domains[var] &= single;
}

namespace {

/// Checks constraints among singleton domains only (used when AC-3 is off).
bool SingletonsConsistent(const Csp& csp,
                          const std::vector<DynamicBitset>& domains) {
  for (const BinaryConstraint& constraint : csp.constraints) {
    const DynamicBitset& dom_a = domains[constraint.var_a];
    const DynamicBitset& dom_b = domains[constraint.var_b];
    if (dom_a.Count() == 1 && dom_b.Count() == 1) {
      std::uint32_t a = static_cast<std::uint32_t>(dom_a.FindNext(0));
      std::uint32_t b = static_cast<std::uint32_t>(dom_b.FindNext(0));
      if (!constraint.Allows(a, b, csp.domain_size)) {
        return false;
      }
    }
  }
  return true;
}

/// Copies bits [start, start + count) of `words` into ⌈count/64⌉ words at
/// `out`, clearing the bits past `count`.
void ExtractBits(const std::vector<std::uint64_t>& words, std::size_t start,
                 std::size_t count, std::uint64_t* out) {
  std::size_t out_words = (count + 63) / 64;
  for (std::size_t j = 0; j < out_words; j++) {
    std::size_t pos = start + 64 * j;
    std::size_t w = pos >> 6;
    std::size_t offset = pos & 63;
    std::uint64_t word = words[w] >> offset;
    if (offset != 0 && w + 1 < words.size()) {
      word |= words[w + 1] << (64 - offset);
    }
    out[j] = word;
  }
  if (count % 64 != 0) {
    out[out_words - 1] &= (std::uint64_t{1} << (count % 64)) - 1;
  }
}

/// Transposes a 64×64 bit block in place: bit c of a[r] moves to bit r of
/// a[c] (recursive block swap, Hacker's Delight §7-3).
void Transpose64(std::uint64_t a[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

CspSolver::CspSolver(const Csp& csp)
    : csp_(csp),
      row_words_((csp.domain_size + 63) / 64),
      arcs_from_(csp.num_variables) {
  const std::size_t d = csp.domain_size;
  const std::size_t arc_words = d * row_words_;
  const std::size_t num_arcs = 2 * csp.constraints.size();
  rows_.assign(num_arcs * arc_words, 0);
  for (std::size_t c = 0; c < csp.constraints.size(); c++) {
    const BinaryConstraint& constraint = csp.constraints[c];
    std::uint64_t* forward = rows_.data() + 2 * c * arc_words;
    std::uint64_t* reverse = forward + arc_words;
    // Forward row x is the x-th d-bit slice of the allowed matrix; the
    // reverse rows are its transpose, taken 64×64 blocks at a time.
    for (std::size_t x = 0; x < d; x++) {
      ExtractBits(constraint.allowed.words(), x * d, d,
                  forward + x * row_words_);
    }
    for (std::size_t bx = 0; bx < row_words_; bx++) {
      for (std::size_t by = 0; by < row_words_; by++) {
        std::uint64_t block[64];
        for (std::size_t r = 0; r < 64; r++) {
          std::size_t x = bx * 64 + r;
          block[r] = x < d ? forward[x * row_words_ + by] : 0;
        }
        Transpose64(block);
        for (std::size_t r = 0; r < 64 && by * 64 + r < d; r++) {
          reverse[(by * 64 + r) * row_words_ + bx] = block[r];
        }
      }
    }
    arcs_from_[constraint.var_b].push_back(static_cast<std::uint32_t>(2 * c));
    arcs_from_[constraint.var_a].push_back(
        static_cast<std::uint32_t>(2 * c + 1));
  }
  queue_.resize(num_arcs);
  queued_.assign(num_arcs, false);
}

std::uint64_t CspSolver::SupportRowBytes(std::size_t num_constraints,
                                         std::size_t domain_size) {
  return std::uint64_t{2} * num_constraints * domain_size *
         ((domain_size + 63) / 64) * sizeof(std::uint64_t);
}

std::size_t CspSolver::Target(std::size_t arc) const {
  const BinaryConstraint& constraint = csp_.constraints[arc >> 1];
  return (arc & 1) != 0 ? constraint.var_b : constraint.var_a;
}

std::size_t CspSolver::Support(std::size_t arc) const {
  const BinaryConstraint& constraint = csp_.constraints[arc >> 1];
  return (arc & 1) != 0 ? constraint.var_a : constraint.var_b;
}

bool CspSolver::Revise(std::size_t arc,
                       std::vector<DynamicBitset>* domains) const {
  const std::uint64_t* support = (*domains)[Support(arc)].words().data();
  std::vector<std::uint64_t>& target =
      (*domains)[Target(arc)].mutable_words();
  const std::uint64_t* rows =
      rows_.data() + arc * csp_.domain_size * row_words_;
  bool changed = false;
  for (std::size_t i = 0; i < row_words_; i++) {
    for (std::uint64_t bits = target[i]; bits != 0; bits &= bits - 1) {
      std::size_t x = i * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint64_t* row = rows + x * row_words_;
      std::size_t j = 0;
      while (j < row_words_ && (row[j] & support[j]) == 0) {
        j++;
      }
      if (j == row_words_) {
        target[i] &= ~(std::uint64_t{1} << (x & 63));
        changed = true;
      }
    }
  }
  return changed;
}

void CspSolver::Push(std::uint32_t arc) {
  if (queued_[arc]) {
    return;
  }
  queued_[arc] = true;
  std::size_t tail = queue_head_ + queue_size_;
  queue_[tail < queue_.size() ? tail : tail - queue_.size()] = arc;
  queue_size_++;
}

std::uint32_t CspSolver::Pop() {
  std::uint32_t arc = queue_[queue_head_];
  queue_head_ = queue_head_ + 1 == queue_.size() ? 0 : queue_head_ + 1;
  queue_size_--;
  queued_[arc] = false;
  return arc;
}

bool CspSolver::Drain(std::vector<DynamicBitset>* domains, CspStats* stats) {
  while (queue_size_ > 0) {
    std::uint32_t arc = Pop();
    if (stats != nullptr) {
      stats->propagations++;
    }
    if (!Revise(arc, domains)) {
      continue;
    }
    std::size_t target = Target(arc);
    if ((*domains)[target].None()) {
      while (queue_size_ > 0) {
        Pop();
      }
      return false;
    }
    // The reverse arc of the same constraint needs no revisit: the values
    // just removed had no support on the other side, so none of theirs did.
    for (std::uint32_t next : arcs_from_[target]) {
      if ((next >> 1) != (arc >> 1)) {
        Push(next);
      }
    }
  }
  return true;
}

bool CspSolver::Propagate(std::vector<DynamicBitset>* domains,
                          std::span<const std::size_t> changed,
                          CspStats* stats) {
  for (std::size_t var : changed) {
    for (std::uint32_t arc : arcs_from_[var]) {
      Push(arc);
    }
  }
  return Drain(domains, stats);
}

bool CspSolver::PropagateAll(std::vector<DynamicBitset>* domains,
                             CspStats* stats) {
  for (std::size_t arc = 0; arc < queue_.size(); arc++) {
    Push(static_cast<std::uint32_t>(arc));
  }
  return Drain(domains, stats);
}

/// One backtracking search over a prepared solver: MRV branching, and
/// after each branch AC-3 resumed from the branched variable only (the
/// parent is arc-consistent, so that reaches the from-scratch fixpoint).
struct CspSolver::Search {
  CspSolver& solver;
  const CspOptions& options;
  CspStats* stats;
  std::vector<std::vector<std::uint32_t>>* solutions;
  std::size_t max_solutions;
  bool node_budget_exhausted = false;
  bool resource_tripped = false;
  bool injected = false;
  bool cancelled = false;
  std::uint32_t cancel_ticks = 0;
  std::uint32_t budget_ticks = 0;

  /// Returns true when the search should stop (enough solutions found).
  bool Run(const std::vector<DynamicBitset>& domains) {
    const Csp& csp = solver.csp_;
    if (GQD_FAILPOINT_FIRED(fp_csp_search)) {
      injected = true;
      return true;
    }
    if (GQD_CANCEL_STRIDE_CHECK(options.cancel, cancel_ticks)) {
      cancelled = true;
      return true;
    }
    if (options.budget != nullptr) {
      options.budget->ChargeTuples(1);
      if (GQD_BUDGET_STRIDE_CHECK(options.budget, budget_ticks)) {
        resource_tripped = true;
        return true;
      }
    }
    if (++stats->nodes_expanded > options.max_nodes) {
      node_budget_exhausted = true;
      return true;
    }
    // MRV: smallest non-singleton domain.
    std::size_t best_var = csp.num_variables;
    std::size_t best_size = 0;
    for (std::size_t v = 0; v < csp.num_variables; v++) {
      std::size_t size = domains[v].Count();
      if (size == 0) {
        return false;
      }
      if (size > 1 && (best_var == csp.num_variables || size < best_size)) {
        best_var = v;
        best_size = size;
      }
    }
    if (best_var == csp.num_variables) {
      // All singletons: a candidate solution.
      if (!options.use_ac3 && !SingletonsConsistent(csp, domains)) {
        return false;
      }
      std::vector<std::uint32_t> solution(csp.num_variables);
      for (std::size_t v = 0; v < csp.num_variables; v++) {
        solution[v] = static_cast<std::uint32_t>(domains[v].FindNext(0));
      }
      solutions->push_back(std::move(solution));
      return solutions->size() >= max_solutions;
    }
    const DynamicBitset& values = domains[best_var];
    for (std::size_t value = values.FindNext(0); value < csp.domain_size;
         value = values.FindNext(value + 1)) {
      std::vector<DynamicBitset> child = domains;
      child[best_var].Clear();
      child[best_var].Set(value);
      if (options.use_ac3) {
        if (!solver.Propagate(&child, std::span(&best_var, 1), stats)) {
          continue;
        }
      } else if (!SingletonsConsistent(csp, child)) {
        continue;
      }
      if (Run(child)) {
        return true;
      }
    }
    return false;
  }
};

Result<std::optional<std::vector<std::uint32_t>>> CspSolver::Solve(
    const std::vector<DynamicBitset>& domains, const CspOptions& options,
    CspStats* stats) {
  CspStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  GQD_TRACE_SPAN(span, "csp.solve");
  GQD_TRACE_SPAN_ATTR(span, "variables", csp_.num_variables);
  // Stats pointers are often shared across seeds; attribute only this
  // solve's delta to the span.
  std::size_t nodes_before = stats->nodes_expanded;
  std::size_t props_before = stats->propagations;
  std::vector<std::vector<std::uint32_t>> solutions;
  Search search{*this, options, stats, &solutions, 1};
  search.Run(domains);
  GQD_TRACE_SPAN_ATTR(span, "nodes_expanded",
                      stats->nodes_expanded - nodes_before);
  GQD_TRACE_SPAN_ATTR(span, "propagations",
                      stats->propagations - props_before);
  if (!solutions.empty()) {
    return std::optional<std::vector<std::uint32_t>>(std::move(solutions[0]));
  }
  if (search.injected) {
    return Status::ResourceExhausted(
        "injected CSP search failure (failpoint csp.search)");
  }
  if (search.cancelled) {
    return options.cancel->Check();
  }
  if (search.resource_tripped) {
    return options.budget->Check();
  }
  if (search.node_budget_exhausted) {
    return Status::ResourceExhausted("CSP node budget exhausted");
  }
  return std::optional<std::vector<std::uint32_t>>();
}

Result<std::vector<std::vector<std::uint32_t>>> CspSolver::Enumerate(
    const std::vector<DynamicBitset>& domains, std::size_t max_solutions) {
  CspStats stats;
  CspOptions options;
  std::vector<std::vector<std::uint32_t>> solutions;
  Search search{*this, options, &stats, &solutions, max_solutions};
  search.Run(domains);
  if (search.injected) {
    return Status::ResourceExhausted(
        "injected CSP search failure (failpoint csp.search)");
  }
  if (search.node_budget_exhausted) {
    return Status::ResourceExhausted("CSP node budget exhausted");
  }
  return solutions;
}

Result<std::optional<std::vector<std::uint32_t>>> SolveCsp(
    const Csp& csp, const CspOptions& options, CspStats* stats) {
  CspSolver solver(csp);
  std::vector<DynamicBitset> domains = csp.domains;
  if (options.use_ac3 && !solver.PropagateAll(&domains, stats)) {
    return std::optional<std::vector<std::uint32_t>>();
  }
  return solver.Solve(domains, options, stats);
}

Result<std::vector<std::vector<std::uint32_t>>> EnumerateCspSolutions(
    const Csp& csp, std::size_t max_solutions) {
  CspSolver solver(csp);
  std::vector<DynamicBitset> domains = csp.domains;
  if (!solver.PropagateAll(&domains, nullptr)) {
    return std::vector<std::vector<std::uint32_t>>();
  }
  return solver.Enumerate(domains, max_solutions);
}

}  // namespace gqd
