#include "analysis/plan/kernel_dispatch.h"

#include <algorithm>
#include <utility>

#include "analysis/plan/plan_metrics.h"
#include "obs/trace.h"

namespace gqd {

KernelDispatchTable KernelDispatchTable::Build(const AssignmentGraph& ag) {
  GQD_TRACE_SPAN(span, "plan.build_dispatch");
  KernelDispatchTable table;
  table.num_states_ = ag.num_states();
  table.num_labels_ = ag.num_labels();
  table.num_patterns_ = ag.num_patterns();
  table.set_words_ = (ag.num_states() + 63) / 64;
  if (table.num_states_ == 0 || table.num_labels_ == 0) {
    return table;
  }
  table.plans_.assign(
      ag.num_store_masks() * table.num_labels_ * table.num_patterns_,
      TransitionPlan{});

  // Per-pattern edge buffers for the (mask, label) being scanned; sources
  // appear in increasing state order because the state loop is ordered.
  std::vector<std::vector<std::pair<AgState, AgState>>> edges(
      table.num_patterns_);

  for (std::uint32_t mask = 0; mask < ag.num_store_masks(); mask++) {
    for (LabelId label = 0; label < table.num_labels_; label++) {
      for (auto& e : edges) {
        e.clear();
      }
      for (std::size_t s = 0; s < table.num_states_; s++) {
        AgState state = static_cast<AgState>(s);
        for (const auto& successor : ag.SuccessorsOf(mask, label, state)) {
          edges[successor.pattern].emplace_back(state, successor.state);
        }
      }
      for (std::uint32_t p = 0; p < table.num_patterns_; p++) {
        TransitionPlan& plan =
            table.plans_[(mask * table.num_labels_ + label) *
                             table.num_patterns_ +
                         p];
        const auto& list = edges[p];
        if (list.empty()) {
          plan.cls = TransitionKernelClass::kNoOp;
          continue;
        }
        plan.num_edges = static_cast<std::uint32_t>(list.size());
        bool single = true;
        bool self = true;
        std::uint32_t src_min = ~0u, src_max = 0, tgt_min = ~0u, tgt_max = 0;
        std::uint32_t sources = 0;
        for (std::size_t i = 0; i < list.size(); i++) {
          AgState s = list[i].first, t = list[i].second;
          if (i == 0 || list[i - 1].first != s) {
            sources++;
          } else {
            single = false;
          }
          self = self && (t == s);
          src_min = std::min(src_min, s >> 6);
          src_max = std::max(src_max, s >> 6);
          tgt_min = std::min(tgt_min, t >> 6);
          tgt_max = std::max(tgt_max, t >> 6);
        }
        plan.num_sources = sources;
        plan.src_begin_word = src_min;
        plan.src_end_word = src_max + 1;
        plan.tgt_begin_word = tgt_min;
        plan.tgt_end_word = tgt_max + 1;

        // The source bitmask pool backs every class: the scan visits only
        // bits of Q ∧ mask, so no-edge states cost nothing.
        plan.mask_offset = table.source_masks_.size();
        table.source_masks_.resize(plan.mask_offset + table.set_words_, 0);
        std::uint64_t* src_mask = table.source_masks_.data() +
                                  plan.mask_offset;
        for (const auto& [s, t] : list) {
          src_mask[s >> 6] |= std::uint64_t{1} << (s & 63);
        }

        std::uint64_t tgt_span = plan.tgt_end_word - plan.tgt_begin_word;
        if (single && self) {
          plan.cls = TransitionKernelClass::kIdentity;
          plan.cost = plan.src_end_word - plan.src_begin_word;
        } else if (single) {
          plan.cls = TransitionKernelClass::kSingleBit;
          plan.cost = plan.num_sources;
          plan.pool_offset = table.single_targets_.size();
          table.single_targets_.resize(plan.pool_offset + table.num_states_,
                                       kNoTarget);
          std::uint32_t* targets =
              table.single_targets_.data() + plan.pool_offset;
          for (const auto& [s, t] : list) {
            targets[s] = t;
          }
        } else if (!ag.has_kernel() ||
                   plan.num_edges < plan.num_sources * tgt_span) {
          plan.cls = TransitionKernelClass::kSparse;
          plan.cost = plan.num_edges;
          plan.pool_offset = table.csr_offsets_.size();
          table.csr_offsets_.resize(plan.pool_offset + table.num_states_ + 1,
                                    0);
          std::uint32_t* offsets =
              table.csr_offsets_.data() + plan.pool_offset;
          std::size_t at = 0;
          for (std::size_t s = 0; s <= table.num_states_; s++) {
            offsets[s] = static_cast<std::uint32_t>(table.csr_targets_.size());
            while (at < list.size() &&
                   list[at].first == static_cast<AgState>(s)) {
              table.csr_targets_.push_back(list[at].second);
              at++;
            }
          }
        } else {
          plan.cls = TransitionKernelClass::kDense;
          plan.cost = static_cast<std::uint64_t>(plan.num_sources) * tgt_span;
        }
      }
    }
  }

  table.pool_bytes_ = table.source_masks_.size() * sizeof(std::uint64_t) +
                      (table.single_targets_.size() +
                       table.csr_offsets_.size() + table.csr_targets_.size()) *
                          sizeof(std::uint32_t) +
                      table.plans_.size() * sizeof(TransitionPlan);
  if (table.pool_bytes_ > kDispatchMemoryBudgetBytes) {
    // Too big to be worth holding next to the assignment graph's own
    // kernel; the k-REM checker runs the reference shape instead.
    table.source_masks_.clear();
    table.single_targets_.clear();
    table.csr_offsets_.clear();
    table.csr_targets_.clear();
    table.plans_.clear();
    table.enabled_ = false;
    GQD_TRACE_SPAN_ATTR(span, "disabled_pool_bytes", table.pool_bytes_);
    return table;
  }

  for (const TransitionPlan& plan : table.plans_) {
    table.class_counts_[static_cast<std::size_t>(plan.cls)]++;
    table.total_cost_ += plan.cost;
  }
  table.enabled_ = true;
  RecordPlanBuild(table.class_counts_, nullptr);
  GQD_TRACE_SPAN_ATTR(span, "transitions", table.plans_.size());
  GQD_TRACE_SPAN_ATTR(span, "pool_bytes", table.pool_bytes_);
  GQD_TRACE_SPAN_ATTR(span, "total_cost", table.total_cost_);
  return table;
}

}  // namespace gqd
