#include "replay.h"

#include <optional>
#include <set>
#include <unordered_map>

#include "analysis/plan/kernel_dispatch.h"
#include "analysis/plan/query_plan.h"
#include "common/json.h"
#include "definability/assignment_graph.h"
#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "definability/ucrdpq_definability.h"
#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "graph/serialization.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"
#include "runtime/graph_registry.h"
#include "runtime/result_cache.h"
#include "storage/graph_store.h"

namespace perfbench {
namespace {

/// Spans of one replayed request. Index 0 is the request root; only the
/// root's direct children count towards layer coverage. Each layer's
/// figure is its self time: its span minus the spans nested inside it.
class RequestTrace {
 public:
  RequestTrace(std::uint64_t request, ReplayTotals* totals)
      : request_(request), totals_(totals) {
    Span root;
    root.name = "replay.request";
    root.request = request;
    root.start_us = NowUs();
    spans_.push_back(root);
  }

  /// Runs `fn` inside a span named `name` under `parent` (0 = root).
  template <typename Fn>
  auto Time(const char* name, Fn&& fn, std::int64_t parent = 0) {
    auto index = static_cast<std::int64_t>(spans_.size());
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request_;
    spans_.push_back(span);
    double start = NowUs();
    auto result = fn(index);
    double end = NowUs();
    spans_[static_cast<std::size_t>(index)].start_us = start;
    spans_[static_cast<std::size_t>(index)].end_us = end;
    if (parent == 0) {
      totals_->covered_us[request_] += end - start;
    }
    return result;
  }

  void Finish(SpanLog* log) {
    spans_[0].end_us = NowUs();
    // Nested spans run one after another on this thread, so a parent's
    // self time is its duration minus the sum of its children's.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); i++) {
      self[i] += spans_[i].end_us - spans_[i].start_us;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_us - spans_[i].start_us;
      }
    }
    for (std::size_t i = 1; i < spans_.size(); i++) {
      totals_->durations_us[spans_[i].name].push_back(self[i]);
    }
    log->AddTree(std::move(spans_));
  }

 private:
  std::uint64_t request_;
  ReplayTotals* totals_;
  std::vector<Span> spans_;
};

class Replayer {
 public:
  Replayer(const std::string& dir, SpanLog* log, ReplayTotals* totals)
      : dir_(dir), log_(log), totals_(totals), cache_(256) {}

  void Run(const Request& request) {
    // Graphs the serving phase already held are registered untimed.
    std::optional<gqd::RegisteredGraph> entry;
    if (request.kind != "load") {
      entry = Registered(request.graph);
      if (!entry.has_value()) {
        return;
      }
    }
    std::uint64_t id = LineId(request.line);
    RequestTrace trace(id, totals_);
    auto parsed = trace.Time("common.json_parse", [&](std::int64_t) {
      return gqd::JsonValue::Parse(request.line);
    });
    if (!parsed.ok()) {
      return;
    }
    const gqd::JsonValue& line = parsed.value();
    gqd::JsonValue::Object body;
    body.emplace_back("id", static_cast<double>(id));
    body.emplace_back("ok", true);
    if (request.kind == "load") {
      ReplayLoad(request, &trace);
    } else if (request.check != nullptr) {
      ReplayCheck(*entry, line, &trace, &body);
    } else {
      ReplayEval(*entry, line, &trace, &body);
    }
    trace.Time("common.json_serialize", [&](std::int64_t) {
      return gqd::JsonValue(std::move(body)).Serialize();
    });
    trace.Finish(log_);
    totals_->replayed++;
  }

 private:
  std::optional<gqd::RegisteredGraph> Registered(const GenGraph* graph) {
    auto it = graphs_.find(graph);
    if (it != graphs_.end()) {
      return it->second;
    }
    std::string name = "replay" + std::to_string(graphs_.size());
    gqd::Result<gqd::RegisteredGraph> entry =
        gqd::Status::Internal("unloaded");
    if (graph->n > 4096) {
      // Large graphs carry "#<id>" relations: anonymous container nodes.
      std::string path = dir_ + "/" + name + ".gqdg";
      if (!WriteContainer(*graph, path, /*named=*/false)) {
        return std::nullopt;
      }
      entry = registry_.LoadFile(name, path);
    } else {
      entry = registry_.Load(name, GraphText(*graph));
    }
    if (!entry.ok()) {
      return std::nullopt;
    }
    graphs_[graph] = entry.value();
    return entry.value();
  }

  void ReplayLoad(const Request& request, RequestTrace* trace) {
    auto entry = trace->Time("runtime.registry_load", [&](std::int64_t self) {
      auto stored = trace->Time(
          "storage.open",
          [&](std::int64_t) {
            return gqd::GraphStore::OpenFile(request.container_path);
          },
          self);
      std::optional<gqd::RegisteredGraph> out;
      if (stored.ok()) {
        out = registry_.Register("load" + std::to_string(graphs_.size()),
                                 std::move(stored).value());
      }
      return out;
    });
    if (entry.has_value()) {
      graphs_[request.graph] = *entry;
    }
  }

  void ReplayEval(const gqd::RegisteredGraph& entry,
                  const gqd::JsonValue& line, RequestTrace* trace,
                  gqd::JsonValue::Object* body) {
    std::string language = line.GetString("language").value();
    std::vector<std::string> texts;
    if (const gqd::JsonValue* queries = line.Find("queries")) {
      for (const auto& q : queries->AsArray()) {
        texts.push_back(q.AsString());
      }
    } else {
      texts.push_back(line.GetString("query").value());
    }
    const gqd::DataGraph& graph = *entry.graph;
    gqd::JsonValue::Array results;
    for (const std::string& text : texts) {
      auto normalized = trace->Time("parse.query", [&](std::int64_t) {
        return Normalize(language, text);
      });
      std::string key =
          gqd::ResultCache::MakeKey(entry.fingerprint, language, normalized);
      auto relation = trace->Time("runtime.cache_lookup", [&](std::int64_t) {
        return cache_.Get(key);
      });
      if (relation == nullptr) {
        relation = Evaluate(graph, language, text, trace);
        if (relation == nullptr) {
          continue;
        }
        cache_.Put(key, relation);
      }
      std::string rendered =
          trace->Time("graph.relation_render", [&](std::int64_t) {
            return relation->ToString(graph);
          });
      totals_->relation_bytes.push_back(static_cast<double>(rendered.size()));
      gqd::JsonValue::Object result;
      result.emplace_back("ok", true);
      result.emplace_back("query", text);
      result.emplace_back("normalized", normalized);
      result.emplace_back("count", static_cast<double>(relation->Count()));
      result.emplace_back("relation", std::move(rendered));
      results.emplace_back(std::move(result));
    }
    body->emplace_back("results", gqd::JsonValue(std::move(results)));
  }

  static std::string Normalize(const std::string& language,
                               const std::string& text) {
    if (language == "rpq") {
      auto e = gqd::ParseRegex(text);
      return e.ok() ? gqd::RegexToString(e.value()) : "";
    }
    if (language == "rem") {
      auto e = gqd::ParseRem(text);
      return e.ok() ? gqd::RemToString(e.value()) : "";
    }
    auto e = gqd::ParseRee(text);
    return e.ok() ? gqd::ReeToString(e.value()) : "";
  }

  std::shared_ptr<const gqd::BinaryRelation> Evaluate(
      const gqd::DataGraph& graph, const std::string& language,
      const std::string& text, RequestTrace* trace) {
    gqd::Result<gqd::BinaryRelation> computed =
        gqd::Status::InvalidArgument("unknown language");
    if (language == "rpq") {
      gqd::RegexPtr e = gqd::ParseRegex(text).value();
      computed = trace->Time("eval.rpq", [&](std::int64_t) {
        return gqd::EvaluateRpq(graph, e, gqd::EvalOptions{});
      });
    } else if (language == "rem") {
      gqd::RemPtr e = gqd::ParseRem(text).value();
      gqd::StringInterner labels = graph.labels();
      gqd::QueryPlan plan = trace->Time("plan.build", [&](std::int64_t) {
        return gqd::BuildRemQueryPlan(e, &labels,
                                      /*intern_new_labels=*/false);
      });
      computed = trace->Time("eval.rem", [&](std::int64_t) {
        return gqd::EvaluateRemAutomaton(graph, plan.automaton);
      });
    } else if (language == "ree") {
      gqd::ReePtr e = gqd::ParseRee(text).value();
      computed = trace->Time("eval.ree", [&](std::int64_t) {
        return gqd::EvaluateRee(graph, e, gqd::EvalOptions{});
      });
    }
    if (!computed.ok()) {
      return nullptr;
    }
    return std::make_shared<const gqd::BinaryRelation>(
        std::move(computed).value());
  }

  void ReplayCheck(const gqd::RegisteredGraph& entry,
                   const gqd::JsonValue& line, RequestTrace* trace,
                   gqd::JsonValue::Object* body) {
    const gqd::DataGraph& graph = *entry.graph;
    std::string checker = line.GetString("checker").value();
    std::string relation_text = line.GetString("relation").value();
    std::int64_t k = line.GetIntOr("k", 2).value();
    std::int64_t max_bytes = line.GetIntOr("max_bytes", 0).value();
    std::int64_t max_tuples = line.GetIntOr("max_tuples", 0).value();
    totals_->relation_bytes.push_back(
        static_cast<double>(relation_text.size()));
    auto pairs = trace->Time("graph.relation_parse", [&](std::int64_t) {
      return gqd::ReadRelationPairsText(graph, relation_text);
    });
    if (!pairs.ok()) {
      return;
    }
    std::size_t n = graph.NumNodes();
    std::size_t nnz = pairs.value().size();
    std::optional<gqd::ResourceBudget> budget;
    if (max_bytes > 0 || max_tuples > 0) {
      budget.emplace(static_cast<std::uint64_t>(max_bytes),
                     static_cast<std::uint64_t>(max_tuples));
      // The server admits the relation's estimated bytes first.
      budget->ChargeBytes(static_cast<std::int64_t>(gqd::EstimateRelationBytes(
          gqd::ChooseRelationBackend(n, nnz), n, nnz)));
    }
    const gqd::ResourceBudget* budget_ptr =
        budget.has_value() ? &budget.value() : nullptr;
    auto relation = trace->Time("graph.relation_build", [&](std::int64_t) {
      return gqd::AdaptiveRelation::FromPairs(n, std::move(pairs).value(),
                                              gqd::RelationBackend::kAuto);
    });
    std::size_t rounds = checker == "rpq" ? 0 : static_cast<std::size_t>(k);
    if ((checker == "rpq" || checker == "krem") && n <= 4096) {
      ProbeAssignmentGraph(graph, rounds, entry.fingerprint);
    }
    gqd::DefinabilityVerdict verdict =
        gqd::DefinabilityVerdict::kBudgetExhausted;
    if (checker == "rpq" || checker == "krem") {
      gqd::KRemDefinabilityOptions options;
      options.budget = budget_ptr;
      const char* span =
          checker == "rpq" ? "definability.rpq_check" : "definability.krem_check";
      std::size_t tuples = 0;
      double start = NowUs();
      if (checker == "rpq") {
        auto r = trace->Time(span, [&](std::int64_t) {
          return gqd::CheckRpqDefinability(graph, relation, options);
        });
        if (r.ok()) {
          verdict = r.value().verdict;
          tuples = r.value().tuples_explored;
        }
      } else {
        auto r = trace->Time(span, [&](std::int64_t) {
          return gqd::CheckKRemDefinability(graph, relation, rounds, options);
        });
        if (r.ok()) {
          verdict = r.value().verdict;
          tuples = r.value().tuples_explored;
        }
      }
      double ms = (NowUs() - start) / 1e3;
      totals_->counts["definability.tuples_explored"].push_back(
          static_cast<double>(tuples));
      totals_->counts["definability.tuples_per_ms"].push_back(
          ms > 0 ? static_cast<double>(tuples) / ms : 0);
    } else if (checker == "ree") {
      gqd::ReeDefinabilityOptions options;
      options.budget = budget_ptr;
      auto r = trace->Time("definability.ree_check", [&](std::int64_t) {
        return gqd::CheckReeDefinability(graph, relation, options);
      });
      if (r.ok()) {
        verdict = r.value().verdict;
        totals_->counts["definability.monoid_size"].push_back(
            static_cast<double>(r.value().monoid_size));
      }
    } else if (checker == "ucrdpq") {
      gqd::UcrdpqDefinabilityOptions options;
      options.csp.budget = budget_ptr;
      auto r = trace->Time("definability.ucrdpq_check", [&](std::int64_t) {
        return gqd::CheckUcrdpqDefinability(graph, relation, options);
      });
      if (r.ok()) {
        verdict = r.value().verdict;
        totals_->counts["homomorphism.seeds_tried"].push_back(
            static_cast<double>(r.value().seeds_tried));
        totals_->counts["homomorphism.csp_nodes"].push_back(
            static_cast<double>(r.value().csp_stats.nodes_expanded));
      }
    }
    totals_->checks++;
    if (verdict != gqd::DefinabilityVerdict::kBudgetExhausted) {
      totals_->decided++;
    }
    if (budget.has_value()) {
      totals_->bytes_peak = std::max(
          totals_->bytes_peak, static_cast<double>(budget->bytes_peak()));
    }
    body->emplace_back("checker", checker);
    body->emplace_back("verdict",
                       std::string(gqd::DefinabilityVerdictToString(verdict)));
  }

  /// The assignment-graph and dispatch-table builds the k-REM checker does
  /// internally, timed once per (graph, k) as separate probes: they repeat
  /// work the check span already contains, so they sit outside the request
  /// tree and do not count towards coverage.
  void ProbeAssignmentGraph(const gqd::DataGraph& graph, std::size_t k,
                            const std::string& fingerprint) {
    std::string key = fingerprint + "/" + std::to_string(k);
    if (!probed_.insert(key).second) {
      return;
    }
    RequestTrace probe(0, &probe_totals_);
    auto ag = probe.Time("definability.assignment_graph_build",
                         [&](std::int64_t) {
                           return gqd::AssignmentGraph::Build(graph, k);
                         });
    if (ag.ok()) {
      probe.Time("plan.dispatch_build", [&](std::int64_t) {
        return gqd::KernelDispatchTable::Build(ag.value()).total_cost();
      });
    }
    probe.Finish(log_);
    for (auto& [name, values] : probe_totals_.durations_us) {
      auto& out = totals_->durations_us[name];
      out.insert(out.end(), values.begin(), values.end());
      values.clear();
    }
  }

  std::string dir_;
  SpanLog* log_;
  ReplayTotals* totals_;
  ReplayTotals probe_totals_;
  gqd::GraphRegistry registry_;
  gqd::ResultCache cache_;
  std::unordered_map<const GenGraph*, gqd::RegisteredGraph> graphs_;
  std::set<std::string> probed_;
};

}  // namespace

void Replay(const std::vector<Request>& requests, double budget_s,
            const std::string& dir, SpanLog* log, ReplayTotals* totals) {
  Replayer replayer(dir, log, totals);
  auto start = Clock::now();
  for (const Request& request : requests) {
    if (SecondsSince(start) >= budget_s) {
      break;
    }
    replayer.Run(request);
  }
}

}  // namespace perfbench
