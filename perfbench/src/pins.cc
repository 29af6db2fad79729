#include "pins.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "definability/krem_definability.h"
#include "definability/ree_definability.h"
#include "definability/rpq_definability.h"
#include "eval/convert.h"
#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "fleet.h"
#include "graph/serialization.h"
#include "homomorphism/data_graph_hom.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"
#include "runtime/service.h"

namespace perfbench {

std::string EvalKey(const std::string& pool, std::size_t graph,
                    std::size_t query) {
  return pool + "/" + std::to_string(graph) + "/" + std::to_string(query);
}

bool Pins::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read pins %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::vector<std::string> cols;
    std::stringstream ss(line);
    std::string col;
    while (std::getline(ss, col, '\t')) {
      cols.push_back(col);
    }
    if (cols[0] == "check" && cols.size() == 7) {
      checks[cols[1]] = {cols[2], cols[3], cols[4], std::stod(cols[5]),
                         cols[6]};
    } else if (cols[0] == "eval" && cols.size() == 5) {
      evals[cols[1]] = {cols[2], std::stod(cols[3]), cols[4]};
    } else {
      std::fprintf(stderr, "error: bad pin line: %s\n", line.c_str());
      return false;
    }
  }
  return true;
}

bool Pins::Save(const std::string& path) const {
  std::ofstream out(path);
  out << "# Pinned expected outputs of the gqd serving benchmark; regenerate\n"
         "# with `gqd_perfbench --pin <file>` (see perfbench/NOTES.md).\n"
         "# check <id> <input digest> <verdict> <count field> <value> "
         "<partial stage>\n"
         "# eval <pool/graph/query> <input digest> <count> <relation hash>\n";
  for (const auto& [id, pin] : checks) {
    out << "check\t" << id << "\t" << pin.digest << "\t" << pin.verdict
        << "\t" << pin.field << "\t" << static_cast<std::uint64_t>(pin.value)
        << "\t" << pin.stage << "\n";
  }
  for (const auto& [key, pin] : evals) {
    out << "eval\t" << key << "\t" << pin.digest << "\t"
        << static_cast<std::uint64_t>(pin.count) << "\t" << pin.hash << "\n";
  }
  return static_cast<bool>(out);
}

const CheckPin* Pins::FindCheck(const std::string& id) const {
  auto it = checks.find(id);
  return it == checks.end() ? nullptr : &it->second;
}

const EvalPin* Pins::FindEval(const std::string& key) const {
  auto it = evals.find(key);
  return it == evals.end() ? nullptr : &it->second;
}

bool MatchCheck(const CheckPin& pin, const CheckInstance& inst,
                const JVal& response, std::string* why) {
  if (!response.IsTrue("ok")) {
    *why = "check " + inst.id + " not ok";
    return false;
  }
  if (response.Str("verdict") != pin.verdict) {
    *why = "check " + inst.id + " verdict '" + response.Str("verdict") +
           "' != pinned '" + pin.verdict + "'";
    return false;
  }
  if (pin.field != "-" && response.Num(pin.field) != pin.value) {
    *why = "check " + inst.id + " " + pin.field + " " +
           std::to_string(response.Num(pin.field)) + " != pinned " +
           std::to_string(pin.value);
    return false;
  }
  if (pin.stage != "-") {
    const JVal* partial = response.Get("partial");
    std::string stage = partial != nullptr ? partial->Str("stage") : "";
    if (stage != pin.stage) {
      *why = "check " + inst.id + " stage '" + stage + "' != pinned '" +
             pin.stage + "'";
      return false;
    }
  }
  return true;
}

bool MatchEval(const EvalPin& pin, const JVal& result, std::string* why) {
  if (!result.IsTrue("ok")) {
    *why = "eval not ok: " + result.Str("query");
    return false;
  }
  std::string hash = Hex64(Fnv1a64(result.Str("relation")));
  if (result.Num("count") != pin.count || hash != pin.hash) {
    *why = "eval '" + result.Str("query") + "' count " +
           std::to_string(result.Num("count")) + " hash " + hash +
           " != pinned " + std::to_string(pin.count) + " " + pin.hash;
    return false;
  }
  return true;
}

namespace {

using gqd::BinaryRelation;
using gqd::DataGraph;

std::string CountField(const std::string& checker) {
  if (checker == "ree") {
    return "monoid_size";
  }
  if (checker == "ucrdpq") {
    return "seeds_tried";
  }
  return "tuples_explored";
}

/// Lemma 34 by brute force: S is UCRDPQ-definable iff every data-graph
/// homomorphism maps S into S. Returns "" when the enumeration cap is hit.
std::string NaiveUcrdpqVerdict(const DataGraph& graph,
                               const BinaryRelation& s) {
  constexpr std::size_t kCap = 5'000'000;
  auto homs = gqd::EnumerateHomomorphisms(graph, kCap);
  if (!homs.ok() || homs.value().size() >= kCap) {
    return "";
  }
  std::size_t n = graph.NumNodes();
  for (const auto& h : homs.value()) {
    for (gqd::NodeId u = 0; u < n; u++) {
      for (gqd::NodeId v = 0; v < n; v++) {
        if (s.Test(u, v) && !s.Test(h[u], h[v])) {
          return "not definable";
        }
      }
    }
  }
  return "definable";
}

/// The reference pin of one small instance: kReference engines for
/// rpq/krem/ree, the naive enumerator for the UCRDPQ verdict.
bool ReferencePin(const CheckInstance& inst, const JVal& served,
                  CheckPin* pin) {
  DataGraph graph = gqd::ReadGraphText(GraphText(inst.graph)).value();
  auto pairs = gqd::ReadRelationPairsText(graph, inst.relation_text).value();
  BinaryRelation s(graph.NumNodes());
  for (const auto& [u, v] : pairs) {
    s.Set(u, v);
  }
  gqd::ResourceBudget budget(inst.max_bytes, inst.max_tuples);
  pin->digest = inst.Digest();
  pin->field = CountField(inst.checker);
  std::optional<gqd::PartialProgress> partial;
  if (inst.checker == "rpq" || inst.checker == "krem") {
    gqd::KRemDefinabilityOptions options;
    options.engine = gqd::KRemEngine::kReference;
    options.budget = &budget;
    if (inst.checker == "rpq") {
      auto r = gqd::CheckRpqDefinability(graph, s, options).value();
      pin->verdict = gqd::DefinabilityVerdictToString(r.verdict);
      pin->value = static_cast<double>(r.tuples_explored);
      partial = r.partial;
    } else {
      auto r = gqd::CheckKRemDefinability(graph, s, inst.k, options).value();
      pin->verdict = gqd::DefinabilityVerdictToString(r.verdict);
      pin->value = static_cast<double>(r.tuples_explored);
      partial = r.partial;
    }
  } else if (inst.checker == "ree") {
    gqd::ReeDefinabilityOptions options;
    options.engine = gqd::ReeEngine::kReference;
    options.budget = &budget;
    auto r = gqd::CheckReeDefinability(graph, s, options).value();
    pin->verdict = gqd::DefinabilityVerdictToString(r.verdict);
    pin->value = static_cast<double>(r.monoid_size);
    partial = r.partial;
  } else {
    pin->verdict = NaiveUcrdpqVerdict(graph, s);
    if (pin->verdict.empty()) {
      std::fprintf(stderr, "  %s: naive enumeration capped\n",
                   inst.id.c_str());
      return false;
    }
    // The naive oracle has no seed count; the served count is pinned
    // once the verdicts agree.
    pin->value = served.Num("seeds_tried");
  }
  pin->stage = partial.has_value() ? partial->stage : "-";
  if (pin->verdict == "budget exhausted") {
    pin->field = "-";
    pin->value = 0;
  }
  return true;
}

/// The served response of one line from an in-process QueryService.
JVal Serve(gqd::QueryService& service, const std::string& line) {
  bool shutdown = false;
  JVal out;
  ParseJson(service.HandleLine(line, &shutdown), &out);
  return out;
}

bool PinChecks(const std::vector<CheckInstance>& pool, Pins* pins) {
  bool ok = true;
  gqd::QueryService service;
  for (const CheckInstance& inst : pool) {
    Serve(service, LoadTextLine(inst.id, GraphText(inst.graph), 0));
    auto start = Clock::now();
    JVal served = Serve(service, CheckLine(inst, inst.id, 0));
    double served_ms = SecondsSince(start) * 1e3;
    start = Clock::now();
    CheckPin pin;
    if (!ReferencePin(inst, served, &pin)) {
      ok = false;
      continue;
    }
    double reference_ms = SecondsSince(start) * 1e3;
    std::string why;
    bool agree = MatchCheck(pin, inst, served, &why);
    std::fprintf(stderr, "  %-14s %-16s %s=%g stage=%s served %.2f ms, "
                 "reference %.2f ms%s%s\n",
                 inst.id.c_str(), pin.verdict.c_str(), pin.field.c_str(),
                 pin.value, pin.stage.c_str(), served_ms, reference_ms,
                 agree ? "" : "  DISAGREES: ", agree ? "" : why.c_str());
    ok = ok && agree;
    pins->checks[inst.id] = pin;
  }
  return ok;
}

/// Count and hash of one eval, cross-checked through the REM embedding.
bool ReferenceEval(const DataGraph& graph, const EvalQuery& q, EvalPin* pin) {
  BinaryRelation direct(graph.NumNodes());
  BinaryRelation embedded(graph.NumNodes());
  if (q.language == "rpq") {
    gqd::RegexPtr e = gqd::ParseRegex(q.text).value();
    direct = gqd::EvaluateRpq(graph, e);
    embedded = gqd::EvaluateRem(graph, gqd::RegexToRem(e));
  } else if (q.language == "ree") {
    gqd::ReePtr e = gqd::ParseRee(q.text).value();
    direct = gqd::EvaluateRee(graph, e);
    embedded = gqd::EvaluateRem(graph, gqd::ReeToRem(e));
  } else {
    direct = gqd::EvaluateRem(graph, gqd::ParseRem(q.text).value());
    embedded = direct;
  }
  if (direct.ToString(graph) != embedded.ToString(graph)) {
    std::fprintf(stderr, "  %s '%s': embedding disagrees\n",
                 q.language.c_str(), q.text.c_str());
    return false;
  }
  pin->count = static_cast<double>(direct.Count());
  pin->hash = Hex64(Fnv1a64(direct.ToString(graph)));
  return true;
}

bool PinEvals(const std::string& pool_name,
              const std::vector<GenGraph>& graphs,
              const std::vector<EvalQuery>& queries, Pins* pins) {
  bool ok = true;
  gqd::QueryService service;
  double served_ms[3] = {0, 0, 0};
  std::size_t served_n[3] = {0, 0, 0};
  for (std::size_t g = 0; g < graphs.size(); g++) {
    DataGraph graph = gqd::ReadGraphText(GraphText(graphs[g])).value();
    std::uint64_t graph_hash = GraphHash(graphs[g]);
    std::string name = pool_name + std::to_string(g);
    Serve(service, LoadTextLine(name, GraphText(graphs[g]), 0));
    for (std::size_t q = 0; q < queries.size(); q++) {
      EvalPin pin;
      pin.digest = EvalDigest(graph_hash, queries[q]);
      if (!ReferenceEval(graph, queries[q], &pin)) {
        ok = false;
        continue;
      }
      auto start = Clock::now();
      JVal served = Serve(service, EvalLine(name, queries[q], 0));
      std::size_t lang = queries[q].language == "rpq"   ? 0
                         : queries[q].language == "rem" ? 1
                                                        : 2;
      served_ms[lang] += SecondsSince(start) * 1e3;
      served_n[lang]++;
      std::string why;
      if (!MatchEval(pin, served, &why)) {
        std::fprintf(stderr, "  %s: served eval DISAGREES: %s\n",
                     name.c_str(), why.c_str());
        ok = false;
      }
      pins->evals[EvalKey(pool_name, g, q)] = pin;
    }
  }
  const char* kLangs[] = {"rpq", "rem", "ree"};
  for (int l = 0; l < 3; l++) {
    std::fprintf(stderr, "  %s %s: %zu evals, mean served %.3f ms\n",
                 pool_name.c_str(), kLangs[l], served_n[l],
                 served_n[l] > 0 ? served_ms[l] / served_n[l] : 0.0);
  }
  return ok;
}

/// Large instances have no reference engine that fits in memory. The grid
/// relation is R_{a.b}, RPQ-definable by construction, which is checked;
/// the served counts and budget stages are pinned as measured.
bool PinLarge(Pins* pins) {
  bool ok = true;
  std::vector<CheckInstance> large = {LargeGridInstance()};
  for (std::size_t i = 0; i < kLargeScaleFreePool; i++) {
    large.push_back(LargeScaleFreeInstance(i));
  }
  gqd::ServiceOptions service_options;
  for (const CheckInstance& inst : large) {
    gqd::QueryService service(service_options);
    std::string path = ".pin_" + inst.id + ".gqdg";
    if (!WriteContainer(inst.graph, path, /*named=*/false)) {
      return false;
    }
    Serve(service, LoadPathLine(inst.id, path, 0));
    std::remove(path.c_str());
    auto start = Clock::now();
    JVal served = Serve(service, CheckLine(inst, inst.id, 0));
    double ms = SecondsSince(start) * 1e3;
    CheckPin pin;
    pin.digest = inst.Digest();
    pin.verdict = served.Str("verdict");
    pin.field = "tuples_explored";
    pin.value = served.Num("tuples_explored");
    const JVal* partial = served.Get("partial");
    pin.stage = partial != nullptr ? partial->Str("stage") : "-";
    if (pin.verdict == "budget exhausted") {
      pin.field = "-";
      pin.value = 0;
    }
    if (inst.id == "grid-300" && pin.verdict != "definable") {
      std::fprintf(stderr, "  grid-300: served '%s', expected definable\n",
                   pin.verdict.c_str());
      ok = false;
    }
    std::fprintf(stderr, "  %-14s %-16s %s=%g stage=%s backend=%s %.1f ms\n",
                 inst.id.c_str(), pin.verdict.c_str(), pin.field.c_str(),
                 pin.value, pin.stage.c_str(),
                 served.Str("relation_backend").c_str(), ms);
    pins->checks[inst.id] = pin;
  }
  return ok;
}

}  // namespace

int GeneratePins(const std::string& path) {
  Pins pins;
  bool ok = true;
  std::fprintf(stderr, "check-serve pool:\n");
  ok = PinChecks(CheckServePool(), &pins) && ok;
  std::fprintf(stderr, "eval-routed checks:\n");
  ok = PinChecks(RoutedChecks(RoutedGraphPool()), &pins) && ok;
  std::fprintf(stderr, "eval-routed evals:\n");
  ok = PinEvals("routed", RoutedGraphPool(), RoutedQueries(), &pins) && ok;
  std::fprintf(stderr, "eval-cold evals:\n");
  ok = PinEvals("cold", ColdGraphPool(), ColdQueries(), &pins) && ok;
  std::fprintf(stderr, "check-large:\n");
  ok = PinLarge(&pins) && ok;
  if (!ok) {
    std::fprintf(stderr, "error: reference and served outputs disagree; "
                         "pins not written\n");
    return 1;
  }
  return pins.Save(path) ? 0 : 1;
}

}  // namespace perfbench
