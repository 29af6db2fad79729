// End-to-end tests for `gqd serve` over real TCP sockets: concurrent
// clients, batched evaluation vs the single-threaded evaluators, deadline
// enforcement over the wire, admission control and load shedding,
// per-request budgets, request-size limits, stats, and shutdown.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "eval/ree_eval.h"
#include "eval/rem_eval.h"
#include "eval/rpq_eval.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "obs/trace_context.h"
#include "ree/parser.h"
#include "regex/parser.h"
#include "rem/parser.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "runtime/service.h"

namespace gqd {
namespace {

/// A service + server bound to an ephemeral loopback port.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(&service_);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    server_->Stop();
    server_->Wait();
  }

  /// One request/response round trip on a fresh connection.
  std::string Call(const std::string& request) {
    LineClient client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    auto response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? response.value() : "";
  }

  QueryService service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, LoadEvalInfoRoundTrip) {
  JsonValue::Object load;
  load.emplace_back("cmd", "load");
  load.emplace_back("name", "fig1");
  load.emplace_back("text", WriteGraphText(Figure1Graph()));
  std::string loaded = Call(JsonValue(std::move(load)).Serialize());
  auto parsed = JsonValue::Parse(loaded);
  ASSERT_TRUE(parsed.ok()) << loaded;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool());
  EXPECT_EQ(parsed.value().GetString("fingerprint").ValueOrDie().size(),
            16u);
  EXPECT_EQ(parsed.value().Find("info")->Find("nodes")->AsNumber(), 10);

  std::string evaled = Call(
      R"({"id":"q1","cmd":"eval","graph":"fig1","language":"rpq",)"
      R"("query":"a.a.a"})");
  auto eval_parsed = JsonValue::Parse(evaled);
  ASSERT_TRUE(eval_parsed.ok()) << evaled;
  EXPECT_TRUE(eval_parsed.value().Find("ok")->AsBool());
  EXPECT_EQ(eval_parsed.value().GetString("id").ValueOrDie(), "q1");
  DataGraph g = Figure1Graph();
  EXPECT_EQ(eval_parsed.value().GetString("relation").ValueOrDie(),
            EvaluateRpq(g, ParseRegex("a.a.a").ValueOrDie()).ToString(g));

  std::string info = Call(R"({"cmd":"info","graph":"fig1"})");
  EXPECT_NE(info.find("\"fingerprint\""), std::string::npos) << info;
}

TEST_F(ServeTest, FourConcurrentClients) {
  service_.registry().Register("fig1", Figure1Graph());
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([this, c, &failures] {
      LineClient client;
      if (!client.Connect(server_->port()).ok()) {
        failures[c] = kRequestsPerClient;
        return;
      }
      const char* queries[] = {"a+", "a.a", "a.a.a", "a*"};
      for (int i = 0; i < kRequestsPerClient; i++) {
        JsonValue::Object request;
        request.emplace_back("cmd", "eval");
        request.emplace_back("graph", "fig1");
        request.emplace_back("language", "rpq");
        request.emplace_back("query", queries[(c + i) % 4]);
        auto response =
            client.Call(JsonValue(std::move(request)).Serialize());
        if (!response.ok() ||
            response.value().find("\"ok\":true") == std::string::npos) {
          failures[c]++;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; c++) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_GE(service_.total_requests(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

TEST_F(ServeTest, BatchMatchesSingleThreadedEval) {
  service_.registry().Register("fig1", Figure1Graph());
  DataGraph g = Figure1Graph();
  // One batch per language; each result must equal the plain
  // single-threaded evaluator's rendering (the `gqd eval` code path).
  struct Case {
    const char* language;
    std::vector<std::string> queries;
    std::vector<std::string> expected;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.language = "rpq";
    c.queries = {"a", "a.a", "a.a.a", "a+", "a*"};
    for (const std::string& q : c.queries) {
      c.expected.push_back(
          EvaluateRpq(g, ParseRegex(q).ValueOrDie()).ToString(g));
    }
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.language = "rem";
    c.queries = {"$r1. a+ [r1=]", "$r1. a.a [r1!=]"};
    for (const std::string& q : c.queries) {
      c.expected.push_back(
          EvaluateRem(g, ParseRem(q).ValueOrDie()).ToString(g));
    }
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.language = "ree";
    c.queries = {"(a.a)=", "(a+)="};
    for (const std::string& q : c.queries) {
      c.expected.push_back(
          EvaluateRee(g, ParseRee(q).ValueOrDie()).ToString(g));
    }
    cases.push_back(std::move(c));
  }
  for (const Case& test_case : cases) {
    JsonValue::Object request;
    request.emplace_back("cmd", "eval");
    request.emplace_back("graph", "fig1");
    request.emplace_back("language", test_case.language);
    JsonValue::Array queries;
    for (const std::string& q : test_case.queries) {
      queries.emplace_back(q);
    }
    request.emplace_back("queries", JsonValue(std::move(queries)));
    std::string response = Call(JsonValue(std::move(request)).Serialize());
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
    const JsonValue::Array& results =
        parsed.value().Find("results")->AsArray();
    ASSERT_EQ(results.size(), test_case.queries.size());
    for (std::size_t i = 0; i < results.size(); i++) {
      EXPECT_TRUE(results[i].Find("ok")->AsBool());
      EXPECT_EQ(results[i].GetString("relation").ValueOrDie(),
                test_case.expected[i])
          << test_case.language << " " << test_case.queries[i];
    }
  }
}

TEST_F(ServeTest, BatchReportsPerQueryErrors) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string response = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq",)"
      R"("queries":["a+","((","a.a"]})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  const JsonValue::Array& results =
      parsed.value().Find("results")->AsArray();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].Find("ok")->AsBool());
  EXPECT_FALSE(results[1].Find("ok")->AsBool());
  EXPECT_NE(results[1].Find("error"), nullptr);
  EXPECT_TRUE(results[2].Find("ok")->AsBool());
}

TEST_F(ServeTest, DeadlineExceededOverTheWire) {
  // A definability instance that runs for minutes unconstrained must come
  // back as DeadlineExceeded well within deadline + grace.
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_labels = 2;
  options.num_data_values = 6;
  options.edge_percent = 25;
  options.seed = 7;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 30, 11);
  std::string relation_text = WriteRelationText(g, s);
  service_.registry().Register("hard", std::move(g));

  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", "hard");
  request.emplace_back("checker", "krem");
  request.emplace_back("k", 3.0);
  request.emplace_back("relation", relation_text);
  request.emplace_back("deadline_ms", 100.0);
  auto start = std::chrono::steady_clock::now();
  std::string response = Call(JsonValue(std::move(request)).Serialize());
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_EQ(
      parsed.value().Find("error")->GetString("code").ValueOrDie(),
      "DeadlineExceeded")
      << response;
  EXPECT_LT(elapsed_ms, 2000.0);
}

TEST_F(ServeTest, LoadErrorsCarryLineNumbers) {
  std::string response = Call(
      R"({"cmd":"load","name":"bad","text":"node u 0\nbogus here\n"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool());
  EXPECT_NE(parsed.value()
                .Find("error")
                ->GetString("message")
                .ValueOrDie()
                .find("line 2"),
            std::string::npos)
      << response;
}

TEST_F(ServeTest, LintAndStatsCommands) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string lint = Call(
      R"({"cmd":"lint","language":"rem","query":"$r1. a+ [r1=]",)"
      R"("graph":"fig1"})");
  auto lint_parsed = JsonValue::Parse(lint);
  ASSERT_TRUE(lint_parsed.ok()) << lint;
  EXPECT_TRUE(lint_parsed.value().Find("ok")->AsBool()) << lint;
  EXPECT_TRUE(lint_parsed.value().Find("diagnostics")->is_array());

  (void)Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+"})");
  std::string stats = Call(R"({"cmd":"stats"})");
  auto stats_parsed = JsonValue::Parse(stats);
  ASSERT_TRUE(stats_parsed.ok()) << stats;
  const JsonValue* body = stats_parsed.value().Find("stats");
  ASSERT_NE(body, nullptr);
  EXPECT_GE(body->GetInt("requests").ValueOrDie(), 2);
  ASSERT_NE(body->Find("cache"), nullptr);
  ASSERT_NE(body->Find("pool"), nullptr);
  ASSERT_NE(body->Find("latency_histogram_us"), nullptr);
}

TEST_F(ServeTest, TracedEvalReturnsSpanTreeInline) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string traced = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+",)"
      R"("trace":true})");
  auto parsed = JsonValue::Parse(traced);
  ASSERT_TRUE(parsed.ok()) << traced;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << traced;
  const JsonValue* trace = parsed.value().Find("trace");
  ASSERT_NE(trace, nullptr) << traced;
  ASSERT_TRUE(trace->is_array()) << traced;
#ifndef GQD_DISABLE_TRACING
  // The span tree covers the full serving path: admission gate, cache
  // lookup, and the handler, all nested under serve.request.
  EXPECT_NE(traced.find("\"serve.request\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"serve.admission\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"serve.handler\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"serve.cache_lookup\""), std::string::npos)
      << traced;
  // A cold cache lookup reports hit: 0.
  EXPECT_NE(traced.find("\"hit\":0"), std::string::npos) << traced;
#endif  // GQD_DISABLE_TRACING

  // Without trace:true no trace field is attached.
  std::string untraced = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a.a"})");
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos) << untraced;
}

TEST_F(ServeTest, CheckReportsTheRelationParseAsSpanAndMetric) {
  DataGraph g = Figure1Graph();
  service_.registry().Register("fig1", Figure1Graph());
  std::string relation = WriteRelationText(g, Figure1S1(g));
  std::size_t pairs = Figure1S1(g).Pairs().size();
  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", "fig1");
  request.emplace_back("checker", "rpq");
  request.emplace_back("relation", relation);
  request.emplace_back("trace", true);
  std::string traced = Call(JsonValue(std::move(request)).Serialize());
  EXPECT_NE(traced.find("\"ok\":true"), std::string::npos) << traced;
#ifndef GQD_DISABLE_TRACING
  EXPECT_NE(traced.find("\"serve.relation_parse\""), std::string::npos)
      << traced;
  EXPECT_NE(traced.find("\"bytes\":" + std::to_string(relation.size())),
            std::string::npos)
      << traced;
  EXPECT_NE(traced.find("\"pairs\":" + std::to_string(pairs)),
            std::string::npos)
      << traced;
#endif  // GQD_DISABLE_TRACING
  std::string metrics = Call(R"({"cmd":"metrics"})");
  EXPECT_NE(metrics.find("gqd_relation_parse_microseconds_total"),
            std::string::npos)
      << metrics;
}

#ifndef GQD_DISABLE_TRACING

// The distributed-tracing path: a request carrying a traceparent string
// records spans quietly; the router (here: the test) drains them later
// with the `spans` command.
TEST_F(ServeTest, StringTraceContextRecordsSpansForTheSpansDrain) {
  service_.registry().Register("fig1", Figure1Graph());
  TraceContext context = TraceContext::Mint();
  context.parent_span = 42;  // plays the router's transport span

  JsonValue::Object request;
  request.emplace_back("cmd", "eval");
  request.emplace_back("graph", "fig1");
  request.emplace_back("language", "rpq");
  request.emplace_back("query", "a+");
  request.emplace_back("trace", context.ToTraceparent());
  std::string response = Call(JsonValue(std::move(request)).Serialize());
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  // The response echoes the trace id but embeds no inline tree — the
  // spans wait server-side for the drain.
  EXPECT_EQ(parsed.value().GetString("trace_id").ValueOrDie(),
            context.TraceIdHex());
  EXPECT_EQ(response.find("\"serve.request\""), std::string::npos)
      << response;

  JsonValue::Object drain;
  drain.emplace_back("cmd", "spans");
  drain.emplace_back("trace", context.ToTraceparent());
  std::string drain_line = JsonValue(std::move(drain)).Serialize();
  std::string drained = Call(drain_line);
  auto drain_parsed = JsonValue::Parse(drained);
  ASSERT_TRUE(drain_parsed.ok()) << drained;
  EXPECT_TRUE(drain_parsed.value().Find("ok")->AsBool()) << drained;
  EXPECT_EQ(drain_parsed.value().GetString("trace_id").ValueOrDie(),
            context.TraceIdHex());
  ASSERT_NE(drain_parsed.value().Find("now_ns"), nullptr) << drained;
  EXPECT_GT(drain_parsed.value().Find("now_ns")->AsNumber(), 0) << drained;
  const JsonValue* spans = drain_parsed.value().Find("spans");
  ASSERT_NE(spans, nullptr) << drained;
  ASSERT_TRUE(spans->is_array()) << drained;
  std::vector<OwnedSpan> batch =
      ParseSpanBatch(spans->Serialize(), "worker 0", 2);
  ASSERT_FALSE(batch.empty()) << drained;
  bool found_request = false;
  for (const OwnedSpan& span : batch) {
    if (span.name == "serve.request") {
      found_request = true;
      // The request root parented under the caller's span id.
      EXPECT_EQ(span.parent_id, 42u);
    }
  }
  EXPECT_TRUE(found_request) << drained;

  // Take is destructive: a second drain of the same trace is empty.
  std::string again = Call(drain_line);
  EXPECT_NE(again.find("\"spans\":[]"), std::string::npos) << again;
}

#endif  // GQD_DISABLE_TRACING

TEST_F(ServeTest, SpansCommandRejectsMissingOrMalformedTrace) {
  EXPECT_NE(Call(R"({"cmd":"spans"})").find("\"ok\":false"),
            std::string::npos);
  std::string bad = Call(R"({"cmd":"spans","trace":"garbage"})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("traceparent"), std::string::npos) << bad;
}

TEST_F(ServeTest, LogCommandReturnsStructuredEvents) {
  JsonValue::Object load;
  load.emplace_back("cmd", "load");
  load.emplace_back("name", "fig1");
  load.emplace_back("text", WriteGraphText(Figure1Graph()));
  std::string loaded = Call(JsonValue(std::move(load)).Serialize());
  EXPECT_NE(loaded.find("\"ok\":true"), std::string::npos) << loaded;

  std::string response = Call(R"({"cmd":"log"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_GE(parsed.value().GetInt("emitted").ValueOrDie(), 1);
  const JsonValue* events = parsed.value().Find("events");
  ASSERT_NE(events, nullptr) << response;
  ASSERT_TRUE(events->is_array()) << response;
  bool found_load = false;
  for (const JsonValue& event : events->AsArray()) {
    if (event.GetStringOr("event", "").ValueOrDie() == "graph_load" &&
        event.GetStringOr("graph", "").ValueOrDie() == "fig1") {
      found_load = true;
      EXPECT_EQ(event.GetStringOr("component", "").ValueOrDie(), "serve");
      EXPECT_EQ(event.GetStringOr("level", "").ValueOrDie(), "info");
    }
  }
  EXPECT_TRUE(found_load) << response;

  // The min_level filter narrows the snapshot; garbage is rejected.
  std::string errors_only = Call(R"({"cmd":"log","min_level":"error"})");
  EXPECT_NE(errors_only.find("\"ok\":true"), std::string::npos)
      << errors_only;
  EXPECT_EQ(errors_only.find("graph_load"), std::string::npos)
      << errors_only;
  EXPECT_NE(Call(R"({"cmd":"log","min_level":"loud"})").find("\"ok\":false"),
            std::string::npos);
}

TEST_F(ServeTest, MetricsCommandRendersPrometheusText) {
  service_.registry().Register("fig1", Figure1Graph());
  (void)Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+"})");
  std::string response = Call(R"({"cmd":"metrics"})");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  std::string text = parsed.value().GetString("metrics").ValueOrDie();
  // Every serving subsystem exposes at least one family.
  EXPECT_NE(text.find("# TYPE gqd_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_request_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_command_requests_total{command=\"eval\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("gqd_pool_threads"), std::string::npos);
  EXPECT_NE(text.find("gqd_admission_admitted_total"), std::string::npos);
  // Budget-axis counters are pre-registered so dashboards see zeros
  // before the first trip.
  EXPECT_NE(text.find("gqd_budget_exhausted_total{axis=\"bytes\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_budget_exhausted_total{axis=\"tuples\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_budget_exhausted_total{axis=\"wall\"}"),
            std::string::npos);
  // Failpoint sites registered anywhere in the binary are mirrored.
  EXPECT_NE(text.find("gqd_failpoint_triggered_total{site="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_failpoint_hits_total{site="), std::string::npos);
}

TEST_F(ServeTest, StatsReportPerCommandLatencyQuantiles) {
  service_.registry().Register("fig1", Figure1Graph());
  (void)Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a+"})");
  (void)Call(R"({"cmd":"ping"})");
  std::string stats = Call(R"({"cmd":"stats"})");
  auto parsed = JsonValue::Parse(stats);
  ASSERT_TRUE(parsed.ok()) << stats;
  const JsonValue* body = parsed.value().Find("stats");
  ASSERT_NE(body, nullptr);
  const JsonValue* per_command = body->Find("per_command_latency_us");
  ASSERT_NE(per_command, nullptr) << stats;
  const JsonValue* eval_latency = per_command->Find("eval");
  ASSERT_NE(eval_latency, nullptr) << stats;
  EXPECT_GE(eval_latency->GetInt("count").ValueOrDie(), 1);
  EXPECT_GE(eval_latency->GetInt("p99").ValueOrDie(),
            eval_latency->GetInt("p50").ValueOrDie());
  ASSERT_NE(body->Find("budget_exhausted"), nullptr) << stats;
  EXPECT_EQ(body->Find("budget_exhausted")->GetInt("bytes").ValueOrDie(), 0);
}

TEST_F(ServeTest, MalformedRequestsGetErrors) {
  EXPECT_NE(Call("this is not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(Call("[1,2,3]").find("must be a JSON object"),
            std::string::npos);
  EXPECT_NE(Call(R"({"cmd":"frobnicate"})").find("unknown command"),
            std::string::npos);
  EXPECT_NE(Call(R"({"cmd":"eval"})").find("graph"), std::string::npos);
}

TEST_F(ServeTest, PingRoundTrip) {
  std::string response = Call(R"({"cmd":"ping"})");
  EXPECT_NE(response.find("\"pong\":true"), std::string::npos) << response;
}

TEST_F(ServeTest, PerRequestBudgetReturnsPartialProgress) {
  // The same hard instance as DeadlineExceededOverTheWire, but bounded by a
  // per-request byte budget instead of a deadline: the response must be a
  // *successful* budget-exhausted verdict with a partial-progress report.
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_labels = 2;
  options.num_data_values = 6;
  options.edge_percent = 25;
  options.seed = 7;
  DataGraph g = RandomDataGraph(options);
  BinaryRelation s = RandomRelation(g.NumNodes(), 30, 11);
  std::string relation_text = WriteRelationText(g, s);
  service_.registry().Register("hard", std::move(g));

  JsonValue::Object request;
  request.emplace_back("cmd", "check");
  request.emplace_back("graph", "hard");
  request.emplace_back("checker", "krem");
  request.emplace_back("k", 3.0);
  request.emplace_back("relation", relation_text);
  // 4 MiB: enough for the assignment graph to build (~2.2 MiB of adjacency
  // on this instance), so the budget trips mid-BFS and yields a partial
  // verdict rather than a hard build-phase error.
  request.emplace_back("max_bytes", 4194304.0);
  std::string response = Call(JsonValue(std::move(request)).Serialize());
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed.value().Find("ok")->AsBool()) << response;
  EXPECT_EQ(parsed.value().GetString("verdict").ValueOrDie(),
            "budget exhausted")
      << response;
  const JsonValue* partial = parsed.value().Find("partial");
  ASSERT_NE(partial, nullptr) << response;
  EXPECT_EQ(partial->GetString("stage").ValueOrDie(), "krem-bfs");
  EXPECT_GT(partial->GetInt("tuples_explored").ValueOrDie(), 0);
  EXPECT_GE(partial->GetInt("bytes_peak").ValueOrDie(), 4194304);
}

TEST_F(ServeTest, CheckIgnoresThreadsField) {
  // `check` reads no `threads` field: a line that still carries one is
  // answered exactly like the same line without it.
  DataGraph g = Figure1Graph();
  std::string relation_text = WriteRelationText(g, Figure1S2(g));
  service_.registry().Register("fig1", std::move(g));
  auto check = [&](bool with_threads) {
    JsonValue::Object request;
    request.emplace_back("cmd", "check");
    request.emplace_back("graph", "fig1");
    request.emplace_back("checker", "krem");
    request.emplace_back("relation", relation_text);
    if (with_threads) {
      request.emplace_back("threads", 4.0);
    }
    auto parsed = JsonValue::Parse(
        Call(JsonValue(std::move(request)).Serialize()));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? parsed.value() : JsonValue();
  };
  JsonValue plain = check(false);
  JsonValue threaded = check(true);
  ASSERT_TRUE(plain.Find("ok")->AsBool()) << plain.Serialize();
  EXPECT_EQ(plain.GetString("verdict").ValueOrDie(), "definable");
  EXPECT_EQ(threaded.Serialize(), plain.Serialize());
}

TEST_F(ServeTest, NegativeBudgetIsRejected) {
  service_.registry().Register("fig1", Figure1Graph());
  std::string response = Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a",)"
      R"("max_bytes":-1})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("max_bytes"), std::string::npos) << response;
}

/// A service behind a deliberately tiny admission gate — one slot, no wait
/// queue — plus a hard instance to hold that slot for a while.
class ServeOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.admission.max_concurrent = 1;
    options.admission.max_queue = 0;
    options.admission.retry_after_ms = 25;
    service_ = std::make_unique<QueryService>(options);
    server_ = std::make_unique<Server>(service_.get());
    ASSERT_TRUE(server_->Start(0).ok());

    service_->registry().Register("fig1", Figure1Graph());
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 12;
    graph_options.num_labels = 2;
    graph_options.num_data_values = 6;
    graph_options.edge_percent = 25;
    graph_options.seed = 7;
    DataGraph g = RandomDataGraph(graph_options);
    relation_text_ =
        WriteRelationText(g, RandomRelation(g.NumNodes(), 30, 11));
    service_->registry().Register("hard", std::move(g));
  }

  void TearDown() override {
    server_->Stop();
    server_->Wait();
  }

  /// A check request that holds the admission slot for ~deadline_ms.
  std::string SlowCheckRequest(double deadline_ms) {
    JsonValue::Object request;
    request.emplace_back("cmd", "check");
    request.emplace_back("graph", "hard");
    request.emplace_back("checker", "krem");
    request.emplace_back("k", 3.0);
    request.emplace_back("relation", relation_text_);
    request.emplace_back("deadline_ms", deadline_ms);
    return JsonValue(std::move(request)).Serialize();
  }

  /// Spins until the in-flight slow request holds the only slot.
  bool WaitForSaturation() {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (service_->admission_stats().active >= 1) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Server> server_;
  std::string relation_text_;
};

TEST_F(ServeOverloadTest, ShedsWithRetryHintWhenSaturated) {
  std::thread slow([this] {
    LineClient client;
    if (client.Connect(server_->port()).ok()) {
      (void)client.Call(SlowCheckRequest(800.0));
    }
  });
  ASSERT_TRUE(WaitForSaturation());

  // A heavy request beyond the (zero-length) wait queue is shed
  // immediately with the configured backoff hint.
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto shed = client.Call(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a"})");
  ASSERT_TRUE(shed.ok()) << shed.status();
  auto parsed = JsonValue::Parse(shed.value());
  ASSERT_TRUE(parsed.ok()) << shed.value();
  EXPECT_FALSE(parsed.value().Find("ok")->AsBool()) << shed.value();
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr) << shed.value();
  EXPECT_EQ(error->GetString("code").ValueOrDie(), "Unavailable");
  EXPECT_EQ(error->GetInt("retry_after_ms").ValueOrDie(), 25);

  // Cheap commands bypass admission: health checks work under full load.
  auto pong = client.Call(R"({"cmd":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);
  auto stats = client.Call(R"({"cmd":"stats"})");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats.value().find("\"admission\""), std::string::npos);

  slow.join();
  EXPECT_GE(service_->shed_requests(), 1u);
  EXPECT_GE(service_->admission_stats().shed, 1u);
}

TEST_F(ServeOverloadTest, CallWithRetryRidesOutTheOverload) {
  std::thread slow([this] {
    LineClient client;
    if (client.Connect(server_->port()).ok()) {
      (void)client.Call(SlowCheckRequest(400.0));
    }
  });
  ASSERT_TRUE(WaitForSaturation());

  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  RetryPolicy policy;
  // Each shed carries the server's 25 ms retry hint, which the client
  // honours instead of its exponential schedule — so riding out the
  // 400 ms occupancy takes ~16 evenly-spaced polls, not a handful of
  // doubling ones. 30 attempts leaves slack for jitter.
  policy.max_attempts = 30;
  policy.initial_backoff = std::chrono::milliseconds(25);
  policy.jitter_seed = 42;
  auto response = client.CallWithRetry(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a"})",
      policy);
  slow.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"ok\":true"), std::string::npos)
      << response.value();
  EXPECT_GE(client.retries(), 1u);
}

/// A raw loopback connection: the framing tests below need unterminated
/// lines, odd write sizes and pipelining, which LineClient never produces.
int RawConnect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `data` in `piece`-byte writes; false once the peer is gone.
bool SendInPieces(int fd, const std::string& data, std::size_t piece) {
  for (std::size_t at = 0; at < data.size(); at += piece) {
    std::size_t length = std::min(piece, data.size() - at);
    if (::send(fd, data.data() + at, length, MSG_NOSIGNAL) !=
        static_cast<ssize_t>(length)) {
      return false;
    }
  }
  return true;
}

/// Reads until `lines` newline-terminated lines have arrived or the peer
/// closes; returns them without their newlines.
std::vector<std::string> ReadLines(int fd, std::size_t lines) {
  std::vector<std::string> out;
  std::string buffer;
  char chunk[4096];
  while (out.size() < lines) {
    std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      out.push_back(buffer.substr(0, newline));
      buffer.erase(0, newline + 1);
      continue;
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(ServeLimits, OversizedRequestLineIsRejected) {
  QueryService service;
  ServerOptions server_options;
  server_options.max_line_bytes = 1024;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  // Raw socket: LineClient always terminates its line, but this test needs
  // an *unterminated* line that outgrows the bound.
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  std::string oversized(2048, 'x');  // > max_line_bytes, no newline
  ASSERT_TRUE(SendInPieces(fd, oversized, oversized.size()));
  std::vector<std::string> response = ReadLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(response.size(), 1u);
  EXPECT_NE(response[0].find("request_too_large"), std::string::npos)
      << response[0];

  // The limit is per-connection, not per-server: the next client is fine.
  LineClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto pong = client.Call(R"({"cmd":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);

  server.Stop();
  server.Wait();
}

TEST(ServeFraming, MegabyteRequestLineWrittenInSmallPieces) {
  QueryService service;
  DataGraph g = Figure1Graph();
  service.registry().Register("fig1", Figure1Graph());
  ServerOptions server_options;
  server_options.max_line_bytes = std::size_t{4} << 20;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  // The same relation twice: once as its plain pair list, once repeated
  // past 2 MB (duplicates collapse when the relation is built), so both
  // requests must get the same verdict.
  std::string pairs = WriteRelationText(g, Figure1S1(g));
  std::string repeated;
  while (repeated.size() < (std::size_t{2} << 20)) {
    repeated += pairs;
  }
  auto check_line = [](const std::string& relation) {
    JsonValue::Object request;
    request.emplace_back("cmd", "check");
    request.emplace_back("graph", "fig1");
    request.emplace_back("checker", "rpq");
    request.emplace_back("relation", relation);
    return JsonValue(std::move(request)).Serialize();
  };
  LineClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto small = client.Call(check_line(pairs));
  ASSERT_TRUE(small.ok()) << small.status();

  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  std::string big = check_line(repeated) + "\n";
  ASSERT_GT(big.size(), std::size_t{2} << 20);
  ASSERT_TRUE(SendInPieces(fd, big, 1000));
  std::vector<std::string> responses = ReadLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(responses.size(), 1u);
  auto parsed_small = JsonValue::Parse(small.value());
  auto parsed_big = JsonValue::Parse(responses[0]);
  ASSERT_TRUE(parsed_small.ok() && parsed_big.ok()) << responses[0];
  ASSERT_TRUE(parsed_big.value().Find("ok")->AsBool()) << responses[0];
  for (const char* field : {"verdict", "relation_nnz", "tuples_explored"}) {
    ASSERT_NE(parsed_big.value().Find(field), nullptr) << field;
    EXPECT_EQ(parsed_big.value().Find(field)->Serialize(),
              parsed_small.value().Find(field)->Serialize())
        << field;
  }
  server.Stop();
  server.Wait();
}

TEST(ServeFraming, PipelinedLinesInOneSendAreAnsweredInOrder) {
  QueryService service;
  ServerOptions server_options;
  // Below the batch size but above each line: the bound is per line, so
  // a batch of short lines arriving in one read must not trip it.
  server_options.max_line_bytes = 64;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // Three requests and a blank line in one write; the blank line gets no
  // response, the others one each, in order.
  std::string batch =
      "{\"cmd\":\"ping\",\"id\":1}\n\n"
      "{\"cmd\":\"ping\",\"id\":2}\n"
      "{\"cmd\":\"bogus\",\"id\":3}\n";
  ASSERT_GT(batch.size(), server_options.max_line_bytes);
  ASSERT_TRUE(SendInPieces(fd, batch, batch.size()));
  std::vector<std::string> responses = ReadLines(fd, 3);
  // The connection stays usable after the batch.
  std::string last = "{\"cmd\":\"ping\",\"id\":4}\n";
  ASSERT_TRUE(SendInPieces(fd, last, last.size()));
  std::vector<std::string> after = ReadLines(fd, 1);
  ::close(fd);
  responses.insert(responses.end(), after.begin(), after.end());
  ASSERT_EQ(responses.size(), 4u);
  for (int i = 0; i < 4; i++) {
    auto parsed = JsonValue::Parse(responses[i]);
    ASSERT_TRUE(parsed.ok()) << responses[i];
    ASSERT_NE(parsed.value().Find("id"), nullptr) << responses[i];
    EXPECT_EQ(parsed.value().Find("id")->AsNumber(), i + 1);
    EXPECT_EQ(parsed.value().Find("ok")->AsBool(), i != 2) << responses[i];
  }
  server.Stop();
  server.Wait();
}

TEST(ServeFraming, UnterminatedLineOverTheLimitAcrossManyReads) {
  QueryService service;
  ServerOptions server_options;
  server_options.max_line_bytes = std::size_t{256} << 10;
  Server server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // One byte over the bound, in 1 KB writes with pauses so the server
  // sees the line grow over many reads. Nothing beyond the bound is sent,
  // so the server has read every byte when it refuses and closes.
  std::string unterminated(server_options.max_line_bytes + 1, 'x');
  for (std::size_t at = 0; at < unterminated.size(); at += 16 << 10) {
    std::string slice = unterminated.substr(at, 16 << 10);
    ASSERT_TRUE(SendInPieces(fd, slice, 1024));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::string> responses = ReadLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("request_too_large"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find(std::to_string(server_options.max_line_bytes)),
            std::string::npos)
      << responses[0];
  server.Stop();
  server.Wait();
}

TEST_F(ServeTest, LineClientReadsResponsesLargerThanOneReadChunk) {
  // rpq a* over a 400-node line relates every i ≤ j: ~80k pairs, a
  // response of about a megabyte.
  DataGraph line = LineGraph(std::vector<std::uint32_t>(400, 0));
  service_.registry().Register("line", line);
  std::string expected =
      EvaluateRpq(line, ParseRegex("a*").ValueOrDie()).ToString(line);
  ASSERT_GT(expected.size(), std::size_t{256} << 10);
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  for (int round = 0; round < 2; round++) {  // the buffer is reused
    auto response = client.Call(
        R"({"cmd":"eval","graph":"line","language":"rpq","query":"a*"})");
    ASSERT_TRUE(response.ok()) << response.status();
    auto parsed = JsonValue::Parse(response.value());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().GetString("relation").ValueOrDie(), expected);
  }
}

TEST_F(ServeTest, ShutdownCommandStopsServer) {
  LineClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto response = client.Call(R"({"cmd":"shutdown"})");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_NE(response.value().find("\"shutting_down\":true"),
            std::string::npos);
  server_->Wait();  // must return (and quickly) once shutdown is handled
  LineClient late;
  EXPECT_FALSE(late.Connect(server_->port()).ok());
}

}  // namespace
}  // namespace gqd
