// Tests for the observability subsystem: span tracer semantics (nesting,
// cross-thread drain, ring overflow, overhead when idle), the metrics
// registry with Prometheus exposition, and the Chrome trace-event export
// (including a golden-file schema check so the format stays stable for
// external tooling).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "definability/krem_definability.h"
#include "graph/examples.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

// Global allocation counter so the no-tracer-installed path can be shown
// allocation-free. Counting is binary-wide but only read as a delta around
// the code under test.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a new/free
// mismatch; the pairing is correct since operator new below mallocs.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace gqd {
namespace {

// --- Tracer ---------------------------------------------------------------

// Tests below that assert spans were *recorded* require the span sites to
// be compiled in; with -DGQD_ENABLE_TRACING=OFF they are skipped (the
// no-op behaviors and the metrics/export layers are still covered).
#ifndef GQD_DISABLE_TRACING

TEST(Tracer, RecordsNestedSpansWithParentLinks) {
  Tracer tracer;
  {
    Tracer::Scope scope(&tracer);
    GQD_TRACE_SPAN(outer, "outer");
    {
      GQD_TRACE_SPAN(inner, "inner");
      GQD_TRACE_SPAN_ATTR(inner, "value", 7);
    }
  }
  Tracer::DrainResult out = tracer.Drain();
  ASSERT_EQ(out.spans.size(), 2u);
  // Sorted by start time: outer opened first.
  const SpanRecord& outer = out.spans[0];
  const SpanRecord& inner = out.spans[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  ASSERT_EQ(inner.num_attrs, 1u);
  EXPECT_STREQ(inner.attrs[0].key, "value");
  EXPECT_EQ(inner.attrs[0].value, 7u);
  // Children close before parents, so durations nest.
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_GE(inner.start_ns, outer.start_ns);
}

#endif  // GQD_DISABLE_TRACING

TEST(Tracer, NoTracerInstalledRecordsNothing) {
  ASSERT_EQ(Tracer::Current(), nullptr);
  GQD_TRACE_SPAN(span, "ignored");
  GQD_TRACE_SPAN_ATTR(span, "key", 1);
  Tracer tracer;
  EXPECT_TRUE(tracer.Drain().spans.empty());
}

TEST(Tracer, NoTracerInstalledAllocatesNothing) {
  ASSERT_EQ(Tracer::Current(), nullptr);
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) {
    GQD_TRACE_SPAN(span, "hot");
    GQD_TRACE_SPAN_ATTR(span, "iteration", i);
  }
  std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(Tracer, NullScopeLeavesInstallationAlone) {
  Tracer tracer;
  Tracer::Scope outer(&tracer);
  {
    Tracer::Scope inner(nullptr);
    EXPECT_EQ(Tracer::Current(), &tracer);
  }
  EXPECT_EQ(Tracer::Current(), &tracer);
}

#ifndef GQD_DISABLE_TRACING

TEST(Tracer, CrossThreadDrainMergesRingsWithDistinctTids) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&tracer] {
      Tracer::Scope scope(&tracer);
      for (int i = 0; i < kSpansPerThread; i++) {
        GQD_TRACE_SPAN(span, "worker.step");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  Tracer::DrainResult out = tracer.Drain();
  EXPECT_EQ(out.spans.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::set<std::uint32_t> tids;
  std::set<std::uint64_t> span_ids;
  for (const SpanRecord& span : out.spans) {
    tids.insert(span.tid);
    span_ids.insert(span.span_id);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  // Span ids are process-unique even across threads.
  EXPECT_EQ(span_ids.size(), out.spans.size());
  ASSERT_EQ(out.totals.size(), 1u);
  EXPECT_EQ(out.totals[0].name, "worker.step");
  EXPECT_EQ(out.totals[0].count,
            static_cast<std::uint64_t>(kThreads * kSpansPerThread));
}

TEST(Tracer, RingOverflowDropsOldestButKeepsTotalsExact) {
  Tracer tracer(/*ring_capacity=*/8);
  {
    Tracer::Scope scope(&tracer);
    for (int i = 0; i < 20; i++) {
      GQD_TRACE_SPAN(span, "step");
    }
  }
  Tracer::DrainResult out = tracer.Drain();
  EXPECT_EQ(out.spans.size(), 8u);
  EXPECT_EQ(out.dropped_spans, 12u);
  ASSERT_EQ(out.totals.size(), 1u);
  EXPECT_EQ(out.totals[0].count, 20u);  // exact despite the drops
  // The retained records are the newest ones, in order.
  for (std::size_t i = 1; i < out.spans.size(); i++) {
    EXPECT_GT(out.spans[i].span_id, out.spans[i - 1].span_id);
  }
}

TEST(Tracer, DrainResetsStateForReuse) {
  Tracer tracer;
  {
    Tracer::Scope scope(&tracer);
    GQD_TRACE_SPAN(span, "first");
  }
  EXPECT_EQ(tracer.Drain().spans.size(), 1u);
  {
    Tracer::Scope scope(&tracer);
    GQD_TRACE_SPAN(span, "second");
  }
  Tracer::DrainResult out = tracer.Drain();
  ASSERT_EQ(out.spans.size(), 1u);
  EXPECT_STREQ(out.spans[0].name, "second");
}

// k-REM under a tracer: per-generation BFS spans must exist, nest under
// krem.bfs, and their durations sum to no more than the parent's (they
// partition the loop, minus witness reconstruction).
TEST(Tracer, TracedKRemGenerationSpansNestAndSum) {
  DataGraph g = Figure1Graph();
  Tracer tracer;
  {
    Tracer::Scope scope(&tracer);
    auto result = CheckKRemDefinability(g, Figure1S2(g), 2);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value().verdict, DefinabilityVerdict::kDefinable);
  }
  Tracer::DrainResult out = tracer.Drain();
  const SpanRecord* bfs = nullptr;
  std::vector<const SpanRecord*> generations;
  for (const SpanRecord& span : out.spans) {
    if (std::string(span.name) == "krem.bfs") {
      bfs = &span;
    } else if (std::string(span.name) == "krem.bfs_generation") {
      generations.push_back(&span);
    }
  }
  ASSERT_NE(bfs, nullptr);
  ASSERT_FALSE(generations.empty());
  std::uint64_t generation_sum = 0;
  for (const SpanRecord* generation : generations) {
    EXPECT_EQ(generation->parent_id, bfs->span_id);
    EXPECT_GE(generation->start_ns, bfs->start_ns);
    generation_sum += generation->dur_ns;
  }
  EXPECT_LE(generation_sum, bfs->dur_ns);
}

#endif  // GQD_DISABLE_TRACING

// --- Metrics --------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("gqd_test_total");
  counter->Inc();
  counter->Inc(4);
  EXPECT_EQ(counter->value(), 5u);
  // Same name + labels resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("gqd_test_total"), counter);

  Gauge* gauge = registry.GetGauge("gqd_test_active");
  gauge->Set(3);
  gauge->Add(-1);
  EXPECT_EQ(gauge->value(), 2);

  Histogram* histogram = registry.GetHistogram("gqd_test_latency_us");
  histogram->Observe(1);
  histogram->Observe(100);
  histogram->Observe(100);
  EXPECT_EQ(histogram->count(), 3u);
  EXPECT_EQ(histogram->sum(), 201u);
  // 100 lands in bucket [64, 127]; p50/p99 report its upper bound.
  EXPECT_EQ(histogram->QuantileUpperBound(0.99), 127u);
  EXPECT_EQ(histogram->QuantileUpperBound(0.01), 1u);
}

TEST(Metrics, LabelsCreateDistinctInstruments) {
  MetricsRegistry registry;
  Counter* eval = registry.GetCounter("gqd_cmd_total", {{"command", "eval"}});
  Counter* check = registry.GetCounter("gqd_cmd_total", {{"command", "check"}});
  EXPECT_NE(eval, check);
  eval->Inc(2);
  check->Inc(3);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("gqd_cmd_total{command=\"eval\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_cmd_total{command=\"check\"} 3"), std::string::npos)
      << text;
}

TEST(Metrics, RenderPrometheusEmitsTypedFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("gqd_requests_total")->Inc(7);
  registry.GetGauge("gqd_active")->Set(2);
  Histogram* histogram = registry.GetHistogram("gqd_latency_us");
  histogram->Observe(3);
  std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# TYPE gqd_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("gqd_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gqd_active gauge"), std::string::npos);
  EXPECT_NE(text.find("gqd_active 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gqd_latency_us histogram"), std::string::npos);
  // Cumulative buckets: 3 falls in le="3"; every later bucket and +Inf
  // carry the count, and _sum/_count close the family.
  EXPECT_NE(text.find("gqd_latency_us_bucket{le=\"3\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gqd_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gqd_latency_us_sum 3"), std::string::npos);
  EXPECT_NE(text.find("gqd_latency_us_count 1"), std::string::npos);
  // Exposition ends with a newline (scrape-format requirement).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Metrics, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("gqd_sites_total", {{"site", "a\"b\\c\nd"}})->Inc();
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("gqd_sites_total{site=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(Metrics, KindMismatchYieldsDetachedInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("gqd_thing")->Inc(5);
  // Asking for the same name as a gauge must not corrupt the counter; the
  // returned instrument is usable but never rendered.
  Gauge* gauge = registry.GetGauge("gqd_thing");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(99);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("gqd_thing 5"), std::string::npos);
  EXPECT_EQ(text.find("99"), std::string::npos) << text;
}

// --- Exports --------------------------------------------------------------

Tracer::DrainResult FixedTrace() {
  Tracer::DrainResult trace;
  SpanRecord check;
  check.name = "krem.bfs";
  check.start_ns = 1000;
  check.dur_ns = 503500;
  check.span_id = 1;
  check.parent_id = 0;
  check.tid = 0;
  check.depth = 0;
  check.attrs[0] = {"tuples_explored", 42};
  check.num_attrs = 1;
  SpanRecord generation;
  generation.name = "krem.bfs_generation";
  generation.start_ns = 2000;
  generation.dur_ns = 501000;
  generation.span_id = 2;
  generation.parent_id = 1;
  generation.tid = 0;
  generation.depth = 1;
  generation.attrs[0] = {"generation", 0};
  generation.attrs[1] = {"tuples", 17};
  generation.num_attrs = 2;
  SpanRecord worker;
  worker.name = "krem.worker_generate";
  worker.start_ns = 2500;
  worker.dur_ns = 400000;
  worker.span_id = 3;
  worker.parent_id = 0;
  worker.tid = 1;
  worker.depth = 0;
  trace.spans = {check, generation, worker};
  trace.totals = {StageTotal{"krem.bfs", 1, 503500},
                  StageTotal{"krem.bfs_generation", 1, 501000},
                  StageTotal{"krem.worker_generate", 1, 400000}};
  trace.dropped_spans = 0;
  return trace;
}

// The Chrome trace-event schema is consumed by external tools
// (chrome://tracing, Perfetto, tools/check_observability.sh); pin the
// exact serialization with a golden file.
TEST(Export, ChromeJsonMatchesGoldenFile) {
  std::string rendered = TraceToChromeJson(FixedTrace());
  std::ifstream golden_file(std::string(GQD_TESTS_DATA_DIR) +
                            "/golden_trace.json");
  ASSERT_TRUE(golden_file.is_open())
      << "missing " << GQD_TESTS_DATA_DIR << "/golden_trace.json";
  std::stringstream golden;
  golden << golden_file.rdbuf();
  std::string expected = golden.str();
  // The golden file ends with a trailing newline; the serializer does not.
  if (!expected.empty() && expected.back() == '\n') {
    expected.pop_back();
  }
  EXPECT_EQ(rendered, expected);
}

TEST(Export, ChromeJsonCarriesStageTotalsAndDrops) {
  Tracer::DrainResult trace = FixedTrace();
  trace.dropped_spans = 3;
  std::string rendered = TraceToChromeJson(trace);
  EXPECT_NE(rendered.find("\"gqdDroppedSpans\":3"), std::string::npos);
  EXPECT_NE(
      rendered.find("\"krem.bfs\":{\"count\":1,\"total_ns\":503500}"),
      std::string::npos)
      << rendered;
}

// --- TraceContext ---------------------------------------------------------

TEST(TraceContext, MintedContextRoundTripsThroughTraceparent) {
  TraceContext minted = TraceContext::Mint();
  EXPECT_TRUE(minted.valid());
  EXPECT_EQ(minted.parent_span, 0u);
  minted.parent_span = 0x1234abcd5678ef01ULL;
  std::string wire = minted.ToTraceparent();
  ASSERT_EQ(wire.size(), 55u);
  EXPECT_EQ(wire.substr(0, 3), "00-");
  EXPECT_EQ(wire.substr(53), "01");
  TraceContext parsed;
  ASSERT_TRUE(TraceContext::FromTraceparent(wire, &parsed));
  EXPECT_EQ(parsed.trace_hi, minted.trace_hi);
  EXPECT_EQ(parsed.trace_lo, minted.trace_lo);
  EXPECT_EQ(parsed.parent_span, minted.parent_span);
  EXPECT_EQ(parsed.TraceIdHex().size(), 32u);
  EXPECT_EQ(parsed.TraceIdHex(), minted.TraceIdHex());
}

TEST(TraceContext, MintedTraceIdsAreDistinct) {
  EXPECT_NE(TraceContext::Mint().TraceIdHex(),
            TraceContext::Mint().TraceIdHex());
}

TEST(TraceContext, RejectsMalformedTraceparentsWithoutTouchingOutput) {
  const char* bad[] = {
      "",
      "00-0123",
      // Version must be 00, flags 01, separators '-' in the fixed slots.
      "01-00000000000000000000000000000001-0000000000000001-01",
      "00-00000000000000000000000000000001-0000000000000001-00",
      "00x00000000000000000000000000000001-0000000000000001-01",
      "00-00000000000000000000000000000001x0000000000000001-01",
      "00-00000000000000000000000000000001-0000000000000001x01",
      // Hex is lowercase-only (the format we emit); 'g' is not hex at all.
      "00-0000000000000000000000000000000G-0000000000000001-01",
      "00-0000000000000000000000000000000g-0000000000000001-01",
      // An all-zero trace id means "untraced" and must not parse.
      "00-00000000000000000000000000000000-0000000000000001-01",
      // One char too long / too short around the right separators.
      "00-000000000000000000000000000000001-0000000000000001-01",
      "00-0000000000000000000000000000001-0000000000000001-01",
  };
  TraceContext out;
  out.trace_hi = 7;
  out.trace_lo = 9;
  for (const char* text : bad) {
    EXPECT_FALSE(TraceContext::FromTraceparent(text, &out)) << text;
  }
  EXPECT_EQ(out.trace_hi, 7u);
  EXPECT_EQ(out.trace_lo, 9u);
}

// --- Span batches (the `spans` drain wire format) -------------------------

TEST(SpanBatch, SerializeParseRoundTripPreserves64BitIds) {
  SpanRecord span;
  span.name = "route.transport";
  span.start_ns = 1234567;
  span.dur_ns = 890;
  // Both ids would lose low bits if they crossed the wire as JSON doubles.
  span.span_id = 0xfedcba9876543210ULL;
  span.parent_id = 0x0123456789abcdefULL;
  span.tid = 3;
  span.attrs[0] = {"worker", 2};
  span.num_attrs = 1;
  std::string wire = SerializeSpanBatch({span});
  EXPECT_NE(wire.find("\"span_id\":\"fedcba9876543210\""), std::string::npos)
      << wire;
  EXPECT_NE(wire.find("\"parent_id\":\"0123456789abcdef\""), std::string::npos)
      << wire;
  std::vector<OwnedSpan> parsed = ParseSpanBatch(wire, "worker 2", 4);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "route.transport");
  EXPECT_EQ(parsed[0].span_id, span.span_id);
  EXPECT_EQ(parsed[0].parent_id, span.parent_id);
  EXPECT_EQ(parsed[0].start_ns, span.start_ns);
  EXPECT_EQ(parsed[0].dur_ns, span.dur_ns);
  EXPECT_EQ(parsed[0].tid, 3u);
  EXPECT_EQ(parsed[0].pid, 4u);
  EXPECT_EQ(parsed[0].source, "worker 2");
  ASSERT_EQ(parsed[0].args.size(), 1u);
  EXPECT_EQ(parsed[0].args[0].first, "worker");
  EXPECT_EQ(parsed[0].args[0].second, 2u);
}

TEST(SpanBatch, MalformedEntriesAreSkippedNotFatal) {
  EXPECT_TRUE(ParseSpanBatch("not json", "w", 2).empty());
  EXPECT_TRUE(ParseSpanBatch("{\"x\":1}", "w", 2).empty());
  std::string mixed =
      "[{\"name\":\"\",\"span_id\":\"0000000000000001\"},"
      "{\"name\":\"bad_id\",\"span_id\":\"zz\"},"
      "{\"name\":\"good\",\"span_id\":\"0000000000000005\","
      "\"parent_id\":\"0000000000000004\","
      "\"start_ns\":10,\"dur_ns\":2,\"tid\":1,\"args\":{\"k\":3}},"
      "42]";
  std::vector<OwnedSpan> parsed = ParseSpanBatch(mixed, "w", 2);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "good");
  EXPECT_EQ(parsed[0].span_id, 5u);
  EXPECT_EQ(parsed[0].parent_id, 4u);
  ASSERT_EQ(parsed[0].args.size(), 1u);
  EXPECT_EQ(parsed[0].args[0].second, 3u);
}

// --- SpanCollector --------------------------------------------------------

SpanRecord StampedSpan(const char* name, std::uint64_t trace_hi,
                       std::uint64_t trace_lo, std::uint64_t span_id,
                       std::uint64_t start_ns) {
  SpanRecord span;
  span.name = name;
  span.trace_hi = trace_hi;
  span.trace_lo = trace_lo;
  span.span_id = span_id;
  span.start_ns = start_ns;
  return span;
}

TEST(SpanCollector, TakeExtractsOneTraceAndHoldsTheRest) {
  SpanCollector collector;
  collector.tracer()->Record(StampedSpan("a", 1, 1, 10, 5));
  collector.tracer()->Record(StampedSpan("b", 2, 2, 11, 6));
  collector.tracer()->Record(StampedSpan("c", 1, 1, 12, 1));
  std::vector<SpanRecord> first = collector.Take(1, 1);
  ASSERT_EQ(first.size(), 2u);
  // Ordered by start time regardless of record order.
  EXPECT_STREQ(first[0].name, "c");
  EXPECT_STREQ(first[1].name, "a");
  // The other trace's span stayed held across the first Take.
  std::vector<SpanRecord> second = collector.Take(2, 2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_STREQ(second[0].name, "b");
  EXPECT_TRUE(collector.Take(1, 1).empty());
  EXPECT_EQ(collector.evicted(), 0u);
}

TEST(SpanCollector, BoundedHoldingAreaEvictsOldestUndrained) {
  SpanCollector collector(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; i++) {
    collector.tracer()->Record(StampedSpan("s", 9, 9, 100 + i, i));
  }
  // Taking an absent trace still runs the eviction sweep.
  EXPECT_TRUE(collector.Take(3, 3).empty());
  EXPECT_EQ(collector.evicted(), 6u);
  std::vector<SpanRecord> rest = collector.Take(9, 9);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest.front().span_id, 106u);  // the newest four survived
  EXPECT_EQ(rest.back().span_id, 109u);
}

#ifndef GQD_DISABLE_TRACING

TEST(TraceBinding, StampsTraceIdAndReparentsRoots) {
  Tracer tracer;
  {
    Tracer::Scope scope(&tracer);
    TraceBindingScope binding(Tracer::Binding{0xaa, 0xbb, 77});
    GQD_TRACE_SPAN(root, "root");
    { GQD_TRACE_SPAN(child, "child"); }
  }
  Tracer::Binding after = Tracer::CurrentBinding();
  EXPECT_EQ(after.trace_hi, 0u);
  EXPECT_EQ(after.parent_span, 0u);
  Tracer::DrainResult out = tracer.Drain();
  ASSERT_EQ(out.spans.size(), 2u);
  const SpanRecord& root = out.spans[0];
  const SpanRecord& child = out.spans[1];
  EXPECT_STREQ(root.name, "root");
  // The root parents under the remote span id carried by the binding; the
  // child still parents locally.
  EXPECT_EQ(root.parent_id, 77u);
  EXPECT_EQ(child.parent_id, root.span_id);
  for (const SpanRecord& span : out.spans) {
    EXPECT_EQ(span.trace_hi, 0xaau);
    EXPECT_EQ(span.trace_lo, 0xbbu);
  }
}

#endif  // GQD_DISABLE_TRACING

// --- Merged cross-process traces ------------------------------------------

std::vector<OwnedSpan> FixedMergedSpans() {
  OwnedSpan transport;
  transport.name = "route.transport";
  transport.start_ns = 1000;
  transport.dur_ns = 5000;
  transport.span_id = 1;
  transport.parent_id = 0;
  transport.tid = 0;
  transport.pid = 1;
  transport.source = "router";
  transport.args = {{"worker", 0}};
  OwnedSpan request;
  request.name = "serve.request";
  request.start_ns = 2000;
  request.dur_ns = 3000;
  request.span_id = 2;
  request.parent_id = 1;  // resolves across sources to the router span
  request.tid = 0;
  request.pid = 2;
  request.source = "worker 0";
  OwnedSpan handler;
  handler.name = "serve.handler";
  handler.start_ns = 2100;
  handler.dur_ns = 2000;
  handler.span_id = 3;
  handler.parent_id = 2;
  handler.tid = 0;
  handler.pid = 2;
  handler.source = "worker 0";
  OwnedSpan orphan;
  orphan.name = "orphan";
  orphan.start_ns = 9000;
  orphan.dur_ns = 0;
  orphan.span_id = 4;
  orphan.parent_id = 999;  // absent parent → becomes a root
  orphan.tid = 1;
  orphan.pid = 2;
  orphan.source = "worker 0";
  // Deliberately out of start order: the renderer must sort.
  return {orphan, handler, transport, request};
}

// The merged-tree schema is what routed `"trace":true` responses embed;
// pin the exact serialization.
TEST(MergedTrace, SpanTreeResolvesParentsAcrossSources) {
  std::string rendered = MergedSpanTreeToJson(FixedMergedSpans());
  EXPECT_EQ(rendered,
            "[{\"name\":\"route.transport\",\"start_us\":1.000,"
            "\"dur_us\":5.000,\"tid\":0,\"source\":\"router\","
            "\"args\":{\"worker\":0},\"children\":["
            "{\"name\":\"serve.request\",\"start_us\":2.000,"
            "\"dur_us\":3.000,\"tid\":0,\"source\":\"worker 0\","
            "\"args\":{},\"children\":["
            "{\"name\":\"serve.handler\",\"start_us\":2.100,"
            "\"dur_us\":2.000,\"tid\":0,\"source\":\"worker 0\","
            "\"args\":{},\"children\":[]}]}]},"
            "{\"name\":\"orphan\",\"start_us\":9.000,\"dur_us\":0.000,"
            "\"tid\":1,\"source\":\"worker 0\",\"args\":{},"
            "\"children\":[]}]");
}

TEST(MergedTrace, ChromeJsonNamesOneProcessTrackPerSource) {
  std::string rendered = MergedTraceToChromeJson(FixedMergedSpans());
  // One metadata event per pid, named by source.
  EXPECT_NE(rendered.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                          "\"tid\":0,\"args\":{\"name\":\"router\"}}"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                          "\"tid\":0,\"args\":{\"name\":\"worker 0\"}}"),
            std::string::npos)
      << rendered;
  // Spans keep their process track and the complete-event schema.
  EXPECT_NE(rendered.find("{\"name\":\"serve.handler\",\"cat\":\"gqd\","
                          "\"ph\":\"X\",\"ts\":2.100,\"dur\":2.000,"
                          "\"pid\":2,\"tid\":0,\"args\":{}}"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// --- EventLog -------------------------------------------------------------

TEST(EventLog, RingBoundDropsOldestAndCountsDrops) {
  EventLog log(/*capacity=*/3);
  for (int i = 0; i < 5; i++) {
    log.Emit(LogLevel::kInfo, "test", "e" + std::to_string(i));
  }
  EXPECT_EQ(log.emitted(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  std::vector<LogEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().event, "e2");
  EXPECT_EQ(events.back().event, "e4");
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(EventLog, MinLevelFiltersAtEmitAndAtSnapshot) {
  EventLog log;
  log.SetMinLevel(LogLevel::kWarn);
  log.Emit(LogLevel::kInfo, "test", "suppressed");
  log.Emit(LogLevel::kError, "test", "kept");
  EXPECT_EQ(log.emitted(), 1u);
  ASSERT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.Snapshot()[0].event, "kept");
  log.SetMinLevel(LogLevel::kDebug);
  log.Emit(LogLevel::kInfo, "test", "now_kept");
  EXPECT_EQ(log.Snapshot().size(), 2u);
  // Snapshot-side filter is independent of the emit-side gate.
  ASSERT_EQ(log.Snapshot(LogLevel::kWarn).size(), 1u);
  EXPECT_EQ(log.Snapshot(LogLevel::kWarn)[0].event, "kept");
}

TEST(EventLog, EventJsonShapeParsesAndEscapesFields) {
  EventLog log;
  log.Emit(LogLevel::kWarn, "cluster", "failover",
           {{"cmd", "eval"}, {"note", "a\"b\nc"}});
  std::vector<LogEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  auto parsed = JsonValue::Parse(events[0].ToJson());
  ASSERT_TRUE(parsed.ok()) << events[0].ToJson();
  const JsonValue& event = parsed.value();
  EXPECT_EQ(event.GetStringOr("level", "").value(), "warn");
  EXPECT_EQ(event.GetStringOr("component", "").value(), "cluster");
  EXPECT_EQ(event.GetStringOr("event", "").value(), "failover");
  EXPECT_EQ(event.GetStringOr("cmd", "").value(), "eval");
  EXPECT_EQ(event.GetStringOr("note", "").value(), "a\"b\nc");
  EXPECT_GT(event.GetIntOr("seq", 0).value(), 0);
  EXPECT_GT(event.GetIntOr("ts_ms", 0).value(), 0);
  // Uncorrelated events carry no trace_id key at all.
  EXPECT_EQ(event.Find("trace_id"), nullptr);
}

#ifndef GQD_DISABLE_TRACING

TEST(EventLog, CorrelatesWithTheCurrentTraceBinding) {
  EventLog log;
  {
    TraceBindingScope binding(Tracer::Binding{0xaa, 0xbb, 0});
    log.Emit(LogLevel::kInfo, "test", "bound");
  }
  log.Emit(LogLevel::kInfo, "test", "unbound");
  std::vector<LogEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, "00000000000000aa00000000000000bb");
  EXPECT_TRUE(events[1].trace_id.empty());
  EXPECT_NE(events[0].ToJson().find(
                "\"trace_id\":\"00000000000000aa00000000000000bb\""),
            std::string::npos);
  EXPECT_EQ(events[1].ToJson().find("trace_id"), std::string::npos);
}

#endif  // GQD_DISABLE_TRACING

TEST(EventLog, FileSinkAppendsOneJsonLinePerEvent) {
  std::string path = testing::TempDir() + "gqd_eventlog_sink_test.jsonl";
  std::remove(path.c_str());
  {
    EventLog log;
    ASSERT_TRUE(log.OpenSink(path).ok());
    log.Emit(LogLevel::kInfo, "test", "one");
    log.Emit(LogLevel::kWarn, "test", "two");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonValue::Parse(line).ok()) << line;
    lines++;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(EventLog, ParseLogLevelAcceptsTheFourNames) {
  LogLevel level = LogLevel::kError;
  ASSERT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  ASSERT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  ASSERT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
}

// --- Prometheus exposition edge cases -------------------------------------

TEST(Metrics, HistogramBucketsAreCumulativeAndMonotonic) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("gqd_mono_us");
  const std::uint64_t values[] = {0, 1, 2, 3, 64, 127, 128, 1000000,
                                  ~std::uint64_t{0}};
  for (std::uint64_t value : values) {
    histogram->Observe(value);
  }
  std::string text = registry.RenderPrometheus();
  std::istringstream stream(text);
  std::string line;
  std::uint64_t previous = 0;
  std::uint64_t inf_count = 0;
  double previous_le = -1.0;
  int bucket_lines = 0;
  while (std::getline(stream, line)) {
    if (line.rfind("gqd_mono_us_bucket{le=\"", 0) != 0) {
      continue;
    }
    bucket_lines++;
    std::size_t close = line.find('"', 23);
    ASSERT_NE(close, std::string::npos) << line;
    std::string le = line.substr(23, close - 23);
    std::uint64_t count = std::stoull(line.substr(close + 2));
    // Cumulative counts never decrease as le grows.
    EXPECT_GE(count, previous) << line;
    previous = count;
    if (le == "+Inf") {
      inf_count = count;
    } else {
      // Bucket bounds are strictly increasing.
      double bound = std::stod(le);
      EXPECT_GT(bound, previous_le) << line;
      previous_le = bound;
    }
  }
  EXPECT_GE(bucket_lines, 2);
  // +Inf closes the family at the total observation count.
  EXPECT_EQ(inf_count, static_cast<std::uint64_t>(std::size(values)));
}

// Mirrors the line validator tools/check_observability.sh runs against a
// live scrape, so escaping bugs fail here before they fail in CI.
TEST(Metrics, ExpositionSurvivesTheScrapeFormatValidator) {
  MetricsRegistry registry;
  registry.GetCounter("gqd_esc_total", {{"q", "line1\nline2\"quoted\"\\s"}})
      ->Inc();
  registry.GetGauge("gqd_negative")->Set(-5);
  Histogram* histogram = registry.GetHistogram("gqd_h_us");
  histogram->Observe(10);
  std::string text = registry.RenderPrometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  const std::regex sample_re(
      "^[a-zA-Z_:][a-zA-Z0-9_:]*"
      "(\\{[a-zA-Z_][a-zA-Z0-9_]*=\"(\\\\.|[^\"\\\\])*\""
      "(,[a-zA-Z_][a-zA-Z0-9_]*=\"(\\\\.|[^\"\\\\])*\")*\\})? "
      "-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?$");
  const std::regex type_re(
      "^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$");
  std::istringstream stream(text);
  std::string line;
  bool saw_escaped = false;
  while (std::getline(stream, line)) {
    if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    }
    if (line.rfind("gqd_esc_total", 0) == 0) {
      saw_escaped = true;
      // The newline stayed escaped: the sample is still one line.
      EXPECT_NE(line.find("\\n"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_escaped);
}

TEST(Export, SpanTreeNestsChildrenAndOrphansBecomeRoots) {
  std::string tree = SpanTreeToJson(FixedTrace().spans);
  // krem.bfs_generation is nested inside krem.bfs; the worker span (whose
  // parent id 0 marks a root) renders as a second root.
  std::size_t bfs = tree.find("\"name\":\"krem.bfs\"");
  std::size_t generation = tree.find("\"name\":\"krem.bfs_generation\"");
  std::size_t worker = tree.find("\"name\":\"krem.worker_generate\"");
  ASSERT_NE(bfs, std::string::npos);
  ASSERT_NE(generation, std::string::npos);
  ASSERT_NE(worker, std::string::npos);
  EXPECT_LT(bfs, generation);
  EXPECT_LT(generation, worker);
  EXPECT_NE(tree.find("\"args\":{\"generation\":0,\"tuples\":17}"),
            std::string::npos)
      << tree;
}

}  // namespace
}  // namespace gqd
