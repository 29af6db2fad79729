// gqd_perfbench: the serving benchmark program.
//
//   gqd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--pins FILE] [--out-dir DIR] [--commit REV]
//   gqd_perfbench --pin FILE          regenerate the pinned outputs
//
// --trace 0 sets the workload up at least five times (setup_s is the
// median), then runs closed-loop clients for S seconds and prints the
// end-to-end metrics. --trace 1 prints the per-layer metrics instead: an
// untraced and a traced serving phase of S/3 each, a layer replay of the
// traced lines, and for eval-routed a direct-serving phase on the same
// lines. The last stdout line is always the JSON result.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "fleet.h"
#include "pins.h"
#include "replay.h"
#include "runtime/client.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string pins = "perfbench/expected/pins.tsv";
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

struct Sample {
  double latency_us = 0;
  bool ok = false;
  std::uint64_t id = 0;
  double done_s = 0;  ///< completion time since the phase started
  double verify_cpu_us = 0;  ///< client thread CPU spent checking it
};

/// End-to-end figures of one time slice of a phase.
struct Window {
  double throughput = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double cpu_ms_per_request = 0;
};

struct Phase {
  static constexpr std::size_t kCpuMarks = 8;

  double seconds = 0;  ///< requested length; the deck tail runs past it
  double elapsed_s = 0;
  double cpu_s = 0;
  /// Process CPU seconds at k * seconds / kCpuMarks, k = 0..kCpuMarks-1,
  /// then at the end of the phase.
  std::vector<double> cpu_marks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Client-side response checking, summed over connections.
  double verify_cpu_s = 0;
  double verify_wall_s = 0;
  std::size_t connections = 0;
  std::vector<Sample> samples;
  std::vector<Request> recorded;  ///< in id order, for the replay
  std::vector<std::string> failures;

  std::size_t completed() const { return attempted - failed; }
  double throughput() const {
    return elapsed_s > 0 ? static_cast<double>(completed()) / elapsed_s : 0;
  }
  /// Client-observed latency percentile in ms. A failed request counts
  /// as taking the whole phase, so it misses any latency limit.
  double LatencyMs(double q) const {
    std::vector<double> values;
    for (const Sample& s : samples) {
      values.push_back(s.ok ? s.latency_us / 1e3 : elapsed_s * 1e3);
    }
    return Percentile(&values, q);
  }

  /// Splits the phase into `count` equal slices of the requested length
  /// (the last slice also takes the deck tail) and summarises each. The
  /// reported figures are medians over slices, so a burst of outside load
  /// during one slice does not move them. The CPU per request leaves out
  /// the clients' own response checking (5-7% of the process CPU on the
  /// eval workloads), which no program change can move.
  std::vector<Window> Windows(std::size_t count) const {
    std::vector<Window> windows(count);
    std::vector<std::vector<double>> latencies(count);
    std::vector<std::size_t> done(count, 0);
    std::vector<double> verify_s(count, 0);
    for (const Sample& s : samples) {
      auto w = static_cast<std::size_t>(s.done_s * static_cast<double>(count) /
                                        seconds);
      w = std::min(w, count - 1);
      latencies[w].push_back(s.ok ? s.latency_us / 1e3 : elapsed_s * 1e3);
      done[w] += s.ok ? 1 : 0;
      verify_s[w] += s.verify_cpu_us / 1e6;
    }
    std::size_t step = kCpuMarks / count;
    for (std::size_t w = 0; w < count; w++) {
      double begin = seconds * static_cast<double>(w) /
                     static_cast<double>(count);
      double end = w + 1 == count ? elapsed_s
                                  : seconds * static_cast<double>(w + 1) /
                                        static_cast<double>(count);
      double cpu =
          cpu_marks[(w + 1) * step] - cpu_marks[w * step] - verify_s[w];
      Window& out = windows[w];
      out.throughput = static_cast<double>(done[w]) / (end - begin);
      out.p50_ms = Percentile(&latencies[w], 0.5);
      out.p90_ms = Percentile(&latencies[w], 0.9);
      out.cpu_ms_per_request =
          cpu * 1e3 / static_cast<double>(std::max<std::size_t>(done[w], 1));
    }
    return windows;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One request's outcome: transport errors, ok:false (sheds included)
/// and any output differing from the pins all count as failures.
bool Accept(const Request& request, const gqd::Result<std::string>& response,
            std::string* why) {
  if (!response.ok()) {
    *why = "transport: " + response.status().message();
    return false;
  }
  return VerifyResponse(request, response.value(), why);
}

/// Runs the workload's closed loop on `port` for `seconds`, and on until
/// kMinSamples requests are done, then to the end of the current deck.
/// With `client_log`, records a client span per request; keeps up to
/// `record_cap` requests for the replay.
Phase RunPhase(Workload& workload, std::uint16_t port, double seconds,
               std::uint64_t phase_index, std::size_t record_cap,
               SpanLog* client_log) {
  workload.BeginPhase(phase_index);
  std::size_t conns = workload.connections();
  std::vector<Phase> per_conn(conns);
  std::vector<std::vector<Span>> spans(conns);
  Phase phase;
  phase.seconds = seconds;
  phase.connections = conns;
  phase.cpu_marks.push_back(CpuSeconds());
  // At least 100 samples, so that 10 lie beyond the p90.
  constexpr std::size_t kMinSamples = 100;
  std::atomic<std::size_t> finished{0};
  auto start = Clock::now();
  auto time_up = [&] {
    return SecondsSince(start) >= seconds && finished.load() >= kMinSamples;
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      Phase& out = per_conn[c];
      gqd::LineClient client;
      bool connected = client.Connect(port).ok();
      Request request;
      while (workload.Next(c, time_up(), &request)) {
        if (!connected) {
          connected = client.Connect(port).ok();
        }
        double t0 = NowUs();
        gqd::Result<std::string> response =
            connected ? client.Call(request.line)
                      : gqd::Result<std::string>(
                            gqd::Status::IOError("not connected"));
        double t1 = NowUs();
        double cpu0 = ThreadCpuUs();
        std::string why;
        bool ok = Accept(request, response, &why);
        double verify_cpu_us = ThreadCpuUs() - cpu0;
        out.verify_cpu_s += verify_cpu_us / 1e6;
        out.verify_wall_s += (NowUs() - t1) / 1e6;
        out.attempted++;
        finished++;
        if (!ok) {
          out.failed++;
          if (out.failures.size() < 5) {
            out.failures.push_back(why);
          }
          if (!response.ok()) {
            client.Close();
            connected = false;
          }
        }
        std::uint64_t id = LineId(request.line);
        out.samples.push_back(
            {t1 - t0, ok, id, SecondsSince(start), verify_cpu_us});
        if (client_log != nullptr) {
          spans[c].push_back({"client.request", t0, t1, -1, id});
        }
        if (out.recorded.size() < record_cap / conns + 1) {
          out.recorded.push_back(std::move(request));
        }
      }
    });
  }
  for (std::size_t k = 1; k < Phase::kCpuMarks; k++) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        seconds * static_cast<double>(k) /
                        static_cast<double>(Phase::kCpuMarks))));
    phase.cpu_marks.push_back(CpuSeconds());
  }
  for (auto& t : threads) {
    t.join();
  }
  phase.elapsed_s = SecondsSince(start);
  phase.cpu_marks.push_back(CpuSeconds());
  phase.cpu_s = phase.cpu_marks.back() - phase.cpu_marks.front();
  for (std::size_t c = 0; c < conns; c++) {
    Phase& p = per_conn[c];
    phase.attempted += p.attempted;
    phase.failed += p.failed;
    phase.verify_cpu_s += p.verify_cpu_s;
    phase.verify_wall_s += p.verify_wall_s;
    phase.samples.insert(phase.samples.end(), p.samples.begin(),
                         p.samples.end());
    for (Request& r : p.recorded) {
      phase.recorded.push_back(std::move(r));
    }
    phase.failures.insert(phase.failures.end(), p.failures.begin(),
                          p.failures.end());
    if (client_log != nullptr) {
      for (const Span& s : spans[c]) {
        client_log->Add(s);
      }
    }
  }
  std::sort(phase.recorded.begin(), phase.recorded.end(),
            [](const Request& a, const Request& b) {
              return LineId(a.line) < LineId(b.line);
            });
  for (const std::string& why : phase.failures) {
    std::fprintf(stderr, "failed request: %s\n", why.c_str());
  }
  return phase;
}

/// Prints the share of a phase the clients spent checking responses
/// (Accept/VerifyResponse): of the process CPU, and of the connections'
/// wall time.
void PrintVerifyShare(const char* label, const Phase& phase) {
  double wall = phase.elapsed_s * static_cast<double>(phase.connections);
  std::printf("verify %s cpu_s=%.3f cpu_share=%.4f wall_share=%.4f\n", label,
              phase.verify_cpu_s,
              phase.cpu_s > 0 ? phase.verify_cpu_s / phase.cpu_s : 0.0,
              wall > 0 ? phase.verify_wall_s / wall : 0.0);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; i++) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

void PrintStamp(const Args& args) {
  std::printf(
      "stamp {\"commit\":%s,\"nproc\":%u,\"cpu\":%s,\"compiler\":%s,"
      "\"build_type\":%s,\"workload\":%s,\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d}\n",
      JsonQuote(args.commit).c_str(), std::thread::hardware_concurrency(),
      JsonQuote(CpuModel()).c_str(),
      JsonQuote(std::string("g++ ") + __VERSION__).c_str(),
      JsonQuote(GQD_BENCH_BUILD_TYPE).c_str(),
      JsonQuote(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
}

/// Prints the metric table, then the one-line JSON result (last line).
void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 std::size_t attempted, std::size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %14.4f %-10s samples=%zu\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::printf("requests attempted=%zu failed=%zu failed_frac=%.6f\n",
              attempted, failed,
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); i++) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    json += (i == 0 ? "" : ",") + JsonQuote(metrics[i].name) +
            ":{\"value\":" + value + ",\"unit\":" +
            JsonQuote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Benchmark self-checks: percentile selection, failure accounting and
/// routed-payload stripping. A benchmark that mis-measures must not run.
bool SelfCheck() {
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-check failed: %s\n", what);
      ok = false;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; i--) {
    hundred.push_back(i);
  }
  expect(Percentile(&hundred, 0.5) == 50, "p50 of 1..100 is 50");
  expect(Percentile(&hundred, 0.9) == 90, "p90 of 1..100 is 90");
  std::size_t beyond = 0;
  for (double v : hundred) {
    beyond += v > Percentile(&hundred, 0.9) ? 1 : 0;
  }
  expect(beyond == 10, "ten samples lie beyond p90 of 100");
  std::vector<double> ten = {5, 1, 9, 3, 7, 2, 8, 4, 10, 6};
  expect(Percentile(&ten, 0.9) == 9, "p90 of 1..10 is 9");

  // Failure accounting: transport error, ok:false, shed and a wrong
  // output all count; only the matching output passes.
  CheckInstance inst;
  inst.id = "self";
  CheckPin pin{"", "definable", "tuples_explored", 3, "-"};
  Request request;
  request.kind = "check:rpq";
  request.check = &inst;
  request.check_pin = &pin;
  std::string why;
  int failed = 0;
  const gqd::Result<std::string> outcomes[] = {
      gqd::Status::IOError("connection reset"),
      std::string("{\"ok\":false,\"error\":{\"code\":\"InvalidArgument\"}}"),
      std::string("{\"ok\":false,\"error\":{\"code\":\"Unavailable\","
                  "\"retry_after_ms\":50}}"),
      std::string("{\"ok\":true,\"verdict\":\"definable\","
                  "\"tuples_explored\":4}"),
      std::string("{\"ok\":true,\"verdict\":\"definable\","
                  "\"tuples_explored\":3}"),
  };
  for (const auto& outcome : outcomes) {
    failed += Accept(request, outcome, &why) ? 0 : 1;
  }
  expect(failed == 4, "four of five outcomes count as failed");

  // Routed payloads compare equal to the direct canon once the routing
  // fields are stripped, and unequal when the payload differs.
  JVal direct;
  JVal routed;
  JVal wrong;
  ParseJson("{\"id\":9,\"ok\":true,\"count\":2,\"relation\":\"v1 v2\\n\"}",
            &direct);
  ParseJson("{\"id\":3,\"ok\":true,\"count\":2,\"relation\":\"v1 v2\\n\","
            "\"served_by\":1,\"failovers\":0,\"trace_id\":\"ab\"}",
            &routed);
  ParseJson("{\"ok\":true,\"count\":3,\"relation\":\"v1 v2\\n\","
            "\"served_by\":0}",
            &wrong);
  StripRoutingFields(&direct);
  StripRoutingFields(&routed);
  StripRoutingFields(&wrong);
  expect(routed == direct, "stripped routed payload equals direct");
  expect(!(wrong == direct), "a differing payload is not equal");
  return ok;
}

std::string FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return "";
}

/// Runs full set-ups, timing each, until `min_reps` are done and they
/// took `min_total_s` together (at most kMaxSetups); the last fleet is
/// kept. Set-ups of a few milliseconds jitter by tens of percent, so
/// short ones are repeated more often to steady their median.
bool SetUp(Workload& workload, const std::string& dir,
           std::unique_ptr<Fleet>* fleet, std::size_t* failed,
           std::vector<double>* times, std::size_t min_reps,
           double min_total_s, const FleetOptions& options) {
  constexpr std::size_t kMaxSetups = 25;
  double total = 0;
  while (times->size() < min_reps ||
         (total < min_total_s && times->size() < kMaxSetups)) {
    fleet->reset();
    auto start = Clock::now();
    *fleet = std::make_unique<Fleet>();
    if (!(*fleet)->Start(options) || !workload.Setup(**fleet, dir, failed)) {
      return false;
    }
    times->push_back(SecondsSince(start));
    total += times->back();
  }
  return true;
}

/// Sums the cache and admission counters over a fleet's services.
struct ServiceCounters {
  double hits = 0;
  double misses = 0;
  double evictions = 0;
  double queued = 0;
  double shed = 0;
  std::vector<double> worker_requests;
  double failovers = 0;
};

ServiceCounters ReadCounters(Fleet& fleet) {
  ServiceCounters c;
  for (std::size_t i = 0; i < fleet.num_services(); i++) {
    gqd::ResultCache::Stats cache = fleet.service(i).cache_stats();
    gqd::AdmissionStats admission = fleet.service(i).admission_stats();
    c.hits += static_cast<double>(cache.hits);
    c.misses += static_cast<double>(cache.misses);
    c.evictions += static_cast<double>(cache.evictions);
    c.queued += static_cast<double>(admission.queued);
    c.shed += static_cast<double>(admission.shed);
  }
  if (fleet.router() != nullptr) {
    gqd::Router::Snapshot snap = fleet.router()->GetSnapshot();
    for (std::uint64_t r : snap.worker_requests) {
      c.worker_requests.push_back(static_cast<double>(r));
    }
    c.failovers = static_cast<double>(snap.failovers);
  }
  return c;
}

/// Median of a sample list, with its count.
Metric Summary(const std::string& name, const std::vector<double>& values,
               const std::string& unit, double scale = 1) {
  Metric m{name, 0, unit, values.size()};
  if (!values.empty()) {
    m.value = Median(values) * scale;
  }
  return m;
}

Metric Mean(const std::string& name, const std::vector<double>& values,
            const std::string& unit) {
  Metric m{name, 0, unit, values.size()};
  for (double v : values) {
    m.value += v / static_cast<double>(values.size());
  }
  return m;
}

int RunUntraced(const Args& args, Workload& workload,
                const std::string& dir) {
  std::unique_ptr<Fleet> fleet;
  std::size_t setup_failed = 0;
  std::vector<double> setup_times;
  if (!SetUp(workload, dir, &fleet, &setup_failed, &setup_times, 5, 1.0,
             FleetOptions{workload.routed(), nullptr})) {
    return 1;
  }
  Phase phase = RunPhase(workload, fleet->port(), args.seconds, 0, 0, nullptr);
  fleet.reset();
  // As many slices as keep at least 100 samples each, so that every
  // slice's p90 has 10 samples beyond it; at most 4.
  std::size_t count = std::clamp<std::size_t>(phase.samples.size() / 100, 1,
                                              4);
  if (count == 3) {
    count = 2;  // slices must split the CPU marks evenly
  }
  std::vector<Window> windows = phase.Windows(count);
  auto median = [&windows](double Window::*field) {
    std::vector<double> values;
    for (const Window& w : windows) {
      values.push_back(w.*field);
    }
    return Median(values);
  };
  std::size_t n = phase.samples.size();
  std::vector<Metric> metrics = {
      {"throughput_rps", median(&Window::throughput), "1/s", n},
      {"latency_p50_ms", median(&Window::p50_ms), "ms", n},
      {"latency_p90_ms", median(&Window::p90_ms), "ms", n},
      {"cpu_ms_per_request", median(&Window::cpu_ms_per_request), "ms", n},
      Summary("setup_s", setup_times, "s"),
  };
  // Peak RSS is printed but not gated: on eval-routed it follows heap
  // fragmentation, which grows with the number of requests served
  // (perfbench/NOTES.md). The traced run reports it as bench.peak_rss_mb.
  std::printf("memory peak_rss_mb=%.1f\n", PeakRssMb());
  std::printf("windows %zu of %.1f s, median reported\n", count,
              args.seconds / static_cast<double>(count));
  PrintVerifyShare("serving", phase);
  std::size_t failed = phase.failed + setup_failed;
  PrintResult(metrics, failed == 0, phase.attempted + setup_failed, failed);
  return 0;
}

int RunTraced(const Args& args, Workload& workload, const std::string& dir) {
  SpanLog log;
  FleetOptions options{workload.routed(), &log};
  std::unique_ptr<Fleet> fleet;
  std::size_t setup_failed = 0;
  std::vector<double> setup_times;
  if (!SetUp(workload, dir, &fleet, &setup_failed, &setup_times, 1, 0,
             options)) {
    return 1;
  }
  const double third = args.seconds / 3;
  Phase untraced = RunPhase(workload, fleet->port(), third, 0, 0, nullptr);
  ServiceCounters before = ReadCounters(*fleet);
  fleet->SetTracing(true);
  Phase traced = RunPhase(workload, fleet->port(), third, 1, 8192, &log);
  fleet->SetTracing(false);
  ServiceCounters after = ReadCounters(*fleet);
  // The serving peak: set-up and both serving phases, before the replay
  // below loads its own copies of the graphs.
  const double peak_rss_mb = PeakRssMb();

  // Handler spans of the traced phase, by request id.
  std::map<std::uint64_t, double> service_us;
  std::map<std::uint64_t, double> router_us;
  std::vector<double> handle_line;
  for (const Span& s : log.Snapshot()) {
    double d = s.end_us - s.start_us;
    if (std::strcmp(s.name, "service.handle_line") == 0) {
      service_us[s.request] += d;
      handle_line.push_back(d);
    } else if (std::strcmp(s.name, "router.handle_line") == 0) {
      router_us[s.request] += d;
    }
  }
  const bool routed = fleet->routed();
  std::vector<double> transport;
  std::vector<double> router_self;
  std::map<std::uint64_t, double> client_us;
  for (const Sample& s : traced.samples) {
    if (!s.ok) {
      continue;
    }
    client_us[s.id] = s.latency_us;
    const auto& handler = routed ? router_us : service_us;
    auto it = handler.find(s.id);
    if (it != handler.end()) {
      transport.push_back(s.latency_us - it->second);
    }
    auto r = router_us.find(s.id);
    auto w = service_us.find(s.id);
    if (r != router_us.end() && w != service_us.end()) {
      router_self.push_back(r->second - w->second);
    }
  }

  // Coverage: for each replayed request, the directly timed layers plus
  // the transport and router-hop shares measured around HandleLine, over
  // its client-observed latency.
  ReplayTotals totals;
  Replay(traced.recorded, third, dir, &log, &totals);
  double covered = 0;
  double observed = 0;
  const auto& front = routed ? router_us : service_us;
  for (const auto& [id, us] : totals.covered_us) {
    auto client = client_us.find(id);
    auto handled = front.find(id);
    if (client == client_us.end() || handled == front.end()) {
      continue;
    }
    covered += us + (client->second - handled->second);
    if (routed) {
      covered += handled->second - service_us[id];
    }
    observed += client->second;
  }

  // The router hop: the untraced phase's line sequence (phase 0) against
  // one direct server.
  Phase direct;
  if (routed) {
    fleet.reset();
    std::vector<double> unused;
    if (!SetUp(workload, dir, &fleet, &setup_failed, &unused, 1, 0,
               FleetOptions{})) {
      return 1;
    }
    direct = RunPhase(workload, fleet->port(), third, 0, 0, nullptr);
  }
  fleet.reset();

  auto delta = [&](double ServiceCounters::*field) {
    return after.*field - before.*field;
  };
  double lookups = delta(&ServiceCounters::hits) +
                   delta(&ServiceCounters::misses);
  double balance = 0;
  double worker_total = 0;
  double worker_max = 0;
  for (std::size_t i = 0; i < after.worker_requests.size(); i++) {
    double d = after.worker_requests[i] - before.worker_requests[i];
    worker_total += d;
    worker_max = std::max(worker_max, d);
  }
  if (worker_total > 0) {
    balance = worker_max /
              (worker_total / static_cast<double>(after.worker_requests.size()));
  }
  auto durations = [&](const char* name) -> const std::vector<double>& {
    return totals.durations_us[name];
  };
  std::size_t routed_n = routed ? traced.attempted : 0;
  std::vector<Metric> metrics = {
      Summary("common.json_parse_us", durations("common.json_parse"), "us"),
      Summary("common.json_serialize_us", durations("common.json_serialize"),
              "us"),
      Summary("runtime.handle_line_us", handle_line, "us"),
      Summary("runtime.transport_us", transport, "us"),
      Summary("runtime.cache_lookup_us", durations("runtime.cache_lookup"),
              "us"),
      {"runtime.cache_hit_ratio",
       lookups > 0 ? delta(&ServiceCounters::hits) / lookups : 0, "ratio",
       static_cast<std::size_t>(lookups)},
      {"runtime.cache_evictions", delta(&ServiceCounters::evictions), "count",
       static_cast<std::size_t>(lookups)},
      {"runtime.admission_queued", delta(&ServiceCounters::queued), "count",
       traced.attempted},
      {"runtime.shed", delta(&ServiceCounters::shed), "count",
       traced.attempted},
      Summary("runtime.registry_load_ms", durations("runtime.registry_load"),
              "ms", 1e-3),
      Summary("cluster.router_self_us", router_self, "us"),
      {"cluster.hop_ratio",
       routed && direct.LatencyMs(0.5) > 0
           ? untraced.LatencyMs(0.5) / direct.LatencyMs(0.5)
           : 0,
       "ratio", routed ? untraced.samples.size() + direct.samples.size() : 0},
      {"cluster.worker_balance", balance, "ratio", routed_n},
      {"cluster.failovers", delta(&ServiceCounters::failovers), "count",
       routed_n},
      Summary("parse.query_us", durations("parse.query"), "us"),
      Summary("plan.build_us", durations("plan.build"), "us"),
      Summary("plan.dispatch_build_ms", durations("plan.dispatch_build"), "ms",
              1e-3),
      Summary("eval.rpq_ms", durations("eval.rpq"), "ms", 1e-3),
      Summary("eval.rem_ms", durations("eval.rem"), "ms", 1e-3),
      Summary("eval.ree_ms", durations("eval.ree"), "ms", 1e-3),
      Summary("graph.relation_render_ms", durations("graph.relation_render"),
              "ms", 1e-3),
      Summary("graph.relation_parse_ms", durations("graph.relation_parse"),
              "ms", 1e-3),
      Summary("graph.relation_build_ms", durations("graph.relation_build"),
              "ms", 1e-3),
      Mean("graph.relation_bytes", totals.relation_bytes, "bytes"),
      Summary("definability.assignment_graph_build_ms",
              durations("definability.assignment_graph_build"), "ms", 1e-3),
      Summary("definability.rpq_check_ms", durations("definability.rpq_check"),
              "ms", 1e-3),
      Summary("definability.krem_check_ms",
              durations("definability.krem_check"), "ms", 1e-3),
      Summary("definability.ree_check_ms", durations("definability.ree_check"),
              "ms", 1e-3),
      Summary("definability.ucrdpq_check_ms",
              durations("definability.ucrdpq_check"), "ms", 1e-3),
      Mean("definability.tuples_explored",
           totals.counts["definability.tuples_explored"], "count"),
      Mean("definability.tuples_per_ms",
           totals.counts["definability.tuples_per_ms"], "tuples/ms"),
      Mean("definability.monoid_size",
           totals.counts["definability.monoid_size"], "count"),
      {"definability.decided_frac",
       totals.checks > 0 ? static_cast<double>(totals.decided) /
                               static_cast<double>(totals.checks)
                         : 0,
       "ratio", totals.checks},
      {"definability.bytes_peak", totals.bytes_peak, "bytes", totals.checks},
      Mean("homomorphism.seeds_tried",
           totals.counts["homomorphism.seeds_tried"], "count"),
      Mean("homomorphism.csp_nodes", totals.counts["homomorphism.csp_nodes"],
           "count"),
      Summary("storage.open_ms", durations("storage.open"), "ms", 1e-3),
      {"bench.peak_rss_mb", peak_rss_mb, "MB", 1},
      {"bench.layer_coverage", observed > 0 ? covered / observed : 0, "ratio",
       totals.replayed},
      {"bench.trace_overhead_frac",
       untraced.throughput() > 0
           ? 1 - traced.throughput() / untraced.throughput()
           : 0,
       "ratio", untraced.attempted + traced.attempted},
  };
  PrintVerifyShare("untraced", untraced);
  // One file per workload, overwritten by the next traced run: a routed
  // trace is tens of megabytes.
  std::string trace_path = args.out_dir + "/trace-" + args.workload + ".json";
  if (log.Write(trace_path)) {
    std::printf("spans written to %s\n", trace_path.c_str());
  }
  std::size_t attempted = untraced.attempted + traced.attempted +
                          direct.attempted + setup_failed;
  std::size_t failed =
      untraced.failed + traced.failed + direct.failed + setup_failed;
  PrintResult(metrics, failed == 0, attempted, failed);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--pin") == 0) {
    return GeneratePins(argv[2]);
  }
  Args args;
  args.workload = FlagValue(argc, argv, "--workload");
  std::string seed = FlagValue(argc, argv, "--seed");
  std::string seconds = FlagValue(argc, argv, "--seconds");
  std::string trace = FlagValue(argc, argv, "--trace");
  if (args.workload.empty() || seed.empty() || seconds.empty() ||
      trace.empty()) {
    std::fprintf(stderr,
                 "usage: gqd_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--pins FILE] [--out-dir DIR] [--commit REV]\n"
                 "       gqd_perfbench --pin FILE\n");
    return 2;
  }
  args.seed = std::strtoull(seed.c_str(), nullptr, 10);
  args.seconds = std::strtod(seconds.c_str(), nullptr);
  args.trace = std::atoi(trace.c_str());
  for (const char* flag : {"--pins", "--out-dir", "--commit"}) {
    std::string value = FlagValue(argc, argv, flag);
    if (value.empty()) {
      continue;
    }
    (std::strcmp(flag, "--pins") == 0      ? args.pins
     : std::strcmp(flag, "--out-dir") == 0 ? args.out_dir
                                           : args.commit) = value;
  }
  if (!SelfCheck()) {
    return 3;
  }
  Pins pins;
  if (!pins.Load(args.pins)) {
    return 1;
  }
  std::string error;
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, pins, &error);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::string dir = args.out_dir + "/work-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", dir.c_str());
    return 1;
  }
  PrintStamp(args);
  int status = args.trace != 0 ? RunTraced(args, *workload, dir)
                               : RunUntraced(args, *workload, dir);
  std::filesystem::remove_all(dir, ec);
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
