// The serving stack under test, hosted in the benchmark process on
// loopback TCP: one `Server` over a `QueryService` (direct), or a
// `Server` over a `Router` over worker `Server`s (routed). For the traced
// run every handler is wrapped in a benchmark-owned `TimedHandler`, which
// records a span around each `HandleLine`; the program itself carries no
// benchmark tracing and its own `Tracer` stays uninstalled.

#ifndef GQD_PERFBENCH_FLEET_H_
#define GQD_PERFBENCH_FLEET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "inputs.h"
#include "runtime/server.h"
#include "runtime/service.h"

namespace perfbench {

/// Writes `g` as a .gqdg container. Named nodes ("v<i>") render like
/// the text form; anonymous nodes are addressed as "#<i>", which resolves
/// in constant time on large graphs.
bool WriteContainer(const GenGraph& g, const std::string& path, bool named);

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same log, or -1.
struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory for the whole run and written once at exit.
class SpanLog {
 public:
  std::int64_t Add(const Span& span);
  /// Appends one request's spans; their `parent` fields index into
  /// `spans` itself and are rebased onto the log.
  void AddTree(std::vector<Span> spans);
  std::vector<Span> Snapshot() const;
  /// Writes every span as one JSON array.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Reads the leading "id" of a request line ({"id":N,...}); 0 if absent.
std::uint64_t LineId(const std::string& line);

/// Wraps a LineHandler and, while enabled, records one span per call.
class TimedHandler : public gqd::LineHandler {
 public:
  TimedHandler(gqd::LineHandler* inner, const char* span_name, SpanLog* log)
      : inner_(inner), name_(span_name), log_(log) {}

  std::string HandleLine(const std::string& line, bool* shutdown) override;

  std::atomic<bool> enabled{false};

 private:
  gqd::LineHandler* inner_;
  const char* name_;
  SpanLog* log_;
};

/// A routed fleet is always 2 workers with replication 2, and every
/// server takes request lines up to 64 MiB (check-large sends relations
/// of a few MiB inline).
struct FleetOptions {
  bool routed = false;
  /// Wrap every handler in a TimedHandler logging to `log`.
  SpanLog* log = nullptr;
};

class Fleet {
 public:
  Fleet() = default;
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  bool Start(const FleetOptions& options);
  void Stop();

  /// The port clients connect to (the router front when routed).
  std::uint16_t port() const { return front_->port(); }
  bool routed() const { return router_ != nullptr; }
  /// Turns span recording on or off in every wrapper.
  void SetTracing(bool on);

  std::size_t num_services() const { return services_.size(); }
  gqd::QueryService& service(std::size_t i) { return *services_[i]; }
  gqd::Router* router() { return router_.get(); }

 private:
  std::vector<std::unique_ptr<gqd::QueryService>> services_;
  std::vector<std::unique_ptr<TimedHandler>> wrappers_;
  std::vector<std::unique_ptr<gqd::Server>> workers_;  ///< routed only
  std::unique_ptr<gqd::Router> router_;
  std::unique_ptr<gqd::Server> front_;
};

}  // namespace perfbench

#endif  // GQD_PERFBENCH_FLEET_H_
