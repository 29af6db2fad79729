// The traced layer replay: workload lines recorded during the traced
// serving phase are replayed single-threaded in the benchmark's own code,
// calling each layer's public functions directly with a span around every
// call. The program is not instrumented; only the benchmark times it.

#ifndef GQD_PERFBENCH_REPLAY_H_
#define GQD_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "fleet.h"
#include "workloads.h"

namespace perfbench {

/// Per-layer figures gathered by the replay.
struct ReplayTotals {
  /// Call durations in microseconds, keyed by span name.
  std::map<std::string, std::vector<double>> durations_us;
  /// Per-check counts, keyed by metric name.
  std::map<std::string, std::vector<double>> counts;
  std::size_t checks = 0;
  std::size_t decided = 0;
  double bytes_peak = 0;
  std::vector<double> relation_bytes;
  /// Sum over replayed requests of the time their layer spans cover, and
  /// the request ids replayed (to match against client-observed time).
  std::map<std::uint64_t, double> covered_us;
  std::size_t replayed = 0;
};

/// Replays `requests` in order until `budget_s` seconds have passed,
/// appending spans to `log`. Scratch containers go under `dir`.
void Replay(const std::vector<Request>& requests, double budget_s,
            const std::string& dir, SpanLog* log, ReplayTotals* totals);

}  // namespace perfbench

#endif  // GQD_PERFBENCH_REPLAY_H_
