// The four closed-loop workloads. Each builds its inputs from the run
// seed (or picks them from a pinned pool by the seed), stands up its part
// of the serving stack, and hands out request lines together with what
// the response must contain.

#ifndef GQD_PERFBENCH_WORKLOADS_H_
#define GQD_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet.h"
#include "inputs.h"
#include "minijson.h"
#include "pins.h"

namespace perfbench {

/// One request line and its expected output.
struct Request {
  std::string line;
  std::string kind;  ///< check:<checker> | eval:<language> | batch:<language> | load
  const CheckInstance* check = nullptr;
  const CheckPin* check_pin = nullptr;
  std::vector<const EvalPin*> eval_pins;  ///< one per query
  /// Routed only: the direct server's payload for the same line, with
  /// "id" removed; routed responses must equal it once the routing fields
  /// are stripped.
  const JVal* canon = nullptr;
  /// Graph the request targets, for the traced replay.
  const GenGraph* graph = nullptr;
  std::string container_path;  ///< load by path only
};

/// Checks one response against its request's expectation. Transport
/// errors are counted by the caller; everything else lands here.
bool VerifyResponse(const Request& request, const std::string& response,
                    std::string* why);

/// Removes the fields a router adds (served_by, failovers, trace_id) and
/// the echoed id, leaving the payload a direct server would have sent.
void StripRoutingFields(JVal* response);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t connections() const = 0;
  /// True when the workload is served by a router over workers.
  virtual bool routed() const { return false; }
  /// Builds inputs under `dir`, loads them through `fleet` and warms it.
  /// Returns false on a fatal set-up error; verification failures of
  /// set-up requests are added to *failed.
  virtual bool Setup(Fleet& fleet, const std::string& dir,
                     std::size_t* failed) = 0;
  /// Restarts the request streams for measuring phase `phase` of the
  /// run. They are drawn from PhaseSeed(run seed, phase): the run seed
  /// orders the requests, and a phase index repeats its sequence.
  virtual void BeginPhase(std::uint64_t phase) = 0;
  /// The next request of connection `conn`, or false when the phase is
  /// over. Once `time_up`, streams run on to the end of their current
  /// deck so every phase sends whole decks and a fixed request mix.
  virtual bool Next(std::size_t conn, bool time_up, Request* out) = 0;
};

/// Makes the named workload, or null. `pins` must outlive it.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, const Pins& pins,
                                       std::string* error);

}  // namespace perfbench

#endif  // GQD_PERFBENCH_WORKLOADS_H_
