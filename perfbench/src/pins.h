// Pinned expected outputs. `gqd_perfbench --pin` computes them once,
// outside the serving path: check verdicts from the kReference engines
// (UCRDPQ from the naive homomorphism enumerator), evals cross-checked
// through the regex->REM and REE->REM embeddings. The file is checked in
// beside the benchmark and every run compares each response against it.

#ifndef GQD_PERFBENCH_PINS_H_
#define GQD_PERFBENCH_PINS_H_

#include <map>
#include <string>

#include "inputs.h"
#include "minijson.h"

namespace perfbench {

struct CheckPin {
  std::string digest;
  std::string verdict;  ///< as served: definable | not definable | budget exhausted
  std::string field;    ///< tuples_explored | monoid_size | seeds_tried | -
  double value = 0;
  std::string stage;    ///< partial stage when the budget ran out, else -
};

struct EvalPin {
  std::string digest;
  double count = 0;
  std::string hash;  ///< FNV-1a of the rendered relation text
};

class Pins {
 public:
  /// Reads a pin file; false (with a message on stderr) when unreadable.
  bool Load(const std::string& path);
  bool Save(const std::string& path) const;

  const CheckPin* FindCheck(const std::string& id) const;
  const EvalPin* FindEval(const std::string& key) const;

  std::map<std::string, CheckPin> checks;
  std::map<std::string, EvalPin> evals;  ///< key: pool/graph/query
};

/// Key of an eval pin: "<pool>/<graph index>/<query index>".
std::string EvalKey(const std::string& pool, std::size_t graph,
                    std::size_t query);

/// Compares one served check response body with its pin; on mismatch
/// returns false and describes the difference in *why.
bool MatchCheck(const CheckPin& pin, const CheckInstance& inst,
                const JVal& response, std::string* why);
/// Same for one eval result object (single eval or one batch entry).
bool MatchEval(const EvalPin& pin, const JVal& result, std::string* why);

/// Writes the pin file for every pool to `path` (the --pin mode).
int GeneratePins(const std::string& path);

}  // namespace perfbench

#endif  // GQD_PERFBENCH_PINS_H_
