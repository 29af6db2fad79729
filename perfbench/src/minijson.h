// A minimal JSON reader owned by the benchmark. Responses are checked
// with it rather than with the program's own JSON layer, so a defect in
// that layer cannot hide itself from the check.

#ifndef GQD_PERFBENCH_MINIJSON_H_
#define GQD_PERFBENCH_MINIJSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct JVal {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JVal> items;                            ///< kArray
  std::vector<std::pair<std::string, JVal>> fields;   ///< kObject, in order

  const JVal* Get(std::string_view key) const;
  /// String field or "" when absent / not a string.
  std::string Str(std::string_view key) const;
  /// Number field or `fallback` when absent / not a number.
  double Num(std::string_view key, double fallback = -1) const;
  bool IsTrue(std::string_view key) const;
  /// Removes every top-level field named `key`.
  void Erase(std::string_view key);

  friend bool operator==(const JVal& a, const JVal& b);
};

/// Parses one JSON document; false on malformed input.
bool ParseJson(std::string_view text, JVal* out);

}  // namespace perfbench

#endif  // GQD_PERFBENCH_MINIJSON_H_
