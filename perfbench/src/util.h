// Small helpers shared by the benchmark program: a seeded generator, a
// content hash, nearest-rank percentiles and a monotonic clock.

#ifndef GQD_PERFBENCH_UTIL_H_
#define GQD_PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: every benchmark input is a pure function of a seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t Below(std::size_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [lo, hi].
  std::size_t Range(std::size_t lo, std::size_t hi) {
    return lo + Below(hi - lo + 1);
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; i--) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// The seed of stream `index` under `seed` (a measuring phase of a run, a
/// connection of a phase). A multiply-add then a SplitMix64 step, so no
/// seed cancels out the way `seed ^ seed` would.
inline std::uint64_t PhaseSeed(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + index).Next();
}

inline std::uint64_t Fnv1a64(std::string_view text,
                             std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string Hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; i--) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 15];
    v >>= 4;
  }
  return out;
}

/// Nearest-rank percentile of `values` (sorted in place): the smallest
/// sample with at least q of all samples at or below it. For q = 0.9 and
/// N samples, N - ceil(0.9 N) samples lie strictly beyond the result.
inline double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) {
    return 0;
  }
  std::sort(values->begin(), values->end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values->size())));
  rank = std::clamp<std::size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

/// The middle value, or the mean of the two middle values.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// JSON string literal for `text` (quotes included).
inline std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 15]);
          out.push_back(kHex[c & 15]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

using Clock = std::chrono::steady_clock;

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench

#endif  // GQD_PERFBENCH_UTIL_H_
