// Strict whole-string numbers with named domains, for every reader of
// numeric text: command-line flags (util/cli_flags.h) and the `key
// value` files dmasim_check reads (src/check/counterexample.cc). A value
// is accepted only when the whole string is one number (integers in base
// 10, reals finite) inside its domain.
#ifndef DMASIM_UTIL_PARSE_NUMBER_H_
#define DMASIM_UTIL_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dmasim {

// A closed numeric domain [lo, hi], named once and shared by every
// parser that reads the value.
template <typename T>
struct NumericRange {
  T lo;
  T hi;
};

// True, with the value in `*out`, when `text` is exactly one number
// inside `range`. Nothing is written otherwise; callers report their own
// errors (FlagParser exits 2 naming the flag).
template <typename Int>
bool ParseInteger(std::string_view text, NumericRange<Int> range, Int* out) {
  static_assert(std::is_integral_v<Int>);
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < range.lo ||
      value > range.hi) {
    return false;
  }
  *out = value;
  return true;
}

inline bool ParseReal(std::string_view text, NumericRange<double> range,
                      double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < range.lo || value > range.hi) {
    return false;
  }
  *out = value;
  return true;
}

// Formats a domain bound for messages: integers exactly, reals as an
// ostream prints them.
template <typename T>
std::string FormatBound(T value) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    std::ostringstream out;
    out << value;
    return out.str();
  }
}

}  // namespace dmasim

#endif  // DMASIM_UTIL_PARSE_NUMBER_H_
