// Strict numeric values for command-line flags and positional arguments,
// shared by the tools in examples/. A value is accepted only when the
// whole string is one number (integers in base 10, reals finite) inside
// the flag's domain; anything else exits 2 with a message that names the
// flag (or the positional argument).
#ifndef DMASIM_UTIL_CLI_FLAGS_H_
#define DMASIM_UTIL_CLI_FLAGS_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "util/parse_number.h"
#include "util/time.h"

namespace dmasim {

// Domains the tools share. Chip and thread counts are bounded so a typo
// fails fast instead of allocating a machine's worth of simulator state;
// --duration-ms runs at least one nanosecond and at most one simulated
// hour (far inside the tick range). A memory needs two chips: PL's layout
// keeps a hot and a cold one.
inline constexpr int kMinChips = 2;
inline constexpr int kMaxChips = 4096;
inline constexpr int kMaxThreads = 1024;
inline constexpr double kMinDurationMs = 1e-6;
inline constexpr double kMaxDurationMs = 3.6e6;
// CP-Limits are degradation fractions; 10 allows an 11x slower client.
inline constexpr double kMaxCpLimit = 10.0;

class FlagParser {
 public:
  // `program` prefixes every message; `usage` is the hint printed after
  // it.
  explicit constexpr FlagParser(
      const char* program, const char* usage = "Run with --help for usage.")
      : program_(program), usage_(usage) {}

  // Prints "<program>: <message>" and the usage hint, then exits 2.
  [[noreturn]] void Fail(const std::string& message) const {
    std::cerr << program_ << ": " << message << "\n" << usage_ << "\n";
    std::exit(2);
  }

  // A base-10 integer in [lo, hi].
  template <typename Int>
  Int Integer(std::string_view flag, std::string_view text, Int lo,
              Int hi) const {
    return Integer(flag, text, NumericRange<Int>{lo, hi});
  }
  template <typename Int>
  Int Integer(std::string_view flag, std::string_view text,
              NumericRange<Int> range) const {
    Int value{};
    if (!ParseInteger(text, range, &value)) {
      Reject(flag, text, "an integer", range);
    }
    return value;
  }

  // A finite real in [lo, hi].
  double Real(std::string_view flag, std::string_view text, double lo,
              double hi) const {
    return Real(flag, text, NumericRange<double>{lo, hi});
  }
  double Real(std::string_view flag, std::string_view text,
              NumericRange<double> range) const {
    double value = 0.0;
    if (!ParseReal(text, range, &value)) {
      Reject(flag, text, "a finite number", range);
    }
    return value;
  }

  // A whole number of milliseconds, at least 1 and at most
  // kMaxDurationMs, as ticks: the examples' positional duration.
  Tick Milliseconds(std::string_view name, std::string_view text) const {
    return Integer(name, text, Tick{1}, static_cast<Tick>(kMaxDurationMs)) *
           kMillisecond;
  }

 private:
  template <typename T>
  [[noreturn]] void Reject(std::string_view flag, std::string_view text,
                           const char* kind, NumericRange<T> range) const {
    Fail(std::string(flag) + ": expected " + kind + " in [" +
         FormatBound(range.lo) + ", " + FormatBound(range.hi) + "], got '" +
         std::string(text) + "'");
  }

  const char* program_;
  const char* usage_;
};

}  // namespace dmasim

#endif  // DMASIM_UTIL_CLI_FLAGS_H_
