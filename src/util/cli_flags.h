// Strict numeric values for command-line flags, shared by the tools in
// examples/. A value is accepted only when the whole string is one number
// (integers in base 10, reals finite) inside the flag's domain; anything
// else exits 2 with a message that names the flag.
#ifndef DMASIM_UTIL_CLI_FLAGS_H_
#define DMASIM_UTIL_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dmasim {

// Domains the tools share. Chip and thread counts are bounded so a typo
// fails fast instead of allocating a machine's worth of simulator state;
// --duration-ms runs at least one nanosecond and at most one simulated
// hour (far inside the tick range).
inline constexpr int kMaxChips = 4096;
inline constexpr int kMaxThreads = 1024;
inline constexpr double kMinDurationMs = 1e-6;
inline constexpr double kMaxDurationMs = 3.6e6;

class FlagParser {
 public:
  // `program` prefixes every message.
  explicit constexpr FlagParser(const char* program) : program_(program) {}

  // Prints "<program>: <message>" and a usage hint, then exits 2.
  [[noreturn]] void Fail(const std::string& message) const {
    std::cerr << program_ << ": " << message << "\n"
              << "Run with --help for usage.\n";
    std::exit(2);
  }

  // A base-10 integer in [lo, hi].
  template <typename Int>
  Int Integer(std::string_view flag, std::string_view text, Int lo,
              Int hi) const {
    static_assert(std::is_integral_v<Int>);
    Int value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
      Reject(flag, text, "an integer", std::to_string(lo),
             std::to_string(hi));
    }
    return value;
  }

  // A finite real in [lo, hi].
  double Real(std::string_view flag, std::string_view text, double lo,
              double hi) const {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
        value < lo || value > hi) {
      Reject(flag, text, "a finite number", Format(lo), Format(hi));
    }
    return value;
  }

 private:
  [[noreturn]] void Reject(std::string_view flag, std::string_view text,
                           const char* kind, const std::string& lo,
                           const std::string& hi) const {
    Fail(std::string(flag) + ": expected " + kind + " in [" + lo + ", " +
         hi + "], got '" + std::string(text) + "'");
  }

  static std::string Format(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
  }

  const char* program_;
};

}  // namespace dmasim

#endif  // DMASIM_UTIL_CLI_FLAGS_H_
