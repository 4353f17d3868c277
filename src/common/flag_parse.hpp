#pragma once

// Numeric flag values for the command-line tools: the whole text must be the
// number, so "abc", "2x", " 5", an overflow or a value outside [lo, hi] is
// refused instead of running as 0 or a wrapped port.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace repchain {

/// Parse all of `text` as a decimal integer in [lo, hi] into `out`; false
/// (and `out` untouched) when it is not one.
inline bool parse_in_range(const char* text, long lo, long hi, long& out) {
  if (std::isspace(static_cast<unsigned char>(*text))) return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return false;
  }
  out = value;
  return true;
}

/// Parse all of `text` as a finite decimal number in [lo, hi] into `out`.
inline bool parse_in_range(const char* text, double lo, double hi, double& out) {
  if (std::isspace(static_cast<unsigned char>(*text))) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value) ||
      value < lo || value > hi) {
    return false;
  }
  out = value;
  return true;
}

/// `text`, the value given for `flag`, as a number in [lo, hi]; anything
/// else is reported and ends in the tool's `usage`, which must not return.
template <typename T, typename Usage>
T flag_value(const char* flag, const char* text, T lo, T hi, Usage usage) {
  T out{};
  if (!parse_in_range(text, lo, hi, out)) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag, text);
    usage();
  }
  return out;
}

}  // namespace repchain
