// Strict numeric parsing for tool command lines.
//
// The tools used to run flag values through std::atoi + std::max(1, ...),
// which silently turned "--threads 0", "--threads -4" and "--threads abc"
// into 1. These helpers reject anything that is not a full, in-range
// number with a one-line error naming the flag, so typos fail loudly
// instead of quietly running a different experiment. They throw
// std::runtime_error; the tools' top-level catch prints it as
// "error: ..." and exits non-zero.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace cocg::tools {

/// A strictly positive decimal integer ("1" or more); rejects empty,
/// trailing garbage, zero, negatives, and overflow.
inline int parse_positive_int(const std::string& flag,
                              const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end == value.c_str() || *end != '\0') {
    throw std::runtime_error(flag + " expects a positive integer, got '" +
                             value + "'");
  }
  if (errno == ERANGE || v < 1 || v > std::numeric_limits<int>::max()) {
    throw std::runtime_error(flag + " must be a positive integer in range, got '" +
                             value + "'");
  }
  return static_cast<int>(v);
}

/// A non-negative decimal integer for seeds; rejects non-numeric input
/// (strtoull's silent negative wraparound included).
inline std::uint64_t parse_u64(const std::string& flag,
                               const std::string& value) {
  errno = 0;
  char* end = nullptr;
  if (value.empty() || value[0] == '-') {
    throw std::runtime_error(flag + " expects a non-negative integer, got '" +
                             value + "'");
  }
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(flag + " expects a non-negative integer, got '" +
                             value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// A strictly positive real number; rejects non-numeric input, zero,
/// negatives, and non-finite values.
inline double parse_positive_double(const std::string& flag,
                                    const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE || !(v > 0.0) || v > std::numeric_limits<double>::max()) {
    throw std::runtime_error(flag + " expects a positive number, got '" +
                             value + "'");
  }
  return v;
}

/// A real number in [0, 1), such as a relative regression bound; rejects
/// non-numeric input, trailing garbage, non-finite values and anything
/// outside the range.
inline double parse_unit_fraction(const std::string& flag,
                                  const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE || !(v >= 0.0 && v < 1.0)) {
    throw std::runtime_error(flag + " expects a number in [0, 1), got '" +
                             value + "'");
  }
  return v;
}

}  // namespace cocg::tools
