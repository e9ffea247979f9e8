// Stream-free text formatting for the run path.
//
// Supervision units build their error-report and telemetry detail strings
// inside every simulated cycle; an std::ostringstream per message costs a
// stream construction and a locale lookup each time. These helpers append
// straight to a caller-owned std::string and print exactly what
// `operator<<` prints on a default-formatted stream: integers in decimal,
// doubles as printf's "%.{precision}g" (default precision 6).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace easis::util {

/// Appends `v` as printf("%.*g", precision, v) would print it in the "C"
/// locale — what an ostream with that precision prints. 1 <= precision
/// <= 17.
void append_double(std::string& out, double v, int precision = 6);

/// Appends the shortest "%.{p}g" text (p = 1..17) that parses back to
/// exactly `v` (0.9 prints as "0.9", not "0.90000000000000002"). NaN never
/// compares equal, so it prints at precision 17.
void append_shortest(std::string& out, double v);

/// Appends one value: text as is, a char as itself, an integer in decimal
/// and a floating-point value at the default precision 6.
template <class T>
void append_one(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    out.push_back(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(!std::is_same_v<T, bool> &&
                      !std::is_same_v<T, signed char> &&
                      !std::is_same_v<T, unsigned char>,
                  "ambiguous on a stream: cast bools and bytes explicitly");
    char buf[24];
    const auto result = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, static_cast<std::size_t>(result.ptr - buf));
  } else if constexpr (std::is_floating_point_v<T>) {
    append_double(out, static_cast<double>(v));
  } else {
    out.append(std::string_view(v));
  }
}

/// Appends every argument in order, as `stream << a << b << ...` would.
template <class... Args>
void append(std::string& out, const Args&... args) {
  (append_one(out, args), ...);
}

/// The arguments' text, concatenated (see append()), in one string sized
/// for a typical detail line.
template <class... Args>
[[nodiscard]] std::string concat(const Args&... args) {
  std::string out;
  out.reserve(64);
  append(out, args...);
  return out;
}

}  // namespace easis::util
