#include "util/text.hpp"

#include <cassert>
#include <system_error>

namespace easis::util {

namespace {

// "%.17g" needs at most 24 characters ("-1.2345678901234567e-308").
constexpr std::size_t kDoubleChars = 32;

char* format_general(char (&buf)[kDoubleChars], double v, int precision) {
  const auto result = std::to_chars(buf, buf + kDoubleChars, v,
                                    std::chars_format::general, precision);
  assert(result.ec == std::errc{});
  return result.ptr;
}

}  // namespace

void append_double(std::string& out, double v, int precision) {
  assert(precision >= 1 && precision <= 17);
  char buf[kDoubleChars];
  out.append(buf, format_general(buf, v, precision));
}

void append_shortest(std::string& out, double v) {
  char buf[kDoubleChars];
  for (int precision = 1; precision < 17; ++precision) {
    char* end = format_general(buf, v, precision);
    double parsed = 0.0;
    const auto result = std::from_chars(buf, end, parsed);
    if (result.ec == std::errc{} && parsed == v) {
      out.append(buf, end);
      return;
    }
  }
  out.append(buf, format_general(buf, v, 17));
}

}  // namespace easis::util
