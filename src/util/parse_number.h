// Whole-string number parsing for command lines: the one parser the bench
// flag table and the tools share, so a typo never becomes a size, a seed or a
// tolerance.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace sgk {

/// Parses all of `text` as a decimal number into `out`. False on anything
/// else: empty text, a sign on an unsigned type, trailing characters, a value
/// out of the type's range, and NaN or infinity for floating-point types.
/// `out` holds no meaningful value after a failure.
template <typename Number>
bool parse_number(std::string_view text, Number& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<Number>) return std::isfinite(out);
  return true;
}

}  // namespace sgk
