/**
 * @file
 * The one grammar for numbers from outside the process: flags, spec
 * parameters, trace_gen arguments and JSON manifest fields.
 *
 * An unsigned integer is a plain decimal (digits only: no sign, space,
 * exponent or suffix) that fits the target type, so "1e6", "-5" and
 * 2^64 are rejected rather than truncated or wrapped. A real is a
 * finite decimal double: no inf, nan, hex, leading '+' or space. Both
 * use std::from_chars, which for decimal text returns what strtod
 * does. Each parser returns std::nullopt on bad text, so every call
 * site phrases its own diagnostic.
 */

#ifndef DAPSIM_COMMON_PARSE_NUMBER_HH
#define DAPSIM_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

namespace dapsim
{

/** A plain unsigned decimal that fits @p T (uint64_t or uint32_t). */
template <class T = std::uint64_t>
std::optional<T>
parseUnsigned(std::string_view text)
{
    static_assert(std::is_unsigned_v<T>);
    T v{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last)
        return std::nullopt;
    return v;
}

/** A finite decimal double. */
inline std::optional<double>
parseFinite(std::string_view text)
{
    double v = 0.0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace dapsim

#endif // DAPSIM_COMMON_PARSE_NUMBER_HH
