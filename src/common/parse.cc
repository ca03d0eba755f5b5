#include "common/parse.h"

#include <cmath>
#include <stdexcept>

namespace skybyte {

std::uint64_t
parseCount(const std::string &name, const std::string &text,
           std::uint64_t max)
{
    return parseCountInRange(name, text, 0, max);
}

std::uint64_t
parseCountInRange(const std::string &name, const std::string &text,
                  std::uint64_t min, std::uint64_t max)
{
    const std::string err = name + " expects an integer in ["
                            + std::to_string(min) + ", "
                            + std::to_string(max) + "], got: " + text;
    if (text.empty()
        || text.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(err);
    std::uint64_t v = 0;
    try {
        v = std::stoull(text, nullptr, 10);
    } catch (const std::exception &) {
        throw std::invalid_argument(err); // beyond 2^64-1
    }
    if (v < min || v > max)
        throw std::invalid_argument(err);
    return v;
}

double
parseNonNegative(const std::string &name, const std::string &text)
{
    const std::string err =
        name + " expects a finite number >= 0, got: " + text;
    std::size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &used);
    } catch (const std::exception &) {
        throw std::invalid_argument(err);
    }
    if (used != text.size() || !std::isfinite(v) || v < 0.0)
        throw std::invalid_argument(err);
    return v;
}

std::uint64_t
parseMegabytes(const std::string &name, const std::string &text)
{
    constexpr std::uint64_t kMiB = 1024 * 1024;
    return parseCount(name, text,
                      std::numeric_limits<std::uint64_t>::max() / kMiB)
           * kMiB;
}

} // namespace skybyte
