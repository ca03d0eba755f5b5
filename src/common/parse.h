/**
 * @file
 * Strict numeric parsing for command-line flags and environment
 * variables. The whole text must be the number: "abc" never reads as
 * 0, "-1" never wraps to 2^64-1, and an out-of-range value is an
 * error, never a silent wrap. Every error is a std::invalid_argument
 * whose message names the flag or variable it came from.
 */

#ifndef SKYBYTE_COMMON_PARSE_H
#define SKYBYTE_COMMON_PARSE_H

#include <cstdint>
#include <limits>
#include <string>

namespace skybyte {

/**
 * @p text as a decimal integer in [0, @p max]: digits only.
 * @throws std::invalid_argument naming @p name otherwise.
 */
std::uint64_t parseCount(const std::string &name, const std::string &text,
                         std::uint64_t max =
                             std::numeric_limits<std::uint64_t>::max());

/**
 * @p text as a decimal integer in [@p min, @p max]: digits only.
 * @throws std::invalid_argument naming @p name otherwise.
 */
std::uint64_t parseCountInRange(const std::string &name,
                                const std::string &text, std::uint64_t min,
                                std::uint64_t max);

/**
 * @p text as a finite number >= 0 with no trailing characters.
 * @throws std::invalid_argument naming @p name otherwise.
 */
double parseNonNegative(const std::string &name, const std::string &text);

/**
 * @p text as a whole number of MiB, returned in bytes.
 * @throws std::invalid_argument naming @p name when @p text is not
 *         digits only or the byte count overflows 64 bits.
 */
std::uint64_t parseMegabytes(const std::string &name,
                             const std::string &text);

} // namespace skybyte

#endif // SKYBYTE_COMMON_PARSE_H
