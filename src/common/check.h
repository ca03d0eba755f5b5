/**
 * @file
 * Always-on invariant checks. SKYBYTE_CHECK stays active in Release
 * builds (unlike assert), so a broken invariant ends the run with a
 * catchable std::logic_error naming the file, line and condition
 * instead of undefined behaviour further down.
 */

#ifndef SKYBYTE_COMMON_CHECK_H
#define SKYBYTE_COMMON_CHECK_H

#include <string>

namespace skybyte {

/** Throw std::logic_error("file:line: check `cond` failed: msg"). */
[[noreturn]] void checkFailed(const char *file, int line, const char *cond,
                              const std::string &msg);

} // namespace skybyte

/**
 * Throw std::logic_error unless @p cond holds. @p msg (a string or
 * string expression) is only evaluated when the check fails.
 */
#define SKYBYTE_CHECK(cond, msg)                                         \
    do {                                                                 \
        if (!(cond)) [[unlikely]]                                        \
            ::skybyte::checkFailed(__FILE__, __LINE__, #cond, (msg));    \
    } while (0)

#endif // SKYBYTE_COMMON_CHECK_H
