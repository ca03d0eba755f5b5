#include "common/check.h"

#include <stdexcept>
#include <string_view>

namespace skybyte {

void
checkFailed(const char *file, int line, const char *cond,
            const std::string &msg)
{
    // Report the path from src/ on, so the message does not depend on
    // where the checkout sits.
    std::string_view path(file);
    if (const auto at = path.rfind("src/"); at != std::string_view::npos)
        path.remove_prefix(at);
    throw std::logic_error(std::string(path) + ":" + std::to_string(line)
                           + ": check `" + cond + "` failed: " + msg);
}

} // namespace skybyte
