#include "sim/table.h"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "common/stats.h"

namespace skybyte {

void
ResultGrid::set(const std::string &row, const std::string &col,
                const SimResult &result)
{
    cells_[{row, col}] = result;
}

const SimResult &
ResultGrid::at(const std::string &row, const std::string &col) const
{
    const auto it = cells_.find({row, col});
    if (it == cells_.end()) {
        throw std::out_of_range("result grid has no cell (row \"" + row
                                + "\", column \"" + col + "\")");
    }
    return it->second;
}

void
writef(std::ostream &os, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list again;
    va_copy(again, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (n > 0) {
        std::string text(static_cast<std::size_t>(n) + 1, '\0');
        std::vsnprintf(text.data(), text.size(), fmt, again);
        os.write(text.data(), n);
    }
    va_end(again);
}

void
printHeader(std::ostream &os, const std::string &title)
{
    const char *const rule =
        "================================================================";
    os << '\n' << rule << '\n' << title << '\n' << rule << '\n';
}

void
printMatrix(std::ostream &os, const ResultGrid &grid,
            const std::string &corner, const std::vector<std::string> &rows,
            const std::vector<std::string> &cols,
            const std::function<double(const SimResult &)> &value,
            const char *fmt)
{
    writef(os, "%-16s", corner.c_str());
    for (const auto &c : cols)
        writef(os, "%12s", c.substr(0, 12).c_str());
    os << '\n';
    for (const auto &r : rows) {
        writef(os, "%-16s", r.c_str());
        for (const auto &c : cols)
            writef(os, fmt, value(grid.at(r, c)));
        os << '\n';
    }
}

void
printNormalized(std::ostream &os, const ResultGrid &grid,
                const std::vector<std::string> &workloads,
                const std::vector<std::string> &variants,
                const std::string &baseline,
                const std::function<double(const SimResult &)> &value,
                bool lowerIsBetter)
{
    writef(os, "%-16s", "workload");
    for (const auto &v : variants)
        writef(os, "%14s", v.substr(0, 14).c_str());
    os << '\n';
    std::vector<std::vector<double>> norm(variants.size());
    for (const auto &w : workloads) {
        writef(os, "%-16s", w.c_str());
        const double base = value(grid.at(w, baseline));
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const double x = value(grid.at(w, variants[i]));
            const double n = base > 0 ? x / base : 0.0;
            norm[i].push_back(n);
            writef(os, "%14.3f", n);
        }
        os << '\n';
    }
    writef(os, "%-16s", "geo.mean");
    for (std::size_t i = 0; i < variants.size(); ++i)
        writef(os, "%14.3f", geoMean(norm[i]));
    os << '\n';
    writef(os, "(normalized to %s; %s is better)\n", baseline.c_str(),
           lowerIsBetter ? "lower" : "higher");
}

} // namespace skybyte
