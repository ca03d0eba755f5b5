/**
 * @file
 * Paper-style result tables. Every figure/table/ablation sweep in the
 * registry (sim/sweep.h) carries a TablePrinter that reads the sweep's
 * completed result grid and writes the paper's table, so claims and
 * tables read the same SimResult fields in one place.
 *
 * Grid convention: a point's row is its first-axis label (the
 * workload in every paper sweep) and its column the remaining axis
 * labels joined with '/' (LabeledPoint::col()).
 */

#ifndef SKYBYTE_SIM_TABLE_H
#define SKYBYTE_SIM_TABLE_H

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.h"

namespace skybyte {

/** The completed (row, col) -> SimResult grid of one sweep run. */
class ResultGrid
{
  public:
    /** @p axisLabels: the value labels of every sweep axis, in order. */
    explicit ResultGrid(std::vector<std::vector<std::string>> axisLabels)
        : axes_(std::move(axisLabels))
    {}

    void set(const std::string &row, const std::string &col,
             const SimResult &result);

    /**
     * The result at (@p row, @p col).
     * @throws std::out_of_range naming the row and column when the grid
     *         has no such cell.
     */
    const SimResult &at(const std::string &row,
                        const std::string &col) const;

    /** Value labels of axis @p axis in declaration order. */
    const std::vector<std::string> &labels(std::size_t axis) const
    {
        return axes_.at(axis);
    }

  private:
    std::vector<std::vector<std::string>> axes_;
    std::map<std::pair<std::string, std::string>, SimResult> cells_;
};

/** Writes one sweep's paper table from its completed grid. */
using TablePrinter =
    std::function<void(const ResultGrid &, std::ostream &)>;

/** printf-style formatted write to @p os. */
void writef(std::ostream &os, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** A separator + table title. */
void printHeader(std::ostream &os, const std::string &title);

/** A rows x cols matrix of @p value over the grid. */
void printMatrix(std::ostream &os, const ResultGrid &grid,
                 const std::string &corner,
                 const std::vector<std::string> &rows,
                 const std::vector<std::string> &cols,
                 const std::function<double(const SimResult &)> &value,
                 const char *fmt = "%12.3f");

/**
 * Rows normalized to a baseline column (e.g. exec time vs Base-CSSD),
 * plus a geometric-mean row across workloads.
 */
void printNormalized(std::ostream &os, const ResultGrid &grid,
                     const std::vector<std::string> &workloads,
                     const std::vector<std::string> &variants,
                     const std::string &baseline,
                     const std::function<double(const SimResult &)> &value,
                     bool lowerIsBetter = true);

} // namespace skybyte

#endif // SKYBYTE_SIM_TABLE_H
