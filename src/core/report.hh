/**
 * @file
 * Figure/table rendering: ASCII tables matching the paper's figures
 * plus CSV export.
 */

#ifndef MIGC_CORE_REPORT_HH
#define MIGC_CORE_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/metrics.hh"

namespace migc
{

/** One figure: workloads x series of values. */
struct FigureData
{
    std::string title;
    std::string valueLabel;
    std::vector<std::string> workloads;       ///< row labels
    std::vector<std::string> series;          ///< column labels
    /** values[s][w] = series s, workload w. */
    std::vector<std::vector<double>> values;

    double at(std::size_t series_idx, std::size_t workload_idx) const;
};

/** Render @p fig as an aligned ASCII table. */
void printFigure(std::ostream &os, const FigureData &fig,
                 int precision = 3);

/** Write @p fig as CSV (rows = workloads, columns = series). */
void writeFigureCsv(const std::string &path, const FigureData &fig);

/** Geometric mean of @p v (ignores non-positive entries). */
double geoMean(const std::vector<double> &v);

} // namespace migc

#endif // MIGC_CORE_REPORT_HH
