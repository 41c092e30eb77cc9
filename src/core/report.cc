#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "core/cache_v4.hh"
#include "sim/logging.hh"

namespace migc
{

double
FigureData::at(std::size_t series_idx, std::size_t workload_idx) const
{
    panic_if(series_idx >= values.size() ||
                 workload_idx >= values[series_idx].size(),
             "figure index out of range");
    return values[series_idx][workload_idx];
}

void
printFigure(std::ostream &os, const FigureData &fig, int precision)
{
    os << "== " << fig.title << " ==\n";
    if (!fig.valueLabel.empty())
        os << "   (" << fig.valueLabel << ")\n";

    std::size_t name_w = 9;
    for (const auto &w : fig.workloads)
        name_w = std::max(name_w, w.size() + 1);
    std::size_t col_w = 12;
    for (const auto &s : fig.series)
        col_w = std::max(col_w, s.size() + 2);

    os << std::left << std::setw(static_cast<int>(name_w)) << "workload";
    for (const auto &s : fig.series)
        os << std::right << std::setw(static_cast<int>(col_w)) << s;
    os << "\n";

    for (std::size_t w = 0; w < fig.workloads.size(); ++w) {
        os << std::left << std::setw(static_cast<int>(name_w))
           << fig.workloads[w];
        for (std::size_t s = 0; s < fig.series.size(); ++s) {
            os << std::right << std::setw(static_cast<int>(col_w))
               << std::fixed << std::setprecision(precision)
               << fig.values[s][w];
        }
        os << "\n";
    }
    os.unsetf(std::ios::fixed);
    os << "\n";
}

void
writeFigureCsv(const std::string &path, const FigureData &fig)
{
    // Write-then-rename, like the run cache: concurrent processes
    // writing the same figure in one directory each land a complete
    // file instead of interleaving into one.
    std::ostringstream out;
    out << "workload";
    for (const auto &s : fig.series)
        out << "," << s;
    out << "\n";
    for (std::size_t w = 0; w < fig.workloads.size(); ++w) {
        out << fig.workloads[w];
        for (std::size_t s = 0; s < fig.series.size(); ++s)
            out << "," << fig.values[s][w];
        out << "\n";
    }
    std::string error;
    if (!writeFileAtomic(path, out.str(), &error))
        warn("could not write figure CSV to %s: %s", path.c_str(),
             error.c_str());
}

double
geoMean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (double x : v) {
        if (x > 0) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

} // namespace migc
