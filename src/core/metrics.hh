/**
 * @file
 * Per-run metrics: everything the paper's figures are built from.
 *
 * The numeric columns are declared once, in RunValues, in CSV column
 * order. RunValues is trivially copyable and is exactly the v4
 * cache's fixed-width metric row (cache_v4.hh), so storing and
 * loading a row is a memcpy and csvRow() formats a row straight out
 * of a mapped image. runWorkloadOn (runner.hh) fills the values from
 * the System's stat tree; docs/ARCHITECTURE.md maps every column to
 * its tree path.
 */

#ifndef MIGC_CORE_METRICS_HH
#define MIGC_CORE_METRICS_HH

#include <string>
#include <string_view>
#include <type_traits>

#include "sim/types.hh"

namespace migc
{

/** The numeric columns of one run, in CSV column order. */
struct RunValues
{
    /** Wall time of the workload, host launch overheads included. */
    Tick execTicks = 0;
    double execSeconds = 0.0;

    /** Coalesced line requests issued by the CUs (Fig. 5 / Fig. 8
     *  denominator). */
    double gpuMemRequests = 0.0;

    /** DRAM bursts serviced (Fig. 7 / Fig. 11). */
    double dramReads = 0.0;
    double dramWrites = 0.0;
    double dramAccesses = 0.0;

    /** DRAM row-buffer behavior (Fig. 9 / Fig. 13). */
    double dramRowHitRate = 0.0;

    /** Cache stall cycles summed over L1s + L2 banks (Fig. 8 /
     *  Fig. 12). */
    double cacheStallCycles = 0.0;
    double stallsPerRequest = 0.0;

    /** Compute and memory bandwidth (Fig. 4 / Fig. 5). */
    double vops = 0.0;
    double gvops = 0.0;
    double gmrps = 0.0;

    /** Cache behavior breakdowns (diagnostics / ablations). */
    double l1Hits = 0.0;
    double l1Misses = 0.0;
    double l2Hits = 0.0;
    double l2Misses = 0.0;
    double l2Writebacks = 0.0;
    double rinseWritebacks = 0.0;
    double allocBypassed = 0.0;
    double predictorBypasses = 0.0;

    double kernels = 0.0;

    /**
     * Simulator events processed for this run (a cost, not a
     * modeled-hardware metric). The sweep engine's longest-job-first
     * scheduler uses it as the duration estimate for repeat runs.
     */
    double simEvents = 0.0;
};
static_assert(std::is_trivially_copyable_v<RunValues>,
              "RunValues is stored and mapped as raw bytes");

/** One run: its names plus its values. */
struct RunMetrics : RunValues
{
    std::string workload;
    std::string policy;

    /** Never set and never serialized; perfbench/grid.cc reads it. */
    bool placeholder = false;

    /** Serialize to CSV (schema in csvHeader()). */
    std::string toCsv() const;

    static std::string csvHeader();

    /**
     * Parse a line produced by toCsv(); returns false on mismatch,
     * including any field that is not wholly a number (exec_ticks
     * must be plain decimal digits).
     */
    static bool fromCsv(const std::string &line, RunMetrics &out);
};

/** The CSV row of (@p workload, @p policy, @p values) - the one
 *  formatter behind toCsv(), served rows, and merge comparisons. */
std::string csvRow(std::string_view workload, std::string_view policy,
                   const RunValues &values);

} // namespace migc

#endif // MIGC_CORE_METRICS_HH
