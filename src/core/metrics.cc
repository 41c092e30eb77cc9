#include "core/metrics.hh"

#include <charconv>
#include <sstream>
#include <system_error>
#include <vector>

#include "sim/logging.hh"

namespace migc
{

namespace
{

/**
 * Parse all of @p s as a @p T: no leading space or '+', no trailing
 * characters, in range. For the unsigned exec_ticks that means plain
 * decimal digits; std::stoull would read "5abc" as 5 and wrap "-1".
 */
template <typename T>
bool
parseWhole(const std::string &s, T &out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

std::string
RunMetrics::csvHeader()
{
    return "workload,policy,exec_ticks,exec_seconds,gpu_mem_requests,"
           "dram_reads,dram_writes,dram_accesses,dram_row_hit_rate,"
           "cache_stall_cycles,stalls_per_request,vops,gvops,gmrps,"
           "l1_hits,l1_misses,l2_hits,l2_misses,l2_writebacks,"
           "rinse_writebacks,alloc_bypassed,predictor_bypasses,kernels,"
           "sim_events";
}

std::string
csvRow(std::string_view workload, std::string_view policy,
       const RunValues &v)
{
    return csprintf(
        "%.*s,%.*s,%llu,%.9e,%.0f,%.0f,%.0f,%.0f,%.9f,%.0f,%.9f,%.0f,"
        "%.6f,%.6f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f",
        static_cast<int>(workload.size()), workload.data(),
        static_cast<int>(policy.size()), policy.data(),
        static_cast<unsigned long long>(v.execTicks), v.execSeconds,
        v.gpuMemRequests, v.dramReads, v.dramWrites, v.dramAccesses,
        v.dramRowHitRate, v.cacheStallCycles, v.stallsPerRequest, v.vops,
        v.gvops, v.gmrps, v.l1Hits, v.l1Misses, v.l2Hits, v.l2Misses,
        v.l2Writebacks, v.rinseWritebacks, v.allocBypassed,
        v.predictorBypasses, v.kernels, v.simEvents);
}

std::string
RunMetrics::toCsv() const
{
    return csvRow(workload, policy, *this);
}

bool
RunMetrics::fromCsv(const std::string &line, RunMetrics &out)
{
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string item;
    while (std::getline(ss, item, ','))
        fields.push_back(item);
    // 23 fields is the pre-sim_events schema; those rows are still
    // valid results, just without a scheduler cost estimate.
    if (fields.size() != 23 && fields.size() != 24)
        return false;

    RunValues v;
    if (!parseWhole(fields[2], v.execTicks))
        return false;
    double *const numbers[] = {
        &v.execSeconds,    &v.gpuMemRequests,  &v.dramReads,
        &v.dramWrites,     &v.dramAccesses,    &v.dramRowHitRate,
        &v.cacheStallCycles, &v.stallsPerRequest, &v.vops,
        &v.gvops,          &v.gmrps,           &v.l1Hits,
        &v.l1Misses,       &v.l2Hits,          &v.l2Misses,
        &v.l2Writebacks,   &v.rinseWritebacks, &v.allocBypassed,
        &v.predictorBypasses, &v.kernels,      &v.simEvents};
    for (std::size_t f = 3; f < fields.size(); ++f) {
        if (!parseWhole(fields[f], *numbers[f - 3]))
            return false;
    }
    out.workload = fields[0];
    out.policy = fields[1];
    static_cast<RunValues &>(out) = v;
    return true;
}

} // namespace migc
