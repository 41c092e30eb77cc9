#include "core/runner.hh"

#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace migc
{

RunMetrics
runWorkloadOn(System &sys, const Workload &workload)
{
    const SimConfig &cfg = sys.config();
    const CachePolicy &policy = sys.policy();
    auto kernels = workload.kernels(cfg.workloadScale);

    bool done = false;
    sys.gpu().dispatcher().run(std::move(kernels),
                               [&done] { done = true; });

    // Generous safety budget: a run needs a few million events; a
    // deadlocked run would otherwise spin forever.
    constexpr std::uint64_t maxEvents = 2'000'000'000ULL;
    sys.eventQueue().runUntil([&done] { return done; }, maxEvents);
    fatal_if(!done,
             "simulation did not complete: workload=%s policy=%s "
             "(deadlock or event budget exhausted at tick %llu)",
             workload.name().c_str(), policy.name.c_str(),
             static_cast<unsigned long long>(
                 sys.eventQueue().curTick()));

    // Every counter comes off the stat tree by the path stats_dump
    // prints; per-cache counters sum over the l1_*/l2_* groups. Each
    // summed counter is integer-valued, so the sum is exact in any
    // order.
    const StatGroup &stats = sys.stats();
    auto l1 = [&stats](const char *leaf) {
        return stats.sumOverChildren(leaf, "l1_");
    };
    auto l2 = [&stats](const char *leaf) {
        return stats.sumOverChildren(leaf, "l2_");
    };

    RunMetrics m;
    m.workload = workload.name();
    m.policy = policy.name;
    m.execTicks = sys.eventQueue().curTick();
    m.execSeconds = static_cast<double>(m.execTicks) /
                    static_cast<double>(simSecond);

    m.gpuMemRequests = stats.get("gpu.mem_requests");
    m.dramReads = stats.get("dram.reads");
    m.dramWrites = stats.get("dram.writes");
    m.dramAccesses = m.dramReads + m.dramWrites;
    m.dramRowHitRate = stats.get("dram.row_hit_rate");

    m.cacheStallCycles = l1("stall_cycles") + l2("stall_cycles");
    m.stallsPerRequest = m.gpuMemRequests > 0
                             ? m.cacheStallCycles / m.gpuMemRequests
                             : 0.0;

    m.vops = stats.get("gpu.vops");
    m.gvops = m.execSeconds > 0 ? m.vops * 64.0 / m.execSeconds / 1e9
                                : 0.0;
    m.gmrps = m.execSeconds > 0
                  ? m.gpuMemRequests / m.execSeconds / 1e9
                  : 0.0;

    m.l1Hits = l1("hits");
    m.l1Misses = l1("misses");
    m.l2Hits = l2("hits");
    m.l2Misses = l2("misses");
    m.l2Writebacks = l2("writebacks");
    m.rinseWritebacks = l2("rinse_writebacks");
    m.allocBypassed = l1("alloc_bypassed") + l2("alloc_bypassed");
    m.predictorBypasses = stats.get("predictor.bypass_predictions");
    m.kernels = stats.get("gpu.dispatcher.kernels");
    m.simEvents = static_cast<double>(sys.eventQueue().numProcessed());
    return m;
}

RunMetrics
runWorkload(const Workload &workload, const SimConfig &cfg,
            const CachePolicy &policy)
{
    System sys(cfg, policy);
    return runWorkloadOn(sys, workload);
}

std::uint64_t
runSeedFor(const SimConfig &cfg, const std::string &workload,
           const std::string &policy)
{
    return deriveSeed(cfg.seed, workload + "/" + policy);
}

RunMetrics
runNamedWorkload(const std::string &workload, const SimConfig &cfg,
                 const std::string &policy)
{
    SimConfig run_cfg = cfg;
    run_cfg.seed = runSeedFor(cfg, workload, policy);
    auto wl = makeWorkload(workload);
    return runWorkload(*wl, run_cfg, CachePolicy::fromName(policy));
}

} // namespace migc
