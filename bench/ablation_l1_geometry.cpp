/**
 * @file
 * Ablation: L1 set count vs. allocation blocking.
 *
 * The paper's cache stalls (Section VI.C.1) arise when every way of
 * a set holds a pending fill. With 16 KB at 64 B lines, a 16-way L1
 * has only 16 sets - easy to exhaust under streaming. This sweep
 * holds capacity constant and trades associativity for sets,
 * measuring stall cycles per request and execution time for BwAct
 * under CacheR. More sets means fewer allocation-blocked stalls, at
 * the cost of conflict behavior for other workloads.
 *
 * Runs go through the shared SweepEngine: each L1 geometry lands in
 * its own section of the multi-config run cache, so a re-run of this
 * binary (or any other that already swept these configs) simulates
 * nothing.
 */

#include <cstdio>
#include <vector>

#include "core/sim_config.hh"
#include "core/sweep_engine.hh"

int
main()
{
    using namespace migc;

    std::printf("== Ablation: L1 assoc/sets at fixed 16 KB (BwAct, "
                "CacheR) ==\n");
    // CacheR never converts allocations to bypasses, so the stall
    // signal here is total blocked cycles, not bypass conversions.
    std::printf("%7s %6s %10s %12s %12s\n", "assoc", "sets",
                "exec(us)", "stalls/req", "stall_cycles");

    const SimConfig base = SimConfig::defaultConfig();
    const std::vector<unsigned> assocs{32u, 16u, 8u, 4u};

    SweepEngine engine;
    std::vector<RunRequest> grid;
    for (unsigned assoc : assocs) {
        SimConfig cfg = base;
        cfg.workloadScale = 0.25;
        cfg.l1.assoc = assoc;
        grid.push_back(RunRequest{cfg, "BwAct", "CacheR"});
    }
    std::vector<RunMetrics> results = engine.run(grid);

    for (std::size_t i = 0; i < assocs.size(); ++i) {
        const RunMetrics &m = results[i];
        unsigned sets = static_cast<unsigned>(
            base.l1.size / assocs[i] / base.l1.lineSize);
        std::printf("%7u %6u %10.1f %12.4f %12.0f\n", assocs[i], sets,
                    m.execSeconds * 1e6, m.stallsPerRequest,
                    m.cacheStallCycles);
    }
    return 0;
}
