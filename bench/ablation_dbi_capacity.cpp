/**
 * @file
 * Ablation: Dirty-Block-Index capacity vs. row locality.
 *
 * The paper adopts Seshadri et al.'s DBI at the GPU L2 without
 * studying its sizing; this sweep varies the rows tracked per L2
 * bank and reports DRAM row-hit rate and execution time for the
 * write-heavy BwPool workload under CacheRW-CR. Too-small indexes
 * rinse rows prematurely (capacity evictions); large indexes
 * approach ideal row-clustered drains.
 *
 * Runs go through the shared SweepEngine, so each DBI size is cached
 * in its own config section and re-runs are free.
 */

#include <cstdio>
#include <vector>

#include "core/sim_config.hh"
#include "core/sweep_engine.hh"

int
main()
{
    using namespace migc;

    std::printf("== Ablation: DBI rows per L2 bank (BwPool, "
                "CacheRW-CR) ==\n");
    std::printf("%9s %10s %10s %12s %14s\n", "dbi_rows", "exec(us)",
                "row-hit", "rinse_wbs", "dram_accesses");

    const std::vector<std::size_t> rowCounts{4, 16, 64, 256};

    SweepEngine engine;
    std::vector<RunRequest> grid;
    for (std::size_t rows : rowCounts) {
        SimConfig cfg = SimConfig::defaultConfig();
        cfg.workloadScale = 0.25;
        cfg.l2Bank.dbiRows = rows;
        grid.push_back(RunRequest{cfg, "BwPool", "CacheRW-CR"});
    }
    std::vector<RunMetrics> results = engine.run(grid);

    for (std::size_t i = 0; i < rowCounts.size(); ++i) {
        const RunMetrics &m = results[i];
        std::printf("%9zu %10.1f %10.3f %12.0f %14.0f\n",
                    rowCounts[i], m.execSeconds * 1e6,
                    m.dramRowHitRate, m.rinseWritebacks,
                    m.dramAccesses);
    }
    return 0;
}
