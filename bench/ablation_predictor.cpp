/**
 * @file
 * Ablation: PC reuse-predictor geometry (Tian et al. style).
 *
 * Sweeps the counter threshold and the training-sample interval for
 * CacheRW-PCby on one throughput-sensitive workload (FwLRN, where
 * bypassing should win) and one reuse-sensitive workload (FwBN,
 * where over-eager bypassing would forfeit reuse). A good operating
 * point keeps FwBN's DRAM savings while shedding FwLRN's caching
 * overhead.
 *
 * Both workloads' grids are submitted to the shared SweepEngine in
 * one batch, so the 18 runs schedule longest-first across the whole
 * pool and every (threshold, sample) point caches independently.
 */

#include <cstdio>
#include <vector>

#include "core/sim_config.hh"
#include "core/sweep_engine.hh"

namespace
{

struct Point
{
    unsigned threshold;
    unsigned sample;
};

std::vector<Point>
pointGrid()
{
    std::vector<Point> grid;
    for (unsigned threshold : {1u, 4u, 7u}) {
        for (unsigned sample : {4u, 16u, 64u})
            grid.push_back({threshold, sample});
    }
    return grid;
}

void
printFor(const char *workload, const std::vector<Point> &points,
         const std::vector<migc::RunMetrics> &results)
{
    std::printf("-- %s --\n", workload);
    std::printf("%10s %8s %10s %14s %12s\n", "threshold", "sample",
                "exec(us)", "dram_accesses", "pred_bypass");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const migc::RunMetrics &m = results[i];
        std::printf("%10u %8u %10.1f %14.0f %12.0f\n",
                    points[i].threshold, points[i].sample,
                    m.execSeconds * 1e6, m.dramAccesses,
                    m.predictorBypasses);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    using namespace migc;

    std::printf("== Ablation: PC reuse predictor geometry "
                "(CacheRW-PCby) ==\n");

    const std::vector<Point> points = pointGrid();
    const std::vector<const char *> workloads{"FwLRN", "FwBN"};

    SweepEngine engine;
    std::vector<RunRequest> grid;
    for (const char *w : workloads) {
        for (const Point &pt : points) {
            SimConfig cfg = SimConfig::defaultConfig();
            cfg.workloadScale = 0.25;
            cfg.predictor.threshold = pt.threshold;
            cfg.predictor.initialValue = pt.threshold;
            cfg.predictor.sampleInterval = pt.sample;
            grid.push_back(RunRequest{cfg, w, "CacheRW-PCby"});
        }
    }
    std::vector<RunMetrics> results = engine.run(grid);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        printFor(workloads[w], points,
                 {results.begin() +
                      static_cast<std::ptrdiff_t>(w * points.size()),
                  results.begin() + static_cast<std::ptrdiff_t>(
                                        (w + 1) * points.size())});
    }
    return 0;
}
