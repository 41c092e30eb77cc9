/**
 * @file
 * Diagnostic: run one workload under one policy through the same
 * runWorkloadOn path every sweep uses, print the harvested metrics
 * row, then dump the entire statistics tree it was read from
 * (per-CU, per-cache, per-channel). Useful for understanding where
 * time and traffic go under each policy.
 *
 * Usage: stats_dump [workload] [policy] [scale] [filter-substring]
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>

#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/system.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace migc;

    std::string wname = argc > 1 ? argv[1] : "FwAct";
    std::string pname = argc > 2 ? argv[2] : "CacheR";
    double scale = argc > 3 ? std::atof(argv[3]) : 0.25;
    std::string filter = argc > 4 ? argv[4] : "";

    SimConfig cfg = SimConfig::defaultConfig();
    cfg.workloadScale = scale;

    System sys(cfg, CachePolicy::fromName(pname));
    const RunMetrics m = runWorkloadOn(sys, *makeWorkload(wname));

    std::cout << "# " << wname << " / " << pname << " finished at "
              << m.execTicks / 1000 << " ns, "
              << static_cast<std::uint64_t>(m.simEvents) << " events\n"
              << RunMetrics::csvHeader() << "\n"
              << m.toCsv() << "\n";

    std::map<std::string, double> flat;
    sys.stats().flatten(flat);
    for (const auto &[path, value] : flat) {
        if (!filter.empty() && path.find(filter) == std::string::npos)
            continue;
        if (value != 0.0)
            std::cout << path << " " << value << "\n";
    }
    return 0;
}
