/**
 * @file
 * Golden-hash determinism suite.
 *
 * One (workload, policy) pair per workload family, covering all six
 * policy configurations, run under SimConfig::testConfig(). The
 * expected values were captured from the simulator BEFORE the
 * hot-path overhaul (pooled packets, intrusive event queue, flattened
 * tag lookup, coalescer caching); the refactored simulator must
 * reproduce them bit-identically. Every counter here is an exact
 * integer count, so EXPECT_EQ on the doubles is exact.
 *
 * If a PR changes these values it changed simulated behavior, not
 * just simulator speed - that must be intentional and called out,
 * and the goldens re-captured.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/system.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

using namespace migc;

namespace
{

struct Golden
{
    const char *workload;
    const char *policy;
    std::uint64_t execTicks;
    double gpuMemRequests;
    double dramReads;
    double dramWrites;
    double cacheStallCycles;
    double l1Hits;
    double l1Misses;
    double l2Hits;
    double l2Misses;
    double l2Writebacks;
    double rinseWritebacks;
    double allocBypassed;
    double predictorBypasses;
    double kernels;
};

// Captured at commit 6f96c8a (pre-refactor seed + harness), with
// MIGC_NO_CACHE=1, SimConfig::testConfig(), default seed.
const Golden kGoldens[] = {
    {"DGEMM", "Uncached", 23840625ULL, 9216, 6326, 1024, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 1},
    {"FwBN", "CacheR", 4458750ULL, 12288, 4096, 4096, 16758, 0, 8192,
     4096, 4096, 0, 0, 0, 0, 1},
    {"FwPool", "CacheRW", 24458375ULL, 43008, 31327, 5384, 230206, 3666,
     33177, 1826, 37471, 6144, 0, 0, 0, 1},
    {"BwSoft", "CacheRW-AB", 1334625ULL, 1280, 512, 8, 978, 512, 512, 0,
     768, 256, 0, 0, 0, 1},
    {"FwLSTM", "CacheRW-CR", 11182750ULL, 17728, 14711, 56, 50405, 28,
     4880, 2147, 3758, 96, 36, 12200, 0, 4},
    {"FwAct", "CacheRW-PCby", 13166500ULL, 24576, 12288, 11570, 64627,
     0, 12206, 0, 4791, 2213, 1379, 82, 19790, 1},
};

class GoldenDeterminism : public ::testing::TestWithParam<Golden>
{};

} // namespace

TEST_P(GoldenDeterminism, RunMetricsMatchPreRefactorGoldens)
{
    const Golden &g = GetParam();
    SimConfig cfg = SimConfig::testConfig();
    RunMetrics m = runNamedWorkload(g.workload, cfg, g.policy);

    EXPECT_EQ(m.execTicks, g.execTicks);
    EXPECT_EQ(m.gpuMemRequests, g.gpuMemRequests);
    EXPECT_EQ(m.dramReads, g.dramReads);
    EXPECT_EQ(m.dramWrites, g.dramWrites);
    EXPECT_EQ(m.cacheStallCycles, g.cacheStallCycles);
    EXPECT_EQ(m.l1Hits, g.l1Hits);
    EXPECT_EQ(m.l1Misses, g.l1Misses);
    EXPECT_EQ(m.l2Hits, g.l2Hits);
    EXPECT_EQ(m.l2Misses, g.l2Misses);
    EXPECT_EQ(m.l2Writebacks, g.l2Writebacks);
    EXPECT_EQ(m.rinseWritebacks, g.rinseWritebacks);
    EXPECT_EQ(m.allocBypassed, g.allocBypassed);
    EXPECT_EQ(m.predictorBypasses, g.predictorBypasses);
    EXPECT_EQ(m.kernels, g.kernels);
}

TEST_P(GoldenDeterminism, RepeatedRunsAreTickIdentical)
{
    const Golden &g = GetParam();
    SimConfig cfg = SimConfig::testConfig();
    RunMetrics a = runNamedWorkload(g.workload, cfg, g.policy);
    RunMetrics b = runNamedWorkload(g.workload, cfg, g.policy);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.cacheStallCycles, b.cacheStallCycles);
}

TEST(GoldenDeterminism, ReusedSystemMatchesGoldensThroughResets)
{
    // The sweep engine's reuse pattern: ONE System carried through
    // all six golden pairs via System::reset(), changing policy and
    // seed at every step (Uncached -> CacheR -> CacheRW -> AB -> CR
    // -> PCby). Every run must be bit-identical to the fresh-System
    // goldens above; any state leaking across a reset shows up here.
    SimConfig cfg = SimConfig::testConfig();
    std::unique_ptr<System> sys;
    for (const Golden &g : kGoldens) {
        const std::uint64_t seed =
            runSeedFor(cfg, g.workload, g.policy);
        const CachePolicy policy = CachePolicy::fromName(g.policy);
        if (sys == nullptr) {
            SimConfig run_cfg = cfg;
            run_cfg.seed = seed;
            sys = std::make_unique<System>(run_cfg, policy);
        } else {
            sys->reset(policy, seed);
        }
        auto wl = makeWorkload(g.workload);
        RunMetrics m = runWorkloadOn(*sys, *wl);

        EXPECT_EQ(m.execTicks, g.execTicks) << g.workload;
        EXPECT_EQ(m.gpuMemRequests, g.gpuMemRequests) << g.workload;
        EXPECT_EQ(m.dramReads, g.dramReads) << g.workload;
        EXPECT_EQ(m.dramWrites, g.dramWrites) << g.workload;
        EXPECT_EQ(m.cacheStallCycles, g.cacheStallCycles) << g.workload;
        EXPECT_EQ(m.l1Hits, g.l1Hits) << g.workload;
        EXPECT_EQ(m.l1Misses, g.l1Misses) << g.workload;
        EXPECT_EQ(m.l2Hits, g.l2Hits) << g.workload;
        EXPECT_EQ(m.l2Misses, g.l2Misses) << g.workload;
        EXPECT_EQ(m.l2Writebacks, g.l2Writebacks) << g.workload;
        EXPECT_EQ(m.rinseWritebacks, g.rinseWritebacks) << g.workload;
        EXPECT_EQ(m.allocBypassed, g.allocBypassed) << g.workload;
        EXPECT_EQ(m.predictorBypasses, g.predictorBypasses)
            << g.workload;
        EXPECT_EQ(m.kernels, g.kernels) << g.workload;
    }
}

TEST(GoldenDeterminism, SoaTagMirrorsStayCoherentThroughGoldenRuns)
{
    // The SoA tag store (PR 7) mirrors block state into address
    // lanes and bitmaps; after a full golden run every cache's
    // mirrors must still match its per-block metadata exactly.
    SimConfig cfg = SimConfig::testConfig();
    for (const Golden &g : {kGoldens[2], kGoldens[4]}) {
        SimConfig run_cfg = cfg;
        run_cfg.seed = runSeedFor(cfg, g.workload, g.policy);
        System sys(run_cfg, CachePolicy::fromName(g.policy));
        runWorkloadOn(sys, *makeWorkload(g.workload));
        for (unsigned i = 0; i < run_cfg.gpu.numCus; ++i) {
            EXPECT_TRUE(sys.l1(i).tags().shadowCoherent())
                << g.workload << " L1 " << i;
        }
        for (unsigned i = 0; i < sys.numL2Banks(); ++i) {
            EXPECT_TRUE(sys.l2Bank(i).tags().shadowCoherent())
                << g.workload << " L2 bank " << i;
        }
    }
}

TEST(GoldenDeterminism, ResetRunHasSameSimEventsAsFreshRun)
{
    // simEvents feeds the LPT cost model; a reused System's per-run
    // event count must match a fresh one's exactly.
    SimConfig cfg = SimConfig::testConfig();
    RunMetrics fresh = runNamedWorkload("FwBN", cfg, "CacheR");

    const std::uint64_t seed = runSeedFor(cfg, "FwBN", "CacheR");
    SimConfig run_cfg = cfg;
    run_cfg.seed = runSeedFor(cfg, "DGEMM", "Uncached");
    System sys(run_cfg, CachePolicy::fromName("Uncached"));
    runWorkloadOn(sys, *makeWorkload("DGEMM"));
    sys.reset(CachePolicy::fromName("CacheR"), seed);
    RunMetrics reused = runWorkloadOn(sys, *makeWorkload("FwBN"));

    EXPECT_EQ(reused.simEvents, fresh.simEvents);
    EXPECT_EQ(reused.execTicks, fresh.execTicks);
}

namespace
{

/**
 * Same-tick order contract for the compute-unit tick elision. Each
 * point pins an FNV-1a hash of its RunMetrics csv (simEvents zeroed)
 * followed by the complete stat-tree dump (per-CU active_cycles
 * included), and the run's simEvents. The hashes were captured on
 * the simulator that re-armed every CU tick each cycle; a CU that
 * sleeps must reproduce them exactly. Beyond the six golden pairs,
 * the five extra points are the ones that diverge when a CU wakes
 * into a same-tick slot that has already been serviced.
 *
 * simEvents is a scheduler cost, not a modeled result: it is pinned
 * so any change to the event count is a deliberate re-capture. The
 * per-cycle-tick simulator's counts are in the trailing comments.
 */
struct OrderPin
{
    const char *workload;
    const char *policy;
    std::uint64_t resultHash;
    std::uint64_t simEvents;
};

const OrderPin kOrderPins[] = {
    {"DGEMM", "Uncached",
     0xcd9abf1ec977176eULL, 83074}, // was 147625
    {"FwBN", "CacheR",
     0x2739677fc2e48c64ULL, 118383}, // was 127430
    {"FwPool", "CacheRW",
     0xc653013a5f2f6263ULL, 541950}, // was 613030
    {"BwSoft", "CacheRW-AB",
     0xe3559c406301c924ULL, 8333}, // was 8711
    {"FwLSTM", "CacheRW-CR",
     0xcdb3994decee5939ULL, 189053}, // was 206768
    {"FwAct", "CacheRW-PCby",
     0x5933f2ccbbd90d6cULL, 269610}, // was 304549
    {"FwPool", "Uncached",
     0xe9264275705255abULL, 647367}, // was 698715
    {"FwPool", "CacheR",
     0x73d6e85f2f018625ULL, 525014}, // was 594524
    {"BwPool", "CacheRW-AB",
     0xbc39dce4c1391844ULL, 493851}, // was 550529
    {"BwPool", "CacheRW-DynAB",
     0xa7ce6c1b1dedaaf7ULL, 482283}, // was 538222
    {"FwLRN", "CacheRW-DynAB",
     0x7a3a9ad0e6a0b85dULL, 1185024}, // was 1353162
};

class OrderContract : public ::testing::TestWithParam<OrderPin>
{};

} // namespace

TEST_P(OrderContract, ResultsAndStatTreeMatchPerCycleTicking)
{
    const OrderPin &p = GetParam();
    SimConfig cfg = SimConfig::testConfig();
    cfg.seed = runSeedFor(cfg, p.workload, p.policy);
    System sys(cfg, CachePolicy::fromName(p.policy));
    RunMetrics m = runWorkloadOn(sys, *makeWorkload(p.workload));

    const auto sim_events = static_cast<std::uint64_t>(m.simEvents);
    m.simEvents = 0;
    std::ostringstream text;
    text << m.toCsv() << "\n";
    sys.stats().dump(text);

    EXPECT_EQ(fnv1a(text.str()), p.resultHash)
        << std::hex << "0x" << fnv1a(text.str());
    EXPECT_EQ(sim_events, p.simEvents);
}

INSTANTIATE_TEST_SUITE_P(
    Points, OrderContract, ::testing::ValuesIn(kOrderPins),
    [](const ::testing::TestParamInfo<OrderPin> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           info.param.policy;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GoldenDeterminism, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           info.param.policy;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });
