/** @file End-to-end integration tests: full system runs on the tiny
 *  test configuration, validating the paper's qualitative effects. */

#include <gtest/gtest.h>

#include <set>

#include "core/experiments.hh"
#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/system.hh"
#include "policy/cache_policy.hh"
#include "workloads/workload.hh"

using namespace migc;

namespace
{

RunMetrics
run(const std::string &workload, const std::string &policy,
    double scale = 0.0)
{
    SimConfig cfg = SimConfig::testConfig();
    if (scale > 0)
        cfg.workloadScale = scale;
    auto wl = makeWorkload(workload);
    return runWorkload(*wl, cfg, CachePolicy::fromName(policy));
}

} // namespace

TEST(Integration, FwSoftCompletesUnderEveryPolicy)
{
    for (const auto &p : CachePolicy::allPolicies()) {
        SimConfig cfg = SimConfig::testConfig();
        auto wl = makeWorkload("FwSoft");
        RunMetrics m = runWorkload(*wl, cfg, p);
        EXPECT_GT(m.execTicks, 0u) << p.name;
        EXPECT_GT(m.gpuMemRequests, 0.0) << p.name;
        EXPECT_GT(m.dramAccesses, 0.0) << p.name;
    }
}

TEST(Integration, DeterministicAcrossRuns)
{
    RunMetrics a = run("FwSoft", "CacheRW");
    RunMetrics b = run("FwSoft", "CacheRW");
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.cacheStallCycles, b.cacheStallCycles);
}

TEST(Integration, ReadCachingCutsDramTrafficForReuseWorkload)
{
    RunMetrics unc = run("FwSoft", "Uncached");
    RunMetrics r = run("FwSoft", "CacheR");
    // Three read passes over a small buffer: caching must remove a
    // large fraction of DRAM reads.
    EXPECT_LT(r.dramReads, 0.7 * unc.dramReads);
}

TEST(Integration, WriteCachingCoalescesStores)
{
    RunMetrics r = run("BwBN", "CacheR");
    RunMetrics rw = run("BwBN", "CacheRW");
    // Accumulator rewrites coalesce in the L2.
    EXPECT_LT(rw.dramWrites, r.dramWrites);
}

TEST(Integration, UncachedDoesNotAllocate)
{
    RunMetrics m = run("FwSoft", "Uncached");
    EXPECT_EQ(m.l1Hits + m.l1Misses, 0.0);
    EXPECT_EQ(m.l2Hits + m.l2Misses, 0.0);
    EXPECT_EQ(m.l2Writebacks, 0.0);
}

TEST(Integration, CacheRNeverDirtiesTheL2)
{
    RunMetrics m = run("BwPool", "CacheR");
    EXPECT_EQ(m.l2Writebacks, 0.0);
    // All stores reached DRAM directly.
    EXPECT_GT(m.dramWrites, 0.0);
}

TEST(Integration, CacheRwFlushesAllDirtyDataByTheEnd)
{
    SimConfig cfg = SimConfig::testConfig();
    System sys(cfg, CachePolicy::fromName("CacheRW"));
    auto wl = makeWorkload("FwSoft");
    bool done = false;
    sys.gpu().dispatcher().run(wl->kernels(cfg.workloadScale),
                               [&done] { done = true; });
    sys.eventQueue().runUntil([&done] { return done; },
                              500'000'000ULL);
    ASSERT_TRUE(done);
    EXPECT_TRUE(sys.memSystemQuiescent());
    for (unsigned i = 0; i < sys.numL2Banks(); ++i) {
        EXPECT_EQ(sys.l2Bank(i).tags().countState(BlkState::dirty),
                  0u);
    }
    // After the remaining posted writes drain, DRAM is fully idle.
    sys.eventQueue().run();
    EXPECT_TRUE(sys.dram().allIdle());
}

TEST(Integration, RnnWeightsReuseAcrossSteps)
{
    // The weight matrix (512 KB) must fit the L2 for cross-step
    // reuse, so this test uses the default (1 MB L2) configuration
    // at a small sequence length.
    SimConfig cfg = SimConfig::defaultConfig();
    cfg.workloadScale = 0.125;
    auto wl = makeWorkload("FwLSTM");
    RunMetrics unc =
        runWorkload(*wl, cfg, CachePolicy::fromName("Uncached"));
    RunMetrics r =
        runWorkload(*wl, cfg, CachePolicy::fromName("CacheR"));
    // Weights are re-read every step from the L2 once cached.
    EXPECT_LT(r.dramReads, 0.7 * unc.dramReads);
}

TEST(Integration, AllocationBypassReducesStallCycles)
{
    RunMetrics rw = run("BwAct", "CacheRW");
    RunMetrics ab = run("BwAct", "CacheRW-AB");
    EXPECT_GT(ab.allocBypassed, 0.0);
    EXPECT_LT(ab.cacheStallCycles, rw.cacheStallCycles);
}

TEST(Integration, RinsingProducesRowClusteredWritebacks)
{
    RunMetrics cr = run("BwPool", "CacheRW-CR");
    EXPECT_GT(cr.rinseWritebacks, 0.0);
}

TEST(Integration, PredictorEngagesOnStreamingWorkload)
{
    RunMetrics pcby = run("FwLRN", "CacheRW-PCby");
    EXPECT_GT(pcby.predictorBypasses, 0.0);
}

TEST(Integration, GvopsAndGmrpsArePopulated)
{
    RunMetrics m = run("SGEMM", "CacheR");
    EXPECT_GT(m.gvops, 0.0);
    EXPECT_GT(m.gmrps, 0.0);
    EXPECT_GT(m.vops, 0.0);
}

TEST(Integration, GemmIsComputeHeavy)
{
    RunMetrics gemm = run("SGEMM", "CacheR");
    RunMetrics act = run("FwAct", "CacheR");
    // GVOPS per memory request: GEMM far above an activation stream.
    double gemm_intensity = gemm.vops / gemm.gpuMemRequests;
    double act_intensity = act.vops / act.gpuMemRequests;
    EXPECT_GT(gemm_intensity, 4.0 * act_intensity);
}

TEST(Integration, MultiKernelWorkloadLaunchesAllKernels)
{
    SimConfig cfg = SimConfig::testConfig();
    auto wl = makeWorkload("CM");
    auto expected = wl->kernels(cfg.workloadScale).size();
    RunMetrics m =
        runWorkload(*wl, cfg, CachePolicy::fromName("CacheRW"));
    EXPECT_EQ(m.kernels, static_cast<double>(expected));
}

TEST(Integration, StallAccountingOnlyWhenCachesQueried)
{
    RunMetrics unc = run("FwAct", "Uncached");
    RunMetrics r = run("FwAct", "CacheR");
    EXPECT_EQ(unc.cacheStallCycles, 0.0);
    EXPECT_GT(r.cacheStallCycles, 0.0);
}

/** Every workload completes under every policy on the test config. */
class FullMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{};

TEST_P(FullMatrix, CompletesAndIsSane)
{
    auto [workload, policy] = GetParam();
    RunMetrics m = run(workload, policy);
    EXPECT_GT(m.execTicks, 0u);
    EXPECT_GT(m.dramAccesses, 0.0);
    EXPECT_EQ(m.workload, workload);
    EXPECT_EQ(m.policy, policy);
    // Row hit rate is a ratio.
    EXPECT_GE(m.dramRowHitRate, 0.0);
    EXPECT_LE(m.dramRowHitRate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SweepFast, FullMatrix,
    ::testing::Combine(
        ::testing::Values("FwSoft", "BwSoft", "FwBN", "FwLSTM",
                          "FwBwGRU", "CM"),
        ::testing::Values("Uncached", "CacheR", "CacheRW",
                          "CacheRW-AB", "CacheRW-CR",
                          "CacheRW-PCby")));

/**
 * The paper's grid-level findings on the whole 17 x 6 test-config
 * grid, so a refactor cannot silently change the science the
 * figures rest on.
 */
TEST(PaperFindings, HoldAcrossTheTestGrid)
{
    const SimConfig cfg = SimConfig::testConfig();
    const std::vector<std::string> workloads = workloadOrder();
    const std::vector<std::string> policies =
        ExperimentSweep::allPolicyNames();
    std::vector<RunRequest> requests;
    for (const std::string &w : workloads)
        for (const std::string &p : policies)
            requests.push_back(RunRequest{cfg, w, p});
    SweepEngine engine{std::string()};
    const std::vector<RunMetrics> rows = engine.run(requests);
    ASSERT_EQ(workloads.size(), 17u);
    ASSERT_EQ(rows.size(), workloads.size() * policies.size());

    std::set<std::string> winners;
    double dram_reads_cache_r = 0.0;
    double dram_reads_uncached = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const RunMetrics *best = nullptr;
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const RunMetrics &m = rows[w * policies.size() + p];
            if (best == nullptr || m.execTicks < best->execTicks)
                best = &m;
            if (m.policy == "CacheR") {
                // Read-only caching never dirties the L2.
                EXPECT_EQ(m.l2Writebacks, 0.0) << m.workload;
                dram_reads_cache_r += m.dramReads;
            } else if (m.policy == "Uncached") {
                // Uncached never allocates, so nothing hits in an L1.
                EXPECT_EQ(m.l1Hits, 0.0) << m.workload;
                dram_reads_uncached += m.dramReads;
            }
        }
        winners.insert(best->policy);
    }
    // No one policy is fastest on every workload (Fig. 6 / Fig. 10):
    // the per-workload winners are five distinct policies.
    EXPECT_EQ(winners.size(), 5u);
    // Read caching cuts grid-wide DRAM reads (Fig. 7).
    EXPECT_LT(dram_reads_cache_r, dram_reads_uncached);
}
