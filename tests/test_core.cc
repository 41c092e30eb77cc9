/** @file Tests for metrics serialization, reporting, and configs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/experiments.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/sim_config.hh"

using namespace migc;

TEST(RunMetrics, CsvRoundTrip)
{
    RunMetrics m;
    m.workload = "FwAct";
    m.policy = "CacheRW-PCby";
    m.execTicks = 123456789;
    m.execSeconds = 1.23456789e-4;
    m.gpuMemRequests = 1000;
    m.dramReads = 600;
    m.dramWrites = 400;
    m.dramAccesses = 1000;
    m.dramRowHitRate = 0.875;
    m.cacheStallCycles = 42;
    m.stallsPerRequest = 0.042;
    m.vops = 5000;
    m.gvops = 2.5;
    m.gmrps = 1.5;
    m.l1Hits = 10;
    m.l1Misses = 20;
    m.l2Hits = 30;
    m.l2Misses = 40;
    m.l2Writebacks = 50;
    m.rinseWritebacks = 5;
    m.allocBypassed = 7;
    m.predictorBypasses = 9;
    m.kernels = 3;

    RunMetrics out;
    ASSERT_TRUE(RunMetrics::fromCsv(m.toCsv(), out));
    EXPECT_EQ(out.workload, m.workload);
    EXPECT_EQ(out.policy, m.policy);
    EXPECT_EQ(out.execTicks, m.execTicks);
    EXPECT_DOUBLE_EQ(out.dramRowHitRate, m.dramRowHitRate);
    EXPECT_DOUBLE_EQ(out.rinseWritebacks, m.rinseWritebacks);
    EXPECT_DOUBLE_EQ(out.kernels, m.kernels);
}

TEST(RunMetrics, FromCsvRejectsGarbage)
{
    RunMetrics out;
    EXPECT_FALSE(RunMetrics::fromCsv("not,a,metrics,row", out));
    EXPECT_FALSE(RunMetrics::fromCsv("", out));

    // Each numeric field must be consumed whole, and exec_ticks must
    // be plain digits: std::stoull alone reads "5abc" as 5 and wraps
    // "-1" to 2^64-1.
    RunMetrics m;
    m.workload = std::string("W");
    m.policy = std::string("P");
    m.execTicks = 5;
    const std::string good = m.toCsv();
    ASSERT_TRUE(RunMetrics::fromCsv(good, out));
    auto with_field = [&good](std::size_t idx, const std::string &v) {
        std::vector<std::string> fields;
        std::stringstream ss(good);
        std::string item;
        while (std::getline(ss, item, ','))
            fields.push_back(item);
        fields.at(idx) = v;
        std::string line;
        for (const std::string &f : fields)
            line += (line.empty() ? "" : ",") + f;
        return line;
    };
    for (const char *ticks : {"5abc", "-1", "+5", " 5", "0x5", "5.0",
                              "99999999999999999999"})
        EXPECT_FALSE(RunMetrics::fromCsv(with_field(2, ticks), out))
            << "exec_ticks " << ticks;
    EXPECT_FALSE(RunMetrics::fromCsv(with_field(3, "1.5e-3x"), out));
    EXPECT_FALSE(RunMetrics::fromCsv(with_field(8, "0.5.5"), out));
    EXPECT_FALSE(RunMetrics::fromCsv(with_field(23, "12 "), out));
    EXPECT_FALSE(RunMetrics::fromCsv(with_field(23, "12\r"), out));
}

TEST(RunMetrics, HeaderFieldCountMatchesRow)
{
    RunMetrics m;
    // std::string temporaries sidestep a GCC 12 -Wrestrict false
    // positive on consecutive short const-char* assignments.
    m.workload = std::string("X");
    m.policy = std::string("Y");
    auto count_commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count_commas(RunMetrics::csvHeader()),
              count_commas(m.toCsv()));
}

TEST(FigureData, AtAndPrint)
{
    FigureData fig;
    fig.title = "test";
    fig.workloads = {"A", "B"};
    fig.series = {"s0", "s1"};
    fig.values = {{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(fig.at(1, 0), 3.0);

    std::ostringstream os;
    printFigure(os, fig);
    EXPECT_NE(os.str().find("test"), std::string::npos);
    EXPECT_NE(os.str().find("s1"), std::string::npos);
    EXPECT_NE(os.str().find("A"), std::string::npos);
}

TEST(Report, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geoMean({0.0, 8.0, 2.0}), 4.0); // ignores 0
}

TEST(SimConfig, PresetsAreConsistent)
{
    for (auto cfg : {SimConfig::paperConfig(), SimConfig::defaultConfig(),
                     SimConfig::testConfig()}) {
        EXPECT_GT(cfg.gpu.numCus, 0u);
        EXPECT_EQ(cfg.xbar.numInputs, cfg.gpu.numCus);
        EXPECT_EQ(cfg.xbar.numOutputs, cfg.l2Banks);
        EXPECT_GT(cfg.l2Bank.size, 0u);
        EXPECT_FALSE(cfg.signature().empty());
    }
}

TEST(SimConfig, PaperConfigMatchesTable1)
{
    SimConfig cfg = SimConfig::paperConfig();
    EXPECT_EQ(cfg.gpu.numCus, 64u);
    EXPECT_EQ(cfg.gpu.simdsPerCu, 4u);
    EXPECT_EQ(cfg.gpu.wfSlotsPerSimd, 10u);
    EXPECT_EQ(cfg.l1.size, 16u * 1024u);
    EXPECT_EQ(cfg.l1.assoc, 16u);
    EXPECT_EQ(cfg.l2Bank.size * cfg.l2Banks, 4ULL * 1024 * 1024);
    EXPECT_EQ(cfg.dram.channels, 16u);
    EXPECT_EQ(cfg.gpu.clockPeriod, 625u); // 1600 MHz
}

TEST(SimConfig, SignatureDistinguishesConfigs)
{
    EXPECT_NE(SimConfig::paperConfig().signature(),
              SimConfig::defaultConfig().signature());
    SimConfig a = SimConfig::testConfig();
    SimConfig b = SimConfig::testConfig();
    b.workloadScale *= 2;
    EXPECT_NE(a.signature(), b.signature());
}

TEST(Experiments, Table1TextMentionsKeyParameters)
{
    std::string t = table1Text(SimConfig::paperConfig());
    EXPECT_NE(t.find("64"), std::string::npos);
    EXPECT_NE(t.find("1600 MHz"), std::string::npos);
    EXPECT_NE(t.find("HBM2"), std::string::npos);
}

TEST(Experiments, PolicyNameLists)
{
    EXPECT_EQ(ExperimentSweep::staticPolicyNames().size(), 3u);
    EXPECT_EQ(ExperimentSweep::allPolicyNames().size(), 6u);
    EXPECT_EQ(ExperimentSweep::allPolicyNames().back(),
              "CacheRW-PCby");
}
