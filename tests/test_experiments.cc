/** @file Tests for the experiment harness and the sweep engine: the
 *  multi-config on-disk cache, cache bypass, cross-config isolation,
 *  warm-cache replay, damaged-input accounting (v4 segments and the
 *  one-shot text import), and static-policy selection logic. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cache_v4.hh"
#include "core/experiments.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "workloads/workload.hh"

using namespace migc;

namespace
{

/** Scoped env var set/restore so tests cannot leak state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

std::string
tempCachePath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_" + leaf + ".csv";
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** A fake metrics row so selection tests need no simulation. */
RunMetrics
fakeMetrics(const std::string &workload, const std::string &policy,
            Tick exec_ticks)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = exec_ticks;
    m.dramAccesses = 1.0;
    return m;
}

/** v3 text tags, for inputs of the one-shot text import. */
constexpr const char *kCacheTagV3 = "# migc-sweep-v3";
constexpr const char *kSectionTag = "# config ";

/** Replace @p path with a v4 cache holding @p rows for @p cfg. */
void
writeCacheFile(const std::string &path, const SimConfig &cfg,
               const std::vector<RunMetrics> &rows)
{
    std::remove(path.c_str());
    RunCache rc(path);
    for (const auto &m : rows)
        rc.insert(cfg.signature(), m);
    rc.flush();
}

/** One v4 segment holding @p m under @p sig. */
std::string
segmentOf(const std::string &sig, const RunMetrics &m)
{
    return buildV4Segment({V4RowRef{sig, m.workload, m.policy, m}});
}

/** @p seg with one byte mid-segment flipped: its footer checksum no
 *  longer verifies. */
std::string
damaged(std::string seg)
{
    seg[seg.size() / 2] ^= 0x40;
    return seg;
}

} // namespace

TEST(ExperimentSweep, CacheRoundTripBySignature)
{
    const std::string path = tempCachePath("roundtrip");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);

    SimConfig cfg = SimConfig::testConfig();
    RunMetrics first;
    {
        ExperimentSweep sweep(cfg);
        first = sweep.get("FwSoft", "CacheRW");
        ASSERT_TRUE(fileExists(path));
    }

    // The file is v4 and holds exactly this config's row.
    {
        RunCache rc(path);
        EXPECT_STREQ(rc.loadedFormatName(), "v4");
        EXPECT_EQ(rc.size(), 1u);
        EXPECT_NE(rc.find(cfg.signature(), "FwSoft", "CacheRW"),
                  nullptr);
    }

    // A new sweep on the same config must load the saved result
    // rather than resimulate: doctor the cached row and confirm the
    // doctored value (which no simulation would produce) comes back.
    RunMetrics doctored = first;
    doctored.execTicks = 424242;
    writeCacheFile(path, cfg, {doctored});
    {
        ExperimentSweep sweep(cfg);
        EXPECT_EQ(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }

    // A different signature (changed seed) must not see the doctored
    // section; it simulates its own result.
    SimConfig other = cfg;
    other.seed = cfg.seed + 1;
    {
        ExperimentSweep sweep(other);
        EXPECT_NE(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }
    std::remove(path.c_str());
}

TEST(ExperimentSweep, NoCacheEnvBypassesDisk)
{
    const std::string path = tempCachePath("bypass");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());

    // Plant a doctored cache: with MIGC_NO_CACHE=1 the sweep must
    // neither read it nor overwrite it.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg,
                   {fakeMetrics("FwSoft", "CacheRW", 424242)});
    const std::string planted = readFile(path);
    ASSERT_FALSE(planted.empty());
    {
        ScopedEnv no_cache("MIGC_NO_CACHE", "1");
        ExperimentSweep sweep(cfg);
        EXPECT_NE(sweep.get("FwSoft", "CacheRW").execTicks,
                  Tick(424242));
    }
    // The planted file is untouched, byte for byte.
    EXPECT_EQ(readFile(path), planted);
    std::remove(path.c_str());
}

TEST(ExperimentSweep, LegacyV2CacheIsPreservedButNeverServed)
{
    const std::string path = tempCachePath("legacy_v2");
    std::remove(path.c_str());

    // A real pre-multi-config cache: "# migc-sweep-v2 <sig>" header
    // in the OLD signature format (no structure hash) and rows
    // without the sim_events column. The old format aliased
    // structurally different configs, so its rows must never be
    // served - but they must survive the `--convert` import as a
    // foreign section instead of being silently discarded.
    const std::string old_sig =
        "test:cus4:l2x4:64kB:ch4:scale0.125:seed1";
    RunMetrics planted = fakeMetrics("FwSoft", "CacheRW", 424242);
    std::string row = planted.toCsv();
    row = row.substr(0, row.rfind(',')); // drop sim_events column
    writeFile(path, "# migc-sweep-v2 " + old_sig +
                        "\nworkload,policy,...legacy header...\n" +
                        row + "\n");
    {
        RunCache text{std::string()};
        EXPECT_EQ(importTextCache(path, text).rows, 1u);
        ASSERT_TRUE(text.exportFile(path, CacheFormat::v4));
    }

    SimConfig cfg = SimConfig::testConfig();
    {
        SweepEngine engine(path);
        // Old-format rows do not satisfy current-format lookups.
        EXPECT_NE(engine.get(cfg, "FwSoft", "CacheRW").execTicks,
                  Tick(424242));
        EXPECT_EQ(engine.simulationsPerformed(), 1u);
    }

    // After the engine's rewrite, both the legacy row (re-serialized
    // with the sim_events column defaulted to 0) and the fresh
    // result coexist in the v4 file, in two sections.
    RunCache rc(path);
    EXPECT_EQ(rc.size(), 2u);
    EXPECT_EQ(rc.snapshot()->sectionCount(), 2u);
    const RunMetrics *legacy = rc.find(old_sig, "FwSoft", "CacheRW");
    ASSERT_NE(legacy, nullptr);
    EXPECT_EQ(legacy->toCsv(), row + ",0");
    EXPECT_NE(rc.find(cfg.signature(), "FwSoft", "CacheRW"), nullptr);
    std::remove(path.c_str());
}

TEST(SweepEngine, CrossConfigSectionsDoNotClobberEachOther)
{
    const std::string path = tempCachePath("crossconfig");
    std::remove(path.c_str());

    SimConfig cfg_a = SimConfig::testConfig();
    SimConfig cfg_b = SimConfig::testConfig();
    cfg_b.seed = cfg_a.seed + 7;
    ASSERT_NE(cfg_a.signature(), cfg_b.signature());

    // Two engines with different configs fill one cache path in
    // turn; each write must preserve the other's section.
    Tick ticks_a = 0;
    Tick ticks_b = 0;
    {
        SweepEngine engine(path);
        ticks_a = engine.get(cfg_a, "FwSoft", "Uncached").execTicks;
        EXPECT_EQ(engine.simulationsPerformed(), 1u);
    }
    {
        SweepEngine engine(path);
        ticks_b = engine.get(cfg_b, "FwSoft", "Uncached").execTicks;
        EXPECT_EQ(engine.simulationsPerformed(), 1u);
    }

    // A third engine resumes both results without simulating.
    {
        SweepEngine engine(path);
        EXPECT_EQ(engine.get(cfg_a, "FwSoft", "Uncached").execTicks,
                  ticks_a);
        EXPECT_EQ(engine.get(cfg_b, "FwSoft", "Uncached").execTicks,
                  ticks_b);
        EXPECT_EQ(engine.simulationsPerformed(), 0u);
        EXPECT_EQ(engine.cacheHits(), 2u);
    }
    std::remove(path.c_str());
}

TEST(SweepEngine, OverlappingWritersUnionInsteadOfClobbering)
{
    const std::string path = tempCachePath("unionwriters");
    std::remove(path.c_str());

    SimConfig cfg_a = SimConfig::testConfig();
    SimConfig cfg_b = SimConfig::testConfig();
    cfg_b.seed = cfg_a.seed + 3;

    // Both engines open the (empty) cache before either has written:
    // the classic lost-update shape. Each save must union the file's
    // latest contents, so the second writer preserves the first
    // writer's section instead of overwriting it with its own
    // load-time snapshot.
    Tick ticks_a = 0;
    Tick ticks_b = 0;
    {
        SweepEngine engine_a(path);
        SweepEngine engine_b(path);
        ticks_a = engine_a.get(cfg_a, "FwSoft", "Uncached").execTicks;
        ticks_b = engine_b.get(cfg_b, "FwSoft", "Uncached").execTicks;
    }

    SweepEngine reader(path);
    EXPECT_EQ(reader.get(cfg_a, "FwSoft", "Uncached").execTicks,
              ticks_a);
    EXPECT_EQ(reader.get(cfg_b, "FwSoft", "Uncached").execTicks,
              ticks_b);
    EXPECT_EQ(reader.simulationsPerformed(), 0u);
    std::remove(path.c_str());
}

TEST(SweepEngine, WarmCacheReplayPerformsZeroSimulations)
{
    const std::string path = tempCachePath("warmreplay");
    std::remove(path.c_str());

    // An ablation-style multi-config grid: same (workload, policy)
    // at three DBI sizes plus a second workload.
    std::vector<RunRequest> grid;
    for (std::size_t rows : {4u, 16u, 64u}) {
        SimConfig cfg = SimConfig::testConfig();
        cfg.l2Bank.dbiRows = rows;
        grid.push_back(RunRequest{cfg, "FwBN", "CacheRW-CR"});
    }
    grid.push_back(
        RunRequest{SimConfig::testConfig(), "FwSoft", "CacheRW"});

    std::vector<RunMetrics> cold;
    {
        SweepEngine engine(path);
        cold = engine.run(grid);
        EXPECT_EQ(engine.simulationsPerformed(), grid.size());
    }

    // Re-running the whole ablation from the on-disk cache must not
    // simulate anything and must reproduce every row.
    {
        SweepEngine engine(path);
        std::vector<RunMetrics> warm = engine.run(grid);
        EXPECT_EQ(engine.simulationsPerformed(), 0u);
        ASSERT_EQ(warm.size(), cold.size());
        for (std::size_t i = 0; i < cold.size(); ++i) {
            EXPECT_EQ(warm[i].execTicks, cold[i].execTicks);
            EXPECT_EQ(warm[i].dramAccesses, cold[i].dramAccesses);
            EXPECT_EQ(warm[i].simEvents, cold[i].simEvents);
        }
    }
    std::remove(path.c_str());
}

TEST(SweepEngine, CorruptedCacheRowsAreCountedAsParseErrors)
{
    const std::string path = tempCachePath("parse_errors");
    std::remove(path.c_str());

    // A v4 cache with one good segment and a damaged appended one (a
    // torn write, a flipped bit). The good row must still be served,
    // and the loss must be counted - a damaged cache should not be
    // able to pass for a cold one.
    SimConfig cfg = SimConfig::testConfig();
    writeFile(path,
              segmentOf(cfg.signature(),
                        fakeMetrics("FwSoft", "CacheRW", 424242)) +
                  damaged(segmentOf(cfg.signature(),
                                    fakeMetrics("FwBN", "CacheR", 7))));
    {
        SweepEngine engine(path);
        EXPECT_EQ(engine.cacheParseErrors(), 1u);
        EXPECT_EQ(engine.get(cfg, "FwSoft", "CacheRW").execTicks,
                  Tick(424242));
        EXPECT_EQ(engine.simulationsPerformed(), 0u);
    }

    // The text import counts damaged lines the same way: a truncated
    // write, a stray line, and a row whose exec_ticks has trailing
    // junk are three lost rows, and the good row still converts.
    const std::string text = tempCachePath("parse_errors_text");
    {
        std::string junk_ticks = fakeMetrics("FwBN", "Uncached", 5).toCsv();
        junk_ticks.replace(junk_ticks.find(",5,"), 3, ",5abc,");
        std::ofstream out(text, std::ios::trunc);
        out << kCacheTagV3 << "\n";
        out << kSectionTag << cfg.signature() << "\n";
        out << RunMetrics::csvHeader() << "\n";
        out << fakeMetrics("FwSoft", "CacheRW", 424242).toCsv() << "\n";
        out << "this line is not a metrics row\n";
        out << "FwBN,CacheR,not-a-number\n";
        out << junk_ticks << "\n";
    }
    RunCache imported{std::string()};
    RunCache::MergeStats stats = importTextCache(text, imported);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.parseErrors, 3u);
    ASSERT_NE(imported.find(cfg.signature(), "FwSoft", "CacheRW"),
              nullptr);
    EXPECT_EQ(imported.find(cfg.signature(), "FwBN", "Uncached"),
              nullptr);
    std::remove(path.c_str());
    std::remove(text.c_str());
}

TEST(RunCache, ParseErrorsCountEachDamagedLineOnce)
{
    const std::string corrupt = tempCachePath("corrupt_input");
    const std::string path = tempCachePath("parse_dedupe");
    std::remove(path.c_str());
    writeFile(corrupt,
              damaged(segmentOf("some-config",
                                fakeMetrics("FwSoft", "CacheR", 1))));

    RunCache cache(path);
    // Re-merging the same damaged file must not inflate the count.
    cache.mergeFile(corrupt);
    cache.mergeFile(corrupt);
    EXPECT_EQ(cache.parseErrors(), 1u);

    // A segment damaged (by a concurrent writer) after this cache
    // loaded is seen - and counted - by the pre-write merge of
    // save(), the last moment it is visible before the rewrite
    // drops it.
    writeFile(path, damaged(segmentOf(
                        "other-config",
                        fakeMetrics("FwSoft", "CacheR", 2))));
    cache.insert("fresh-config", fakeMetrics("FwSoft", "CacheR", 7));
    cache.saveNow();
    EXPECT_EQ(cache.parseErrors(), 2u);

    // The text import counts every damaged line exactly once, in
    // and out of a section, and keeps the good rows around them.
    {
        std::ofstream out(corrupt, std::ios::trunc);
        out << kCacheTagV3 << "\n";
        out << "row before any section\n";
        out << kSectionTag << "some-config\n";
        out << "broken row\n";
        out << fakeMetrics("FwSoft", "CacheR", 3).toCsv() << "\n";
        out << "another broken row\n";
    }
    RunCache text{std::string()};
    RunCache::MergeStats stats = importTextCache(corrupt, text);
    EXPECT_EQ(stats.parseErrors, 3u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(text.size(), 1u);
    std::remove(corrupt.c_str());
    std::remove(path.c_str());
}

TEST(SweepEngine, DuplicateRequestsSimulateOnce)
{
    SweepEngine engine(""); // in-memory only
    SimConfig cfg = SimConfig::testConfig();
    std::vector<RunRequest> grid(3, RunRequest{cfg, "FwSoft", "CacheR"});
    std::vector<RunMetrics> results = engine.run(grid);
    EXPECT_EQ(engine.simulationsPerformed(), 1u);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].execTicks, results[1].execTicks);
    EXPECT_EQ(results[0].execTicks, results[2].execTicks);
}

TEST(ExperimentSweep, StaticBestAndWorstSelection)
{
    const std::string path = tempCachePath("selection");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);

    // Preload all three static policies so selection never
    // simulates: CacheR fastest, Uncached slowest.
    SimConfig cfg = SimConfig::testConfig();
    writeCacheFile(path, cfg,
                   {fakeMetrics("FwSoft", "Uncached", 3000),
                    fakeMetrics("FwSoft", "CacheR", 1000),
                    fakeMetrics("FwSoft", "CacheRW", 2000)});
    ExperimentSweep sweep(cfg);
    EXPECT_EQ(sweep.staticBest("FwSoft"), "CacheR");
    EXPECT_EQ(sweep.staticWorst("FwSoft"), "Uncached");
    std::remove(path.c_str());
}

TEST(ExperimentSweep, PolicyNameSetsMatchThePaper)
{
    auto stat = ExperimentSweep::staticPolicyNames();
    auto all = ExperimentSweep::allPolicyNames();
    EXPECT_EQ(stat.size(), 3u);
    EXPECT_EQ(all.size(), 6u);
    // The static policies lead the full list, same order.
    for (std::size_t i = 0; i < stat.size(); ++i)
        EXPECT_EQ(all[i], stat[i]);
}

TEST(ExperimentSweep, PrefetchFillsTheGridWithoutResimulation)
{
    const std::string path = tempCachePath("prefetch");
    std::remove(path.c_str());
    ScopedEnv cache("MIGC_SWEEP_CACHE", path.c_str());
    ScopedEnv no_cache("MIGC_NO_CACHE", nullptr);
    ScopedEnv jobs("MIGC_JOBS", "4");

    SimConfig cfg = SimConfig::testConfig();
    ExperimentSweep sweep(cfg);
    sweep.prefetch({"Uncached"});

    // Every workload row must now be in the cache file.
    RunCache rows(path, 8);
    EXPECT_EQ(rows.size(), workloadOrder().size());

    // A second sweep over the same grid replays from disk.
    ExperimentSweep warm(cfg);
    warm.prefetch({"Uncached"});
    EXPECT_EQ(warm.engine().simulationsPerformed(), 0u);
    std::remove(path.c_str());
}
