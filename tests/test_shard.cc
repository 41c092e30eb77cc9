/** @file Tests for the multi-process shard layer under the fleet:
 *  run-key hash and grid fingerprint stability, a fleet over a warm
 *  canonical cache leasing (and shard files holding) only the new
 *  rows, and the coordinator merge (bit-identical to a
 *  single-process sweep, loud on conflicts). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"

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
    return ::testing::TempDir() + "migc_shard_" + leaf + ".csv";
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
removeCacheFamily(const std::string &base, unsigned shards)
{
    std::remove(base.c_str());
    for (unsigned i = 0; i < shards; ++i)
        std::remove(shardCachePath(base, i).c_str());
}

/** The small grid all sharded-sweep tests run: 2 workloads x 3
 *  policies on the tiny test system. */
std::vector<RunRequest>
smallGrid()
{
    const SimConfig cfg = SimConfig::testConfig();
    std::vector<RunRequest> grid;
    for (const char *w : {"FwSoft", "FwBN"}) {
        for (const char *p : {"Uncached", "CacheR", "CacheRW"})
            grid.push_back(RunRequest{cfg, w, p});
    }
    return grid;
}

/** A compacted v4 shard-cache file holding @p rows under @p sig. */
void
writeShardFile(const std::string &path, const std::string &sig,
               const std::vector<RunMetrics> &rows)
{
    std::remove(path.c_str());
    RunCache rc(path);
    for (const auto &m : rows)
        rc.insert(sig, m);
    rc.flush();
}

RunMetrics
fakeMetrics(const std::string &workload, const std::string &policy,
            Tick exec_ticks)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = exec_ticks;
    return m;
}

} // namespace

TEST(RunKeyHash, DependsOnlyOnKeyText)
{
    const std::uint64_t h = runKeyHash("sig", "FwSoft", "CacheRW");
    EXPECT_EQ(h, runKeyHash("sig", "FwSoft", "CacheRW"));
    // Moving a character across a component boundary must change the
    // hash: the key components are separated, not concatenated.
    EXPECT_NE(h, runKeyHash("sigF", "wSoft", "CacheRW"));
    EXPECT_NE(h, runKeyHash("sig", "FwSoft", "CacheR"));
    EXPECT_NE(h, runKeyHash("", "FwSoft", "CacheRW"));
}

TEST(RunKeyHash, GridFingerprintStableAcrossProcessConditions)
{
    // A coordinator and its workers build the grid independently;
    // the per-key hashes and the grid fingerprint they exchange must
    // depend only on the keys - recompute under a different
    // MIGC_JOBS and in reverse key order and compare.
    const auto grid = smallGrid();
    std::vector<std::uint64_t> forward;
    std::uint64_t fingerprint = 0;
    {
        ScopedEnv jobs("MIGC_JOBS", "1");
        for (const RunRequest &req : grid)
            forward.push_back(runKeyHash(req.cfg.signature(),
                                         req.workload, req.policy));
        fingerprint = gridFingerprint(grid);
    }
    {
        ScopedEnv jobs("MIGC_JOBS", "16");
        for (std::size_t i = grid.size(); i-- > 0;) {
            EXPECT_EQ(forward[i],
                      runKeyHash(grid[i].cfg.signature(),
                                 grid[i].workload, grid[i].policy));
            // The replay model's static owner is the same hash.
            EXPECT_EQ(forward[i] % 4,
                      shardOf(grid[i].cfg.signature(), grid[i].workload,
                              grid[i].policy, 4));
        }
        EXPECT_EQ(fingerprint, gridFingerprint(smallGrid()));
    }
}

TEST(FleetShards, MergedShardCachesAreBitIdenticalToSingleProcess)
{
    const std::string solo = tempCachePath("solo");
    const std::string sharded = tempCachePath("sharded");
    std::remove(solo.c_str());
    removeCacheFamily(sharded, 4);

    const auto grid = smallGrid();
    {
        SweepEngine engine(solo);
        engine.run(grid);
    }
    // Four fleet-worker engines, each handed a disjoint round-robin
    // slice of the grid (standing in for the coordinator's leases):
    // every point is simulated exactly once across the workers.
    std::uint64_t total_sims = 0;
    for (unsigned i = 0; i < 4; ++i) {
        std::vector<RunRequest> slice;
        for (std::size_t k = i; k < grid.size(); k += 4)
            slice.push_back(grid[k]);
        SweepEngine engine(sharded, FleetWorkerSpec{i});
        engine.run(slice);
        EXPECT_EQ(engine.simulationsPerformed(), slice.size());
        total_sims += engine.simulationsPerformed();
    }
    EXPECT_EQ(total_sims, grid.size());
    ShardMergeStats stats = mergeShardCaches(sharded, 4);
    EXPECT_EQ(stats.rows, grid.size());

    // The acceptance bar: the coordinator-merged cache is the same
    // file, byte for byte, that the single-process sweep wrote.
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(sharded));

    // Merged shard files are cleaned up.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_FALSE(fileExists(shardCachePath(sharded, i)));

    // The merged canonical cache warm-starts a plain engine: it
    // simulates nothing.
    {
        SweepEngine engine(sharded);
        engine.run(grid);
        EXPECT_EQ(engine.simulationsPerformed(), 0u);
    }
    std::remove(solo.c_str());
    removeCacheFamily(sharded, 4);
}

TEST(FleetShards, WarmCanonicalCacheLeasesOnlyTheNewPoint)
{
    // A fleet over a warm canonical cache: the plan leases only the
    // key the cache lacks, the worker that runs it writes a shard
    // holding exactly that row (workers never read the canonical
    // file), and the join reproduces a solo sweep of the whole grid.
    const std::string solo = tempCachePath("warm_solo");
    const std::string base = tempCachePath("warm_fleet");
    const std::string sock =
        ::testing::TempDir() + "migc_shard_warm.sock";
    std::remove(solo.c_str());
    removeCacheFamily(base, 2);

    const auto grid = smallGrid();
    auto extended = grid;
    extended.push_back(
        RunRequest{SimConfig::testConfig(), "FwSoft", "CacheRW-AB"});
    const std::string sig = extended.back().cfg.signature();
    {
        SweepEngine engine(solo);
        engine.run(extended);
    }
    {
        SweepEngine engine(base);
        engine.run(grid); // the canonical cache holds the small grid
    }

    const FleetPlan plan = planFleetSweep(extended, base, 2, false);
    EXPECT_EQ(plan.cached, grid.size());
    ASSERT_EQ(plan.pending,
              std::vector<std::uint32_t>{
                  static_cast<std::uint32_t>(grid.size())});

    const std::uint64_t hash = gridFingerprint(extended);
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 10000}),
                       hash);
    server.start();
    {
        SweepEngine engine(base, FleetWorkerSpec{1});
        FleetClient client(sock, 1, hash);
        const SweepEngine::FleetRunStats st =
            engine.runFleet(extended, client, 1);
        EXPECT_EQ(st.runs, 1u);
        EXPECT_EQ(st.hits, 0u);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    EXPECT_FALSE(fileExists(shardCachePath(base, 0)));
    {
        RunCache shard_rows(shardCachePath(base, 1));
        EXPECT_EQ(shard_rows.size(), 1u);
        EXPECT_NE(shard_rows.find(sig, "FwSoft", "CacheRW-AB"), nullptr);
    }

    const ShardMergeStats stats = mergeShardCaches(base, 2);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.duplicates, 0u);
    const std::string solo_bytes = readFile(solo);
    ASSERT_FALSE(solo_bytes.empty());
    EXPECT_EQ(solo_bytes, readFile(base));

    std::remove(solo.c_str());
    removeCacheFamily(base, 2);
}

TEST(ShardMerge, MissingShardFilesAreSkipped)
{
    const std::string base = tempCachePath("nofiles");
    removeCacheFamily(base, 3);
    ShardMergeStats stats = mergeShardCaches(base, 3);
    EXPECT_EQ(stats.files, 0u);
    EXPECT_EQ(stats.rows, 0u);
    std::remove(base.c_str());
}

TEST(ShardMerge, IdenticalRowsDedupeAcrossShards)
{
    const std::string base = tempCachePath("dedupe");
    removeCacheFamily(base, 2);
    RunMetrics row = fakeMetrics("FwSoft", "CacheRW", 1234);
    writeShardFile(shardCachePath(base, 0), "sectionA", {row});
    writeShardFile(shardCachePath(base, 1), "sectionA", {row});
    ShardMergeStats stats = mergeShardCaches(base, 2);
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.duplicates, 1u);
    std::remove(base.c_str());
}

TEST(ShardMerge, ZeroLengthShardFileIsAnEmptyCacheNotAParseError)
{
    // A fleet worker SIGKILLed before its first checkpoint leaves a
    // zero-length shard file behind; --resume and the join merge
    // must read it as a legitimately empty cache, not count a parse
    // error.
    const std::string base = tempCachePath("zerolen");
    removeCacheFamily(base, 2);
    RunMetrics row = fakeMetrics("FwSoft", "CacheRW", 4321);
    writeShardFile(shardCachePath(base, 0), "sectionA", {row});
    { std::ofstream touch(shardCachePath(base, 1), std::ios::trunc); }

    ShardMergeStats stats = mergeShardCaches(base, 2);
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(stats.parseErrors, 0u);
    // Both inputs were consumed, including the empty one.
    EXPECT_FALSE(fileExists(shardCachePath(base, 0)));
    EXPECT_FALSE(fileExists(shardCachePath(base, 1)));
    std::remove(base.c_str());

    // Any non-empty shard that is not v4 - here blank lines, which
    // no v4 writer produces - is refused, naming the text import,
    // and the inputs stay on disk.
    removeCacheFamily(base, 1);
    {
        std::ofstream blank(shardCachePath(base, 0), std::ios::trunc);
        blank << "\n\n";
    }
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(mergeShardCaches(base, 1), ::testing::ExitedWithCode(1),
                "not a v4 cache.*--convert");
    EXPECT_TRUE(fileExists(shardCachePath(base, 0)));
    removeCacheFamily(base, 1);
}

TEST(ShardMerge, ConflictingRowsFailLoudly)
{
    const std::string base = tempCachePath("conflict");
    removeCacheFamily(base, 2);
    // Two shards claim the same (config, workload, policy) with
    // different results: a nondeterministic simulator or mismatched
    // sweeps. The merge must die and leave the inputs on disk.
    writeShardFile(shardCachePath(base, 0), "sectionA",
                   {fakeMetrics("FwSoft", "CacheRW", 1111)});
    writeShardFile(shardCachePath(base, 1), "sectionA",
                   {fakeMetrics("FwSoft", "CacheRW", 2222)});

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(mergeShardCaches(base, 2),
                ::testing::ExitedWithCode(1), "conflict");
    EXPECT_TRUE(fileExists(shardCachePath(base, 0)));
    EXPECT_TRUE(fileExists(shardCachePath(base, 1)));
    removeCacheFamily(base, 2);
}

TEST(ShardMerge, EarliestSegmentWinsAcrossFragmentedInputs)
{
    // The join's runs are every valid segment of every input - the
    // canonical file first, then shard 0.., each in file order - and
    // the earliest run holding a key wins it.
    const std::string base = tempCachePath("earliest");
    removeCacheFamily(base, 1);
    auto seg = [](const std::vector<RunMetrics> &rows) {
        std::vector<V4RowRef> refs;
        for (const RunMetrics &m : rows)
            refs.push_back(V4RowRef{"sectionA", m.workload, m.policy, m});
        return buildV4Segment(refs);
    };
    const RunMetrics a1 = fakeMetrics("A", "p", 1);
    const RunMetrics a2 = fakeMetrics("A", "p", 2);
    const RunMetrics b3 = fakeMetrics("B", "p", 3);
    const RunMetrics c4 = fakeMetrics("C", "p", 4);
    auto write = [](const std::string &path, const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    };
    // A conflict inside the canonical file warns and keeps the first
    // row; shard rows equal to an earlier run's are duplicates.
    write(base, seg({a1}) + seg({a2, b3}));
    write(shardCachePath(base, 0), seg({c4}) + seg({b3, c4}));

    const ShardMergeStats stats = mergeShardCaches(base, 1);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.rows, 1u);
    EXPECT_EQ(stats.duplicates, 2u);
    EXPECT_EQ(stats.parseErrors, 0u);
    EXPECT_EQ(readFile(base), seg({a1, b3, c4}));
    EXPECT_FALSE(fileExists(shardCachePath(base, 0)));

    // A later segment of one shard that contradicts an earlier one
    // is as fatal as a cross-shard conflict, and nothing is consumed.
    write(shardCachePath(base, 0),
          seg({c4}) + seg({fakeMetrics("C", "p", 5)}));
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(mergeShardCaches(base, 1), ::testing::ExitedWithCode(1),
                "conflict");
    EXPECT_TRUE(fileExists(shardCachePath(base, 0)));
    EXPECT_EQ(readFile(base), seg({a1, b3, c4}));
    removeCacheFamily(base, 1);
}
