/** @file Tests for the warm-cache serve layer and the input
 *  validation around it: glob matching, CacheSnapshot semantics
 *  (immutability, first-image-wins, the canonical merge of several
 *  images, snapshots outliving the owning cache), the ServeService
 *  protocol (warm hits, simulate-on-miss with exactly-one-enqueue,
 *  glob queries), mapped and fallback starts from a cache file whose
 *  fills serve byte-identically to the flushed cache's export, a
 *  concurrent reader/writer torture test, and the fatal paths for
 *  malformed MIGC_JOBS values and cache-unsafe registry names. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "policy/policy_registry.hh"
#include "serve/serve_protocol.hh"
#include "serve/serve_service.hh"
#include "sim/parallel.hh"
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
    return ::testing::TempDir() + "migc_serve_" + leaf + ".csv";
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

/** The serve-test grid: 2 workloads x 3 policies on the tiny test
 *  system (the same slice the shard tests sweep). */
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

/** Expected CSV per (workload, policy), from an independent warm
 *  replay - the byte-identity oracle for everything serve returns. */
std::map<std::pair<std::string, std::string>, std::string>
expectedRows()
{
    static const auto rows = [] {
        std::string path = tempCachePath("expected");
        std::remove(path.c_str());
        SweepEngine engine(path);
        std::vector<RunMetrics> results = engine.run(smallGrid());
        std::map<std::pair<std::string, std::string>, std::string>
            out;
        std::vector<RunRequest> grid = smallGrid();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            out[{grid[i].workload, grid[i].policy}] =
                results[i].toCsv();
        }
        std::remove(path.c_str());
        return out;
    }();
    return rows;
}

} // namespace

// ---------------------------------------------------------------------
// Glob matching
// ---------------------------------------------------------------------

TEST(Glob, LiteralAndWildcardMatching)
{
    EXPECT_TRUE(globMatch("FwBN", "FwBN"));
    EXPECT_FALSE(globMatch("FwBN", "FwBn"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("Fw*", "FwSoft"));
    EXPECT_FALSE(globMatch("Fw*", "BwSoft"));
    EXPECT_TRUE(globMatch("*Soft", "FwSoft"));
    EXPECT_TRUE(globMatch("F?Soft", "FwSoft"));
    EXPECT_FALSE(globMatch("F?Soft", "FSoft"));
    EXPECT_TRUE(globMatch("a*b*c", "aXXbYYc"));
    EXPECT_TRUE(globMatch("a*b*c", "abc"));
    EXPECT_FALSE(globMatch("a*b*c", "aXXbYY"));
    EXPECT_TRUE(globMatch("*W*", "CacheRW"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("", ""));
    EXPECT_TRUE(globMatch("**", "x"));
}

// ---------------------------------------------------------------------
// CacheSnapshot
// ---------------------------------------------------------------------

TEST(Snapshot, BuildsFirstWinsIndexInCanonicalOrder)
{
    RunMetrics a = fakeMetrics("FwBN", "CacheR", 10);
    RunMetrics b = fakeMetrics("FwBN", "Uncached", 20);
    RunMetrics c = fakeMetrics("BwBN", "CacheR", 30);

    RunCache cache{std::string()}; // memory-only
    cache.insert("sigB", a);
    cache.insert("sigB", b);
    cache.insert("sigA", c);
    EXPECT_EQ(cache.insert("sigB", fakeMetrics("FwBN", "CacheR", 999))
                  .execTicks,
              10u)
        << "first insert must win";
    auto snap = cache.snapshot();

    EXPECT_EQ(snap->rows(), 3u);
    EXPECT_EQ(snap->sectionCount(), 2u);
    std::string row;
    ASSERT_TRUE(snap->findCsv("sigB", "FwBN", "CacheR", row));
    EXPECT_EQ(row, a.toCsv());
    EXPECT_FALSE(snap->findCsv("sigB", "FwBN", "Missing", row));
    EXPECT_FALSE(snap->findCsv("nosig", "FwBN", "CacheR", row));
    EXPECT_EQ(row, a.toCsv()) << "a miss must append nothing";

    // match order: signature, then workload, then policy.
    std::string all;
    ASSERT_EQ(snap->matchCsv("*", "*", "*", all), 3u);
    EXPECT_EQ(all,
              c.toCsv() + "\n" + a.toCsv() + "\n" + b.toCsv() + "\n");

    std::string some;
    EXPECT_EQ(snap->matchCsv("sigB", "*", "Cache?", some), 1u);
    EXPECT_EQ(some, a.toCsv() + "\n");
    some.clear();
    EXPECT_EQ(snap->matchCsv("sig?", "?w*", "*", some), 3u);
    EXPECT_EQ(some, all);
}

TEST(Snapshot, FirstImageWinsAndMatchMergesInCanonicalOrder)
{
    RunCache first{std::string()};
    first.insert("sigB", fakeMetrics("FwBN", "CacheR", 10));
    first.insert("sigA", fakeMetrics("FwSoft", "Uncached", 30));
    RunCache second{std::string()};
    second.insert("sigB", fakeMetrics("FwBN", "CacheR", 999)); // shared
    second.insert("sigB", fakeMetrics("BwBN", "CacheR", 20));
    second.insert("sigC", fakeMetrics("FwBN", "CacheRW", 40));
    const CacheSnapshot::Image a = first.snapshot()->images().front();
    const CacheSnapshot::Image b = second.snapshot()->images().front();

    auto snap = CacheSnapshot::fromImages({a, b});
    EXPECT_EQ(snap->rows(), 4u) << "a shared key counts once";
    EXPECT_EQ(snap->sectionCount(), 3u);
    std::string row;
    ASSERT_TRUE(snap->findCsv("sigB", "FwBN", "CacheR", row));
    EXPECT_EQ(row, fakeMetrics("FwBN", "CacheR", 10).toCsv())
        << "the first image holding a key must answer it";
    row.clear();
    ASSERT_TRUE(snap->findCsv("sigB", "BwBN", "CacheR", row));
    EXPECT_EQ(row, fakeMetrics("BwBN", "CacheR", 20).toCsv());

    // The merge interleaves both images in canonical order and drops
    // the second image's copy of the shared key.
    std::string all;
    ASSERT_EQ(snap->matchCsv("*", "*", "*", all), 4u);
    EXPECT_EQ(all, fakeMetrics("FwSoft", "Uncached", 30).toCsv() + "\n" +
                       fakeMetrics("BwBN", "CacheR", 20).toCsv() + "\n" +
                       fakeMetrics("FwBN", "CacheR", 10).toCsv() + "\n" +
                       fakeMetrics("FwBN", "CacheRW", 40).toCsv() + "\n");
    std::string some;
    ASSERT_EQ(snap->matchCsv("sigB", "*", "CacheR", some), 2u);
    EXPECT_EQ(some, fakeMetrics("BwBN", "CacheR", 20).toCsv() + "\n" +
                        fakeMetrics("FwBN", "CacheR", 10).toCsv() + "\n");

    // Precedence follows image order, not image contents.
    auto swapped = CacheSnapshot::fromImages({b, a});
    row.clear();
    ASSERT_TRUE(swapped->findCsv("sigB", "FwBN", "CacheR", row));
    EXPECT_EQ(row, fakeMetrics("FwBN", "CacheR", 999).toCsv());
    some.clear();
    ASSERT_EQ(swapped->matchCsv("*", "*", "*", some), 4u);
    EXPECT_NE(some.find(row + "\n"), std::string::npos);
}

TEST(Snapshot, EmptySnapshotsAnswerNothing)
{
    RunCache cache{std::string()};
    for (const auto &snap :
         {CacheSnapshot::fromImages({}), cache.snapshot()}) {
        std::string out;
        EXPECT_EQ(snap->rows(), 0u);
        EXPECT_EQ(snap->sectionCount(), 0u);
        EXPECT_FALSE(snap->findCsv("sig", "FwBN", "CacheR", out));
        EXPECT_EQ(snap->matchCsv("*", "*", "*", out), 0u);
        EXPECT_EQ(out, "");
    }
    EXPECT_EQ(cache.snapshot()->images().size(), 1u)
        << "an empty cache is one zero-row image";
}

TEST(Snapshot, RunCachePublishesImmutableViews)
{
    RunCache cache{std::string()}; // memory-only
    cache.insert("sig", fakeMetrics("FwBN", "CacheR", 10));

    auto first = cache.snapshot();
    EXPECT_EQ(first->rows(), 1u);
    EXPECT_EQ(cache.snapshot().get(), first.get())
        << "no inserts since the last call: snapshot() must be free";

    cache.insert("sig", fakeMetrics("FwBN", "Uncached", 20));
    auto second = cache.snapshot();
    EXPECT_EQ(first->rows(), 1u)
        << "published snapshots must never change";
    EXPECT_EQ(second->rows(), 2u);
    std::string row;
    EXPECT_FALSE(first->findCsv("sig", "FwBN", "Uncached", row));
    ASSERT_TRUE(second->findCsv("sig", "FwBN", "Uncached", row));
    EXPECT_EQ(row, fakeMetrics("FwBN", "Uncached", 20).toCsv());
}

TEST(Snapshot, RowsOutliveTheOwningCache)
{
    std::shared_ptr<const CacheSnapshot> snap;
    {
        RunCache cache{std::string()};
        cache.insert("sig", fakeMetrics("FwBN", "CacheR", 42));
        snap = cache.snapshot();
    }
    std::string row;
    ASSERT_TRUE(snap->findCsv("sig", "FwBN", "CacheR", row));
    EXPECT_EQ(row, fakeMetrics("FwBN", "CacheR", 42).toCsv());
}

TEST(Snapshot, CacheFindSeesRowsAddedAfterASnapshot)
{
    RunCache cache{std::string()};
    cache.snapshot(); // image of the empty cache
    cache.insert("sig", fakeMetrics("FwBN", "CacheR", 7));
    // find() answers from the cache's own index, not a snapshot...
    ASSERT_NE(cache.find("sig", "FwBN", "CacheR"), nullptr);
    EXPECT_EQ(cache.estimateEvents("FwBN", "CacheR"), 0.0);
    EXPECT_EQ(cache.size(), 1u);
    // ...and insert() must dedupe against it (first write wins).
    const RunMetrics &kept =
        cache.insert("sig", fakeMetrics("FwBN", "CacheR", 9));
    EXPECT_EQ(kept.execTicks, 7u);
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// Cache input validation (satellite fixes)
// ---------------------------------------------------------------------

TEST(CacheValidationDeath, MetacharacterNamesAreFatalPerCharacter)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RunCache cache{std::string()};
    // One death per v3 metacharacter: field separator, line break,
    // leading comment marker, and the header-prefix collision.
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("Fw,BN", "CacheR", 1)),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("FwBN", "Cache\nR", 1)),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("#FwBN", "CacheR", 1)),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("workload", "CacheR", 1)),
        ::testing::ExitedWithCode(1), "header prefix");
}

TEST(CacheValidationDeath, RegistriesRejectUnsafeNames)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            WorkloadRegistry::Entry e;
            e.name = "Bad,Workload";
            WorkloadRegistry::instance().add(std::move(e));
        },
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        {
            PolicyRegistry::Entry e;
            e.name = "#BadPolicy";
            PolicyRegistry::instance().add(std::move(e));
        },
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    // The paper's parameterized specs take "@0.5"-style params; a
    // comma-decimal locale habit would have produced a name the
    // cache silently loses. It must die loudly instead.
    CachePolicy out;
    EXPECT_EXIT(
        PolicyRegistry::instance().tryMake("CacheRW-DynAB@0,5", out),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
}

TEST(SweepJobsEnv, ValidValuesParse)
{
    {
        ScopedEnv env("MIGC_JOBS", "8");
        EXPECT_EQ(sweepJobs(), 8u);
    }
    {
        ScopedEnv env("MIGC_JOBS", "1");
        EXPECT_EQ(sweepJobs(), 1u);
    }
    {
        // Empty and unset both mean "hardware default", never fatal.
        ScopedEnv env("MIGC_JOBS", "");
        EXPECT_GE(sweepJobs(), 1u);
    }
    {
        ScopedEnv env("MIGC_JOBS", nullptr);
        EXPECT_GE(sweepJobs(), 1u);
    }
}

TEST(SweepJobsEnvDeath, MalformedValuesAreFatalNotSilent)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    {
        ScopedEnv env("MIGC_JOBS", "abc");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "8x");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "0");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "-2");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "5000");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
}

// ---------------------------------------------------------------------
// Serve protocol parsing
// ---------------------------------------------------------------------

TEST(ServeProtocol, ParsesCommandsCommentsAndErrors)
{
    EXPECT_EQ(parseServeRequest("").kind, ServeRequest::Kind::none);
    EXPECT_EQ(parseServeRequest("# note").kind,
              ServeRequest::Kind::none);
    EXPECT_EQ(parseServeRequest("   \t ").kind,
              ServeRequest::Kind::none);

    ServeRequest get = parseServeRequest("get test FwBN CacheR");
    EXPECT_EQ(get.kind, ServeRequest::Kind::get);
    EXPECT_EQ(get.config, "test");
    EXPECT_EQ(get.workload, "FwBN");
    EXPECT_EQ(get.policy, "CacheR");

    ServeRequest match = parseServeRequest("match * Fw* Cache?");
    EXPECT_EQ(match.kind, ServeRequest::Kind::match);
    EXPECT_EQ(match.workload, "Fw*");

    EXPECT_EQ(parseServeRequest("stats").kind,
              ServeRequest::Kind::stats);
    EXPECT_EQ(parseServeRequest("wait").kind,
              ServeRequest::Kind::wait);
    EXPECT_EQ(parseServeRequest("help").kind,
              ServeRequest::Kind::help);

    EXPECT_EQ(parseServeRequest("get test FwBN").kind,
              ServeRequest::Kind::error);
    EXPECT_EQ(parseServeRequest("stats now").kind,
              ServeRequest::Kind::error);
    EXPECT_EQ(parseServeRequest("frobnicate").kind,
              ServeRequest::Kind::error);
}

// ---------------------------------------------------------------------
// ServeService
// ---------------------------------------------------------------------

TEST(ServeService, WarmHitsAreByteIdenticalToWarmReplay)
{
    const auto &expected = expectedRows();
    std::string path = tempCachePath("warm_hits");
    std::remove(path.c_str());
    {
        SweepEngine warmup(path);
        warmup.run(smallGrid());
    }

    SweepEngine engine(path);
    ServeService service(engine);
    for (const auto &[key, csv] : expected) {
        std::string reply = service.handleLine(
            "get test " + key.first + " " + key.second);
        EXPECT_EQ(reply, csv + "\n");
    }
    EXPECT_EQ(engine.simulationsPerformed(), 0u)
        << "a fully warm cache must serve without simulating";
    EXPECT_EQ(service.missEnqueues(), 0u);
    EXPECT_EQ(service.served(), expected.size());

    // match over the full grid: rows in canonical order + trailer.
    std::string matched = service.handleLine("match test * *");
    std::string want;
    for (const auto &[key, csv] : expected)
        want += csv + "\n"; // map order == (workload, policy) order
    want += "# matched 6 rows\n";
    EXPECT_EQ(matched, want);

    // The exact signature works as a config token too.
    std::string sig = SimConfig::testConfig().signature();
    std::string reply =
        service.handleLine("get " + sig + " FwBN CacheR");
    EXPECT_EQ(reply, expected.at({"FwBN", "CacheR"}) + "\n");
    std::remove(path.c_str());
}

TEST(ServeService, ErrorsAndEdgeCases)
{
    std::string path = tempCachePath("errors");
    std::remove(path.c_str());
    SweepEngine engine(path);
    ServeService service(engine);

    EXPECT_EQ(service.handleLine(""), "");
    EXPECT_EQ(service.handleLine("# comment"), "");
    EXPECT_EQ(service.handleLine("nope"),
              "# error: unknown command 'nope' (try: help)\n");
    EXPECT_TRUE(service.handleLine("get test NoSuchWl CacheR")
                    .find("# error: unknown workload") == 0);
    EXPECT_TRUE(service.handleLine("get test FwBN NoSuchPolicy")
                    .find("# error: unknown policy") == 0);
    EXPECT_TRUE(service.handleLine("get nosig FwBN CacheR")
                    .find("# error:") == 0)
        << "unknown config that is not cached cannot simulate";
    EXPECT_EQ(service.handleLine("match nosig * *"),
              "# matched 0 rows\n");
    EXPECT_TRUE(service.handleLine("help").find("# get") == 0);
    EXPECT_TRUE(service.handleLine("stats").find("# stats rows=0")
                == 0);
    std::remove(path.c_str());
}

TEST(ServeService, NoSimulateModeAnswersMissWithoutEnqueueing)
{
    std::string path = tempCachePath("no_simulate");
    std::remove(path.c_str());
    SweepEngine engine(path);
    ServeService::Options opts;
    opts.simulate = false;
    ServeService service(engine, opts);

    EXPECT_EQ(service.handleLine("get test FwBN CacheR"),
              "# miss test/FwBN/CacheR\n");
    service.drain(); // must not block with nothing pending
    EXPECT_EQ(service.missEnqueues(), 0u);
    EXPECT_EQ(engine.simulationsPerformed(), 0u);
    std::remove(path.c_str());
}

TEST(ServeService, ColdPointSimulatesOnMissExactlyOnce)
{
    const auto &expected = expectedRows();
    std::string path = tempCachePath("cold_miss");
    std::remove(path.c_str());
    SweepEngine engine(path);
    ServeService service(engine);

    std::string first = service.handleLine("get test FwBN Uncached");
    EXPECT_TRUE(first.find("# miss test/FwBN/Uncached") == 0);
    std::string again = service.handleLine("get test FwBN Uncached");
    if (again.find('#') == 0) {
        EXPECT_TRUE(again.find("# miss") == 0);
    } else {
        // The miss worker can legitimately finish between the two
        // lines; then the re-get is already a warm hit.
        EXPECT_EQ(again, expected.at({"FwBN", "Uncached"}) + "\n");
    }
    EXPECT_EQ(service.handleLine("wait"), "# drained\n");
    EXPECT_EQ(service.handleLine("get test FwBN Uncached"),
              expected.at({"FwBN", "Uncached"}) + "\n");
    EXPECT_EQ(service.missEnqueues(), 1u)
        << "repeat gets of one cold point must join the pending job";
    EXPECT_EQ(engine.simulationsPerformed(), 1u);
    std::remove(path.c_str());
}

TEST(ServeService, TortureConcurrentReadersDuringMissInserts)
{
    const auto &expected = expectedRows();
    const std::vector<RunRequest> grid = smallGrid();

    // Pre-warm half the grid; the other half stays cold and is
    // simulated on miss while readers hammer the snapshot.
    std::string path = tempCachePath("torture");
    std::remove(path.c_str());
    {
        SweepEngine warmup(path);
        std::vector<RunRequest> half(grid.begin(),
                                     grid.begin() + grid.size() / 2);
        warmup.run(half);
    }

    SweepEngine engine(path);
    ServeService service(engine);

    constexpr int kReaders = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> readers;
    std::vector<std::string> failures(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            for (int i = 0; i < kIters; ++i) {
                const RunRequest &req =
                    grid[static_cast<std::size_t>(r + i) %
                         grid.size()];
                std::string reply = service.handleLine(
                    "get test " + req.workload + " " + req.policy);
                const std::string &want =
                    expected.at({req.workload, req.policy});
                if (reply.find('#') == 0) {
                    if (reply.find("# miss") != 0) {
                        failures[r] = "unexpected status: " + reply;
                        return;
                    }
                } else if (reply != want + "\n") {
                    failures[r] = "served row diverged:\n  got  " +
                                  reply + "  want " + want + "\n";
                    return;
                }
                if (i % 16 == 0) {
                    // Pattern queries race the publishes too; every
                    // data row they return must be a real result.
                    std::string matched =
                        service.handleLine("match test * *");
                    std::size_t start = 0;
                    while (start < matched.size()) {
                        std::size_t nl = matched.find('\n', start);
                        std::string row =
                            matched.substr(start, nl - start);
                        start = nl + 1;
                        if (row.empty() || row[0] == '#')
                            continue;
                        bool known = false;
                        for (const auto &[key, csv] : expected)
                            known = known || csv == row;
                        if (!known) {
                            failures[r] =
                                "match returned a row that is not a "
                                "warm-replay result: " + row;
                            return;
                        }
                    }
                }
            }
        });
    }
    for (auto &t : readers)
        t.join();
    for (const auto &f : failures)
        EXPECT_EQ(f, "");

    service.drain();
    for (const RunRequest &req : grid) {
        EXPECT_EQ(service.handleLine("get test " + req.workload +
                                     " " + req.policy),
                  expected.at({req.workload, req.policy}) + "\n");
    }
    EXPECT_EQ(service.missEnqueues(), grid.size() - grid.size() / 2)
        << "each cold point must enqueue exactly one simulation";
    EXPECT_EQ(engine.simulationsPerformed(),
              grid.size() - grid.size() / 2);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ServeService over a cache file (Options::cachePath)
// ---------------------------------------------------------------------

namespace
{

/** @p text without its '#' status/comment lines and csv headers. */
std::string
dataLines(const std::string &text)
{
    std::string out;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size() - 1;
        const std::string line = text.substr(start, nl + 1 - start);
        start = nl + 1;
        if (line[0] != '#' && line.rfind("workload,", 0) != 0)
            out += line;
    }
    return out;
}

/** The data rows of the csv export of the cache at @p path. */
std::string
exportedRows(const std::string &path)
{
    const std::string csv = path + ".export.csv";
    {
        RunCache cache(path);
        EXPECT_TRUE(cache.exportFile(csv, CacheFormat::csv));
    }
    std::ifstream in(csv, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(csv.c_str());
    return dataLines(ss.str());
}

/**
 * Fill two cold test-config points through @p service, flush
 * @p engine, and check that `match * * *` answers exactly the data
 * rows of the flushed cache's csv export: the start image and the
 * fills delta merge to what the file holds.
 */
void
fillTwiceAndMatchTheExport(SweepEngine &engine, ServeService &service,
                           const std::string &path,
                           std::size_t rows_before)
{
    const auto &expected = expectedRows();
    for (const char *policy : {"Uncached", "CacheR"}) {
        const std::string get = std::string("get test FwBN ") + policy;
        EXPECT_EQ(service.handleLine(get).rfind("# miss", 0), 0u);
        EXPECT_EQ(service.handleLine("wait"), "# drained\n");
        EXPECT_EQ(service.handleLine(get),
                  expected.at({"FwBN", policy}) + "\n");
    }
    EXPECT_EQ(service.missEnqueues(), 2u);
    EXPECT_EQ(service.snapshotRows(), rows_before + 2);
    EXPECT_NE(service.handleLine("stats").find(" publishes=2 "),
              std::string::npos);

    const std::string matched = service.handleLine("match * * *");
    EXPECT_EQ(matched.substr(matched.rfind("# matched")),
              csprintf("# matched %zu rows\n", rows_before + 2));
    engine.flush();
    EXPECT_EQ(dataLines(matched), exportedRows(path));
}

} // namespace

TEST(ServeService, CompactedCacheStartsMappedAndServesFills)
{
    const std::vector<RunRequest> grid = smallGrid();
    std::string path = tempCachePath("mapped_start");
    std::remove(path.c_str());
    {
        SweepEngine warmup(path);
        warmup.run({grid.begin(), grid.begin() + grid.size() / 2});
    }
    ASSERT_EQ(v4SegmentCount(path), 1u);

    SweepEngine engine(path);
    ServeService::Options opts;
    opts.cachePath = path;
    ServeService service(engine, opts);
    EXPECT_EQ(service.snapshotFormat(), "v4-mmap");
    fillTwiceAndMatchTheExport(engine, service, path, grid.size() / 2);
    std::remove(path.c_str());
}

TEST(ServeService, AppendedCacheStartsOnTheEngineImageAndServesFills)
{
    const std::vector<RunRequest> grid = smallGrid();
    std::string path = tempCachePath("appended_start");
    std::remove(path.c_str());
    {
        SweepEngine warmup(path);
        warmup.run({grid.begin(), grid.begin() + grid.size() / 2});
    }
    // Append one foreign-config row as a second segment, then undo
    // the destructor's compaction: the file is the multi-segment
    // shape a checkpointed writer leaves, which cannot be mapped.
    std::string bytes;
    {
        RunCache cache(path, 1);
        cache.insert("foreign-sig", fakeMetrics("FwBN", "CacheRW", 5));
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    ASSERT_EQ(v4SegmentCount(path), 2u);
    std::string why;
    ASSERT_EQ(MappedCacheV4::map(path, &why), nullptr);

    SweepEngine engine(path);
    ServeService::Options opts;
    opts.cachePath = path;
    ServeService service(engine, opts);
    EXPECT_EQ(service.snapshotFormat(), "v4");
    fillTwiceAndMatchTheExport(engine, service, path,
                               grid.size() / 2 + 1);
    std::remove(path.c_str());
}
