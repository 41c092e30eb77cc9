/**
 * @file
 * Self-contained perf harness for the simulator substrate.
 *
 * Measures events/sec (and ops/sec for the non-event scenarios)
 * across the hot paths of the simulation core - event queue churn,
 * reschedule-heavy timer traffic, deep queues, tag lookups, and two
 * end-to-end workload runs with per-category event attribution - and
 * emits the results as JSON so CI can record a perf trajectory per
 * commit and fail on regressions.
 *
 * Usage:
 *   micro_substrate [--json FILE] [--baseline FILE] [--max-regress R]
 *
 * --json FILE       write results to FILE as JSON.
 * --baseline FILE   compare the headline events/sec against FILE
 *                   (a previous --json output); exit 1 when it
 *                   regresses by more than R (default 0.30,
 *                   0 < R < 1).
 *
 * These quantify simulator performance, not modeled-hardware
 * performance.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/tags.hh"
#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/runner.hh"
#include "core/shard.hh"
#include "core/sweep_engine.hh"
#include "core/system.hh"
#include "policy/cache_policy.hh"
#include "policy/policy_engine.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

using namespace migc;
using BenchClock = std::chrono::steady_clock;

namespace
{

double
secondsSince(BenchClock::time_point t0)
{
    return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

struct BenchResult
{
    std::string name;
    std::uint64_t items = 0;
    double seconds = 0.0;

    /** True when the items are simulation events (headline pool). */
    bool eventScenario = true;

    /** Per-category event counts (end-to-end scenarios only). */
    std::vector<std::pair<std::string, std::uint64_t>> byCategory;

    double rate() const { return seconds > 0 ? items / seconds : 0.0; }
};

BenchResult
benchEqScheduleService()
{
    BenchResult r;
    r.name = "eq_schedule_service";
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "bm");
    const std::uint64_t n = 20'000'000;
    Tick t = 1;
    auto t0 = BenchClock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        eq.schedule(&ev, t++);
        eq.serviceOne();
    }
    r.seconds = secondsSince(t0);
    r.items = n;
    return r;
}

BenchResult
benchEqRescheduleStorm()
{
    // The DRAM bank-timer pattern: a fixed population of events that
    // constantly move around in time. The old lazy-deletion queue
    // accumulated one stale heap entry per reschedule; the intrusive
    // heap relocates in place.
    BenchResult r;
    r.name = "eq_reschedule_storm";
    EventQueue eq;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    Rng rng(7);
    for (int i = 0; i < 1024; ++i) {
        evs.push_back(std::make_unique<EventFunctionWrapper>([] {}, "bm"));
        eq.schedule(evs.back().get(), 1'000'000 + rng.below(1'000'000));
    }
    const std::uint64_t n = 4'000'000;
    auto t0 = BenchClock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        auto &ev = *evs[rng.below(evs.size())];
        eq.reschedule(&ev, 1'000'000 + i + rng.below(1'000'000));
    }
    eq.run();
    r.seconds = secondsSince(t0);
    r.items = n;
    return r;
}

BenchResult
benchEqDepth()
{
    BenchResult r;
    r.name = "eq_depth_16384";
    const std::size_t depth = 16384;
    const int reps = 100;
    for (int rep = 0; rep < reps; ++rep) {
        EventQueue eq;
        std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
        Rng rng(static_cast<std::uint64_t>(rep + 1));
        for (std::size_t i = 0; i < depth; ++i) {
            evs.push_back(
                std::make_unique<EventFunctionWrapper>([] {}, "bm"));
            eq.schedule(evs.back().get(), rng.below(1'000'000));
        }
        auto t0 = BenchClock::now();
        eq.run();
        r.seconds += secondsSince(t0);
    }
    r.items = depth * reps;
    return r;
}

BenchResult
benchTagsLookupHit()
{
    BenchResult r;
    r.name = "tags_lookup_hit";
    r.eventScenario = false;
    Tags tags(1 << 20, 16, 64, ReplKind::lru);
    for (Addr a = 0; a < (1 << 20); a += 64) {
        CacheBlk *v = tags.findVictim(a);
        tags.insert(v, a, BlkState::valid, 0);
    }
    Rng rng(2);
    const std::uint64_t n = 40'000'000;
    std::uint64_t sink = 0;
    auto t0 = BenchClock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr a = rng.below((1 << 20) / 64) * 64;
        sink += tags.findBlock(a) != nullptr;
    }
    r.seconds = secondsSince(t0);
    r.items = n;
    if (sink != n)
        std::fprintf(stderr, "tags_lookup_hit: unexpected misses\n");
    return r;
}

BenchResult
benchTagsVictimSearch()
{
    BenchResult r;
    r.name = "tags_victim_search";
    r.eventScenario = false;
    Tags tags(1 << 16, 16, 64, ReplKind::lru);
    for (Addr a = 0; a < (1 << 16); a += 64) {
        CacheBlk *v = tags.findVictim(a);
        tags.insert(v, a, BlkState::valid, 0);
    }
    Rng rng(3);
    const std::uint64_t n = 20'000'000;
    std::uint64_t sink = 0;
    auto t0 = BenchClock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr a = rng.below(1 << 24) & ~63ULL;
        sink += tags.findVictim(a) != nullptr;
    }
    r.seconds = secondsSince(t0);
    r.items = n;
    (void)sink;
    return r;
}

/**
 * Sustained sequential lookup sweep over every resident line: the
 * streaming counterpart to tags_lookup_hit's random probes. Walks
 * the whole footprint in address order so each set's address lane is
 * scanned back to back - the pure SoA/SIMD scan rate with no RNG in
 * the loop.
 */
BenchResult
benchTagsSoaScanSweep()
{
    BenchResult r;
    r.name = "tags_soa_scan_sweep";
    r.eventScenario = false;
    Tags tags(1 << 20, 16, 64, ReplKind::lru);
    for (Addr a = 0; a < (1 << 20); a += 64) {
        CacheBlk *v = tags.findVictim(a);
        tags.insert(v, a, BlkState::valid, 0);
    }
    const int reps = 2000;
    const std::uint64_t lines = (1 << 20) / 64;
    std::uint64_t sink = 0;
    auto t0 = BenchClock::now();
    for (int rep = 0; rep < reps; ++rep) {
        for (Addr a = 0; a < (1 << 20); a += 64)
            sink += tags.findBlock(a) != nullptr;
    }
    r.seconds = secondsSince(t0);
    r.items = lines * reps;
    if (sink != r.items)
        std::fprintf(stderr, "tags_soa_scan_sweep: unexpected misses\n");
    return r;
}

/**
 * busyWays over random sets with half the store busy: the occupancy
 * probe the dynamic allocation-bypass policy (CacheRW-DynAB) makes
 * on every store. One popcount per call against the busy bitmap.
 */
BenchResult
benchBusyBitmapPopcount()
{
    BenchResult r;
    r.name = "busy_bitmap_popcount";
    r.eventScenario = false;
    Tags tags(1 << 20, 16, 64, ReplKind::lru);
    int i = 0;
    for (Addr a = 0; a < (1 << 20); a += 64) {
        CacheBlk *v = tags.findVictim(a);
        tags.insert(v, a, (i++ % 2) ? BlkState::busy : BlkState::valid,
                    0);
    }
    Rng rng(5);
    const std::uint64_t n = 200'000'000;
    std::uint64_t sink = 0;
    auto t0 = BenchClock::now();
    for (std::uint64_t k = 0; k < n; ++k) {
        Addr a = rng.below((1 << 20) / 64) * 64;
        sink += tags.busyWays(a);
    }
    r.seconds = secondsSince(t0);
    r.items = n;
    // Half the ways of every set are busy, so the mean must be 8.
    if (sink != n * 8)
        std::fprintf(stderr, "busy_bitmap_popcount: unexpected sum\n");
    return r;
}

/**
 * Deep-queue drain at 4x the eq_depth_16384 population: siftDown
 * dominates, and the tree depth spans more cache levels. Outside the
 * headline pool so the headline stays comparable with pre-PR7
 * records.
 */
BenchResult
benchEqDaryDepth()
{
    BenchResult r;
    r.name = "eq_dary_depth";
    r.eventScenario = false;
    const std::size_t depth = 65536;
    const int reps = 40;
    for (int rep = 0; rep < reps; ++rep) {
        EventQueue eq;
        std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
        Rng rng(static_cast<std::uint64_t>(rep + 1));
        for (std::size_t i = 0; i < depth; ++i) {
            evs.push_back(
                std::make_unique<EventFunctionWrapper>([] {}, "bm"));
            eq.schedule(evs.back().get(), rng.below(1'000'000));
        }
        auto t0 = BenchClock::now();
        eq.run();
        r.seconds += secondsSince(t0);
    }
    r.items = depth * reps;
    return r;
}

BenchResult
benchEndToEnd(const std::string &workload, const std::string &policy)
{
    BenchResult r;
    r.name = "end_to_end_" + workload + "_" + policy;
    SimConfig cfg = SimConfig::testConfig();
    cfg.seed = deriveSeed(cfg.seed, workload + "/" + policy);
    auto wl = makeWorkload(workload);
    System sys(cfg, CachePolicy::fromName(policy));
    bool done = false;
    auto t0 = BenchClock::now();
    sys.gpu().dispatcher().run(wl->kernels(cfg.workloadScale),
                               [&done] { done = true; });
    sys.eventQueue().runUntil([&done] { return done; });
    r.seconds = secondsSince(t0);
    r.items = sys.eventQueue().numProcessed();
    for (std::size_t c = 0; c < numEventCategories; ++c) {
        auto cat = static_cast<EventCategory>(c);
        r.byCategory.emplace_back(eventCategoryName(cat),
                                  sys.eventQueue().numProcessed(cat));
    }
    return r;
}

/**
 * Verdict-call overhead of the PolicyEngine: the static fast path
 * every paper policy takes at each cache decision point, plus each
 * dynamic mechanism's full verdict. Outside the events/s headline
 * pool (decisions/sec, not events); gated per-scenario in perf-smoke
 * so the engine indirection can never silently slow the hot path.
 */
BenchResult
benchPolicyDecisionOverhead()
{
    BenchResult r;
    r.name = "policy_decision_overhead";
    r.eventScenario = false;
    PolicyEngine stat(CachePolicy::fromName("CacheRW-PCby"));
    PolicyEngine duel(CachePolicy::fromName("CacheRW-Duel"));
    PolicyEngine dynab(CachePolicy::fromName("CacheRW-DynAB"));
    PolicyEngine dyncr(CachePolicy::fromName("CacheRW-DynCR"));
    const std::uint64_t n = 20'000'000;
    std::uint64_t sink = 0;
    auto t0 = BenchClock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        unsigned set = static_cast<unsigned>(i & 63);
        sink += stat.rinseRow(4);                       // static fast path
        sink += stat.cacheStore(DuelRole::follower);    // static fast path
        sink += duel.cacheStore(duel.duelRole(set, 64));
        sink += dynab.occupancyBypass(set & 15, 16);
        sink += dyncr.rinseRow((i & 7) + 1);
    }
    r.seconds = secondsSince(t0);
    r.items = n * 5; // five verdicts per iteration
    // Two of the five verdicts are unconditionally true, so sink must
    // reach at least 2n; the check also keeps the verdict calls
    // observable (no dead-code elimination of the measured loop).
    if (sink < 2 * n)
        std::fprintf(stderr,
                     "policy_decision_overhead: unexpected sink\n");
    return r;
}

/**
 * Worker count for the sweep-throughput scenarios. Fixed (not
 * hardware-derived) so the runs/sec numbers compare across commits
 * on the same runner class.
 */
constexpr unsigned kSweepJobs = 4;

/**
 * The sweep-throughput grid: the paper's full 17-workload x 6-policy
 * sweep at test scale, in the exact submission order the figure
 * binaries use (workload-major). The heavy FwLRN runs sit near the
 * end of this order, which is what makes FIFO's tail visible.
 */
std::vector<RunRequest>
sweepGrid()
{
    std::vector<RunRequest> grid;
    SimConfig cfg = SimConfig::testConfig();
    for (const auto &w : workloadOrder()) {
        for (const char *p :
             {"Uncached", "CacheR", "CacheRW", "CacheRW-AB",
              "CacheRW-CR", "CacheRW-PCby"})
            grid.push_back(RunRequest{cfg, w, p});
    }
    return grid;
}

/**
 * Cold full-grid sweep the pre-engine way: FIFO submission order,
 * one freshly built System per run, no cache. The reference the
 * engine scenario is judged against.
 */
BenchResult
benchSweepColdFifo()
{
    BenchResult r;
    r.name = "sweep_cold_fifo_fresh_systems";
    r.eventScenario = false;
    auto grid = sweepGrid();
    auto t0 = BenchClock::now();
    parallelFor(
        grid.size(),
        [&](std::size_t i) {
            RunMetrics m = runNamedWorkload(
                grid[i].workload, grid[i].cfg, grid[i].policy);
            (void)m;
        },
        kSweepJobs);
    r.seconds = secondsSince(t0);
    r.items = grid.size();
    return r;
}

/**
 * The same cold grid through the SweepEngine: longest-job-first
 * scheduling plus per-worker System reuse (cache disabled, so every
 * run simulates). Bit-identical results, less wall clock on
 * multi-core hosts. @p grid_results receives the metrics so the
 * scheduler model below can replay the grid's true run costs.
 */
BenchResult
benchSweepColdEngine(std::vector<RunMetrics> &grid_results)
{
    BenchResult r;
    r.name = "sweep_cold_engine";
    r.eventScenario = false;
    auto grid = sweepGrid();
    auto t0 = BenchClock::now();
    SweepEngine engine("");
    grid_results = engine.run(grid, kSweepJobs);
    r.seconds = secondsSince(t0);
    r.items = grid.size();
    if (engine.simulationsPerformed() != grid.size())
        std::fprintf(stderr, "sweep_cold_engine: unexpected cache hits\n");
    return r;
}

/**
 * Deterministic scheduler-quality model: replay the grid's measured
 * per-run costs (sim_events, which are bit-exact and host-
 * independent) through a k-worker pool in FIFO submission order vs
 * longest-job-first, and compare makespans. This isolates the
 * tail-straggler effect the LPT scheduler removes from host core
 * count and thread noise - the wall-clock scenarios above only show
 * it when the host really has >= kSweepJobs cores.
 */
struct ScheduleModel
{
    unsigned workers;
    double fifoMakespan; ///< event units
    double lptMakespan;  ///< event units
    double ratio() const
    {
        return lptMakespan > 0 ? fifoMakespan / lptMakespan : 0.0;
    }
};

ScheduleModel
modelSchedule(const std::vector<RunMetrics> &grid_results, unsigned k)
{
    auto makespan = [k](const std::vector<double> &seq) {
        std::vector<double> workers(k, 0.0);
        for (double cost : seq) {
            auto it = std::min_element(workers.begin(), workers.end());
            *it += cost;
        }
        return *std::max_element(workers.begin(), workers.end());
    };
    std::vector<double> fifo;
    fifo.reserve(grid_results.size());
    for (const auto &m : grid_results)
        fifo.push_back(m.simEvents);
    std::vector<double> lpt = fifo;
    std::sort(lpt.begin(), lpt.end(), std::greater<double>());
    return ScheduleModel{k, makespan(fifo), makespan(lpt)};
}

/**
 * Deterministic fleet-quality model: replay the grid's measured
 * per-run costs through a static key-hash partition (shardOf) vs the
 * work-stealing fleet (core/fleet.hh models) on a k-worker pool with
 * one 3x straggler - the sweep-level failure mode the elastic fleet
 * exists to remove. Like the schedule model above, this is built
 * from sim_events, so it is bit-exact and host-independent.
 */
struct FleetMakespanModel
{
    unsigned workers;
    double staticMakespan; ///< event units (straggler-bound)
    double stealMakespan;  ///< event units
    double ratio() const
    {
        return stealMakespan > 0 ? staticMakespan / stealMakespan
                                 : 0.0;
    }
};

FleetMakespanModel
modelFleetMakespan(const std::vector<RunMetrics> &grid_results,
                   unsigned k)
{
    // Owners come from the real shardOf hash on the real run keys,
    // so the static side is an exact fork-time hash split.
    auto grid = sweepGrid();
    std::vector<double> costs;
    std::vector<unsigned> owners;
    costs.reserve(grid_results.size());
    for (std::size_t i = 0; i < grid_results.size(); ++i) {
        costs.push_back(grid_results[i].simEvents);
        owners.push_back(shardOf(grid[i].cfg.signature(),
                                 grid[i].workload, grid[i].policy, k));
    }
    std::vector<double> speeds(k, 1.0);
    speeds[0] = 1.0 / 3.0; // one straggling worker
    return FleetMakespanModel{
        k, fleetStaticMakespan(costs, owners, speeds),
        fleetStealMakespan(costs, speeds)};
}

/**
 * Warm-cache replay: the grid is fully on disk; each iteration
 * builds a fresh engine (cache load included) and re-requests the
 * whole grid. Zero simulations - this is the "ablation re-run"
 * path, and its rate is grid points served per second.
 */
BenchResult
benchSweepWarmReplay()
{
    BenchResult r;
    r.name = "sweep_warm_replay";
    r.eventScenario = false;
    const std::string path = "BENCH_sweep_warm_cache.tmp.csv";
    std::remove(path.c_str());
    auto grid = sweepGrid();
    {
        SweepEngine engine(path);
        engine.run(grid, kSweepJobs);
    }

    const int reps = 50;
    auto t0 = BenchClock::now();
    for (int rep = 0; rep < reps; ++rep) {
        SweepEngine engine(path);
        engine.run(grid);
        if (engine.simulationsPerformed() != 0) {
            std::fprintf(stderr,
                         "sweep_warm_replay: cache miss on replay\n");
            break;
        }
    }
    r.seconds = secondsSince(t0);
    r.items = static_cast<std::uint64_t>(reps) * grid.size();
    std::remove(path.c_str());
    return r;
}

// ---------------------------------------------------------------
// Zero-copy data plane (cache v4): load, replay, and shard merge
// over a 100k-row synthetic grid. No simulation runs here - these
// scenarios time the cache serialization layer alone, at a scale
// (10 configs x 100 workloads x 100 policies) where the O(rows)
// costs dominate and a parse-vs-mmap difference is unmistakable.
// ---------------------------------------------------------------

/** Keys of the synthetic 100k-row grid. */
struct SyntheticGrid
{
    std::vector<std::string> sigs;      ///< 10 config signatures
    std::vector<std::string> workloads; ///< 100
    std::vector<std::string> policies;  ///< 100

    std::size_t rows() const
    {
        return sigs.size() * workloads.size() * policies.size();
    }
};

SyntheticGrid
syntheticGrid()
{
    SyntheticGrid g;
    for (int j = 0; j < 10; ++j)
        g.sigs.push_back(csprintf("synthcfg%02d", j));
    for (int a = 0; a < 100; ++a)
        g.workloads.push_back(csprintf("w%02d", a));
    for (int b = 0; b < 100; ++b)
        g.policies.push_back(csprintf("p%02d", b));
    return g;
}

/** A deterministic, nonzero metrics row for one synthetic key. */
RunMetrics
syntheticRow(const std::string &workload, const std::string &policy,
             std::uint64_t salt)
{
    const std::uint64_t h = splitmix64(salt);
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = 1000 + (h & 0xffff);
    m.execSeconds = static_cast<double>(m.execTicks) * 1e-9;
    m.gpuMemRequests = static_cast<double>(h % 100000);
    m.dramReads = static_cast<double>(h % 7919);
    m.dramWrites = static_cast<double>(h % 4093);
    m.dramAccesses = m.dramReads + m.dramWrites + 1.0;
    m.dramRowHitRate = static_cast<double>(h % 1000) / 1000.0;
    m.simEvents = static_cast<double>(1 + h % 65536);
    return m;
}

/** Write the synthetic grid to @p path in @p format (one compact
 *  write of an in-memory cache). */
void
writeSyntheticCache(const std::string &path, const SyntheticGrid &g,
                    CacheFormat format)
{
    RunCache rc{std::string()};
    std::uint64_t salt = 0;
    for (const auto &sig : g.sigs)
        for (const auto &w : g.workloads)
            for (const auto &p : g.policies)
                rc.insert(sig, syntheticRow(w, p, ++salt));
    rc.exportFile(path, format);
}

/**
 * Zero-copy load: map the v4 file and build the serving snapshot
 * (checksum pass included, no row materialization). This is the
 * migc_serve startup path; its counterpart cache_v3_parse below is
 * the same logical load through the one-shot text import.
 */
BenchResult
benchCacheV4Load(const std::string &path, const SyntheticGrid &g)
{
    BenchResult r;
    r.name = "cache_v4_load";
    r.eventScenario = false;
    const int reps = 40;
    std::size_t sink = 0;
    auto t0 = BenchClock::now();
    for (int rep = 0; rep < reps; ++rep) {
        std::string why;
        auto file = MappedCacheV4::map(path, &why);
        if (file == nullptr) {
            std::fprintf(stderr, "cache_v4_load: map failed: %s\n",
                         why.c_str());
            break;
        }
        auto snap = CacheSnapshot::fromMappedFile(std::move(file));
        sink += snap->rows();
    }
    r.seconds = secondsSince(t0);
    r.items = static_cast<std::uint64_t>(reps) * g.rows();
    if (sink != r.items)
        std::fprintf(stderr, "cache_v4_load: row count drifted\n");
    return r;
}

/** The same grid read from v3 text by the `--convert` import. */
BenchResult
benchCacheV3Parse(const std::string &path, const SyntheticGrid &g)
{
    BenchResult r;
    r.name = "cache_v3_parse";
    r.eventScenario = false;
    const int reps = 3;
    std::size_t sink = 0;
    auto t0 = BenchClock::now();
    for (int rep = 0; rep < reps; ++rep) {
        RunCache rc{std::string()};
        importTextCache(path, rc);
        sink += rc.size();
    }
    r.seconds = secondsSince(t0);
    r.items = static_cast<std::uint64_t>(reps) * g.rows();
    if (sink != r.items)
        std::fprintf(stderr, "cache_v3_parse: row count drifted\n");
    return r;
}

/**
 * Warm replay against the v4 cache: load it the way a sweep engine
 * does (bulk sorted import, no per-row map inserts) and look up
 * every grid key. Grid points served per second, the v4 analogue of
 * sweep_warm_replay's rate.
 */
BenchResult
benchWarmReplayV4(const std::string &path, const SyntheticGrid &g)
{
    BenchResult r;
    r.name = "warm_replay_v4";
    r.eventScenario = false;
    const int reps = 10;
    std::size_t hits = 0;
    auto t0 = BenchClock::now();
    for (int rep = 0; rep < reps; ++rep) {
        RunCache rc(path, 1u << 30);
        for (const auto &sig : g.sigs)
            for (const auto &w : g.workloads)
                for (const auto &p : g.policies)
                    hits += rc.find(sig, w, p) != nullptr;
    }
    r.seconds = secondsSince(t0);
    r.items = static_cast<std::uint64_t>(reps) * g.rows();
    if (hits != r.items)
        std::fprintf(stderr, "warm_replay_v4: cache miss on replay\n");
    return r;
}

/**
 * Coordinator join over 4 x 25k-row shard files (plus no canonical
 * cache). Compacted shards are one sorted run each; the
 * @p fragmented variant leaves each shard as the appended
 * multi-segment file a worker's checkpoints produce (a run per
 * 4096-row segment), so it times the same zero-copy k-way walk over
 * seven times as many runs. Only the merge itself is timed -
 * re-seeding the consumed input files between reps is setup.
 */
BenchResult
benchShardMerge100k(const std::string &base, const SyntheticGrid &g,
                    bool fragmented, const char *name, int reps)
{
    BenchResult r;
    r.name = name;
    r.eventScenario = false;
    constexpr unsigned kShards = 4;

    // Build each shard's bytes once (round-robin key partition, so
    // shard files are key-disjoint and individually sorted), then
    // re-seed the files from memory before every timed merge.
    std::vector<std::string> blobs(kShards);
    {
        std::vector<std::unique_ptr<RunCache>> shards;
        for (unsigned i = 0; i < kShards; ++i) {
            const std::string path = shardCachePath(base, i);
            std::remove(path.c_str());
            // Fragmented shards checkpoint (append a segment) every
            // 4096 rows.
            shards.push_back(std::make_unique<RunCache>(
                path, fragmented ? 4096 : 1u << 30));
        }
        std::uint64_t salt = 0;
        std::size_t at = 0;
        for (const auto &sig : g.sigs)
            for (const auto &w : g.workloads)
                for (const auto &p : g.policies)
                    shards[at++ % kShards]->insert(
                        sig, syntheticRow(w, p, ++salt));
        for (unsigned i = 0; i < kShards; ++i) {
            // Read the bytes before the cache's destructor compacts.
            if (fragmented)
                shards[i]->checkpoint();
            else
                shards[i]->flush();
            std::ifstream in(shardCachePath(base, i),
                             std::ios::binary);
            std::stringstream ss;
            ss << in.rdbuf();
            blobs[i] = ss.str();
        }
    }

    r.seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        std::remove(base.c_str());
        for (unsigned i = 0; i < kShards; ++i) {
            std::ofstream out(shardCachePath(base, i),
                              std::ios::binary | std::ios::trunc);
            out.write(blobs[i].data(),
                      static_cast<std::streamsize>(blobs[i].size()));
        }
        auto t0 = BenchClock::now();
        ShardMergeStats stats = mergeShardCaches(base, kShards);
        r.seconds += secondsSince(t0);
        if (stats.rows != g.rows() || stats.files != kShards)
            std::fprintf(stderr, "%s: bad merge (%zu rows, %zu "
                         "files)\n", name, stats.rows, stats.files);
    }
    r.items = static_cast<std::uint64_t>(reps) * g.rows();
    std::remove(base.c_str());
    return r;
}

double
geomeanRate(const std::vector<BenchResult> &results, bool events_only)
{
    double log_sum = 0.0;
    int n = 0;
    for (const auto &r : results) {
        if (events_only && !r.eventScenario)
            continue;
        if (r.rate() <= 0)
            continue;
        log_sum += std::log(r.rate());
        ++n;
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
}

std::string
toJson(const std::vector<BenchResult> &results, double headline,
       const std::vector<ScheduleModel> &models,
       const std::vector<FleetMakespanModel> &fleet_models)
{
    std::ostringstream os;
    os << "{\n  \"schema\": 1,\n  \"simd_isa\": \"" << Tags::simdIsa()
       << "\",\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        os << "    {\"name\": \"" << r.name << "\", \"items\": "
           << r.items << ", \"seconds\": " << r.seconds
           << ", \"rate\": " << r.rate();
        if (!r.byCategory.empty()) {
            os << ", \"events_by_category\": {";
            for (std::size_t c = 0; c < r.byCategory.size(); ++c) {
                os << "\"" << r.byCategory[c].first
                   << "\": " << r.byCategory[c].second;
                if (c + 1 < r.byCategory.size())
                    os << ", ";
            }
            os << "}";
        }
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"sweep_schedule_model\": {";
    for (std::size_t i = 0; i < models.size(); ++i) {
        const auto &sm = models[i];
        os << "\"workers_" << sm.workers << "\": {\"fifo_makespan_events\": "
           << sm.fifoMakespan << ", \"lpt_makespan_events\": "
           << sm.lptMakespan << ", \"fifo_over_lpt\": " << sm.ratio()
           << "}" << (i + 1 < models.size() ? ", " : "");
    }
    os << "},\n  \"fleet_makespan_model\": {";
    for (std::size_t i = 0; i < fleet_models.size(); ++i) {
        const auto &fm = fleet_models[i];
        os << "\"workers_" << fm.workers
           << "\": {\"static_makespan_events\": " << fm.staticMakespan
           << ", \"steal_makespan_events\": " << fm.stealMakespan
           << ", \"static_over_steal\": " << fm.ratio() << "}"
           << (i + 1 < fleet_models.size() ? ", " : "");
    }
    os << "},\n  \"headline_events_per_sec\": " << headline << "\n}\n";
    return os.str();
}

/**
 * Extract a numeric field from one of our own JSON files. Minimal by
 * design: the harness only ever reads files it wrote itself.
 */
bool
extractNumber(const std::string &json, const std::string &key,
              double &out)
{
    auto pos = json.find("\"" + key + "\":");
    if (pos == std::string::npos)
        return false;
    pos = json.find(':', pos);
    return std::sscanf(json.c_str() + pos + 1, "%lf", &out) == 1;
}

/** The "rate" recorded for scenario @p name in one of our files. */
bool
extractScenarioRate(const std::string &json, const std::string &name,
                    double &out)
{
    auto pos = json.find("\"name\": \"" + name + "\"");
    if (pos == std::string::npos)
        return false;
    pos = json.find("\"rate\":", pos);
    if (pos == std::string::npos)
        return false;
    pos = json.find(':', pos);
    return std::sscanf(json.c_str() + pos + 1, "%lf", &out) == 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string baseline_path;
    double max_regress = 0.30;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--max-regress" && i + 1 < argc) {
            char *end = nullptr;
            max_regress = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || max_regress <= 0.0 ||
                max_regress >= 1.0) {
                std::fprintf(stderr,
                             "--max-regress wants a fraction in (0, 1), "
                             "got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json FILE] [--baseline FILE] "
                         "[--max-regress R]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<BenchResult> results;
    results.push_back(benchEqScheduleService());
    results.push_back(benchEqRescheduleStorm());
    results.push_back(benchEqDepth());
    results.push_back(benchTagsLookupHit());
    results.push_back(benchTagsVictimSearch());
    results.push_back(benchTagsSoaScanSweep());
    results.push_back(benchBusyBitmapPopcount());
    results.push_back(benchEqDaryDepth());
    results.push_back(benchEndToEnd("FwPool", "CacheRW"));
    results.push_back(benchEndToEnd("FwAct", "CacheRW-PCby"));
    results.push_back(benchPolicyDecisionOverhead());
    results.push_back(benchSweepColdFifo());
    std::vector<RunMetrics> grid_results;
    results.push_back(benchSweepColdEngine(grid_results));
    results.push_back(benchSweepWarmReplay());

    // Data-plane scenarios: same 100k-row synthetic grid through
    // both serializations.
    {
        const SyntheticGrid grid100k = syntheticGrid();
        const std::string v4_path = "BENCH_cache_v4.tmp.bin";
        const std::string v3_path = "BENCH_cache_v3.tmp.csv";
        writeSyntheticCache(v4_path, grid100k, CacheFormat::v4);
        writeSyntheticCache(v3_path, grid100k, CacheFormat::csv);
        results.push_back(benchCacheV4Load(v4_path, grid100k));
        results.push_back(benchCacheV3Parse(v3_path, grid100k));
        results.push_back(benchWarmReplayV4(v4_path, grid100k));
        results.push_back(benchShardMerge100k(
            "BENCH_merge_v4.tmp.bin", grid100k, /*fragmented=*/false,
            "shard_merge_100k", 5));
        results.push_back(benchShardMerge100k(
            "BENCH_merge_frag.tmp.bin", grid100k, /*fragmented=*/true,
            "shard_merge_100k_fragmented", 1));
        std::remove(v4_path.c_str());
        std::remove(v3_path.c_str());
    }

    std::vector<ScheduleModel> models{
        modelSchedule(grid_results, 4), modelSchedule(grid_results, 8),
        modelSchedule(grid_results, 16), modelSchedule(grid_results, 24)};

    std::vector<FleetMakespanModel> fleet_models{
        modelFleetMakespan(grid_results, 4),
        modelFleetMakespan(grid_results, 8),
        modelFleetMakespan(grid_results, 16),
        modelFleetMakespan(grid_results, 24)};

    // Gate the 8-worker straggler ratio as a scenario "rate": the
    // model is deterministic (sim_events in, event-units out), so
    // items = ratio x 1000 over one nominal second regresses only
    // when scheduling or simulation behavior actually changes.
    {
        BenchResult r;
        r.name = "fleet_steal_makespan";
        r.eventScenario = false;
        r.items = static_cast<std::uint64_t>(
            std::llround(fleet_models[1].ratio() * 1000.0));
        r.seconds = 1.0;
        results.push_back(r);
    }

    const double headline = geomeanRate(results, true);

    for (const auto &r : results) {
        std::printf("%-32s %12.0f /s  (%llu items, %.3fs)\n",
                    r.name.c_str(), r.rate(),
                    static_cast<unsigned long long>(r.items), r.seconds);
        for (const auto &[cat, count] : r.byCategory) {
            if (count > 0)
                std::printf("    %-28s %12llu events\n", cat.c_str(),
                            static_cast<unsigned long long>(count));
        }
    }
    for (const auto &sm : models) {
        std::printf("%-32s fifo %.0f -> lpt %.0f event-units "
                    "(%.2fx shorter tail at %u workers)\n",
                    "sweep_schedule_model", sm.fifoMakespan,
                    sm.lptMakespan, sm.ratio(), sm.workers);
    }
    for (const auto &fm : fleet_models) {
        std::printf("%-32s static %.0f -> steal %.0f event-units "
                    "(%.2fx faster with a 3x straggler at %u "
                    "workers)\n",
                    "fleet_makespan_model", fm.staticMakespan,
                    fm.stealMakespan, fm.ratio(), fm.workers);
    }
    std::printf("%-32s %12.0f events/s (geomean of event scenarios)\n",
                "headline", headline);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 2;
        }
        out << toJson(results, headline, models, fleet_models);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        double base_headline = 0.0;
        if (!extractNumber(buf.str(), "headline_events_per_sec",
                           base_headline) ||
            base_headline <= 0) {
            std::fprintf(stderr, "baseline %s has no headline\n",
                         baseline_path.c_str());
            return 2;
        }
        double ratio = headline / base_headline;
        std::printf("baseline headline %.0f events/s -> ratio %.2f\n",
                    base_headline, ratio);
        if (ratio < 1.0 - max_regress) {
            std::fprintf(stderr,
                         "FAIL: headline events/sec regressed %.0f%% "
                         "(limit %.0f%%)\n",
                         (1.0 - ratio) * 100.0, max_regress * 100.0);
            return 1;
        }

        // Non-headline scenarios (sweep throughput in runs/sec,
        // policy verdicts in decisions/sec, tag-scan and heap-drain
        // ops/sec) gate individually against the baseline when it
        // records them.
        for (const auto &r : results) {
            if (r.name.rfind("sweep_", 0) != 0 &&
                r.name.rfind("fleet_", 0) != 0 &&
                r.name.rfind("tags_", 0) != 0 &&
                r.name.rfind("cache_", 0) != 0 &&
                r.name.rfind("warm_", 0) != 0 &&
                r.name.rfind("shard_", 0) != 0 &&
                r.name != "busy_bitmap_popcount" &&
                r.name != "eq_dary_depth" &&
                r.name != "policy_decision_overhead")
                continue;
            double base_rate = 0.0;
            if (!extractScenarioRate(buf.str(), r.name, base_rate) ||
                base_rate <= 0) {
                continue; // baseline predates the scenario
            }
            double sratio = r.rate() / base_rate;
            std::printf("baseline %s %.0f /s -> ratio %.2f\n",
                        r.name.c_str(), base_rate, sratio);
            if (sratio < 1.0 - max_regress) {
                std::fprintf(stderr,
                             "FAIL: %s regressed %.0f%% (limit %.0f%%)\n",
                             r.name.c_str(), (1.0 - sratio) * 100.0,
                             max_regress * 100.0);
                return 1;
            }
        }
    }
    return 0;
}
