/**
 * @file
 * The grid workloads: grid_cold (the 102-point paper grid through one
 * SweepEngine) and grid_fleet (the 54-point dynamic-policy grid
 * through a 2-worker TCP fleet with shard push and merge).
 *
 * A run repeats whole cold passes until --seconds is used up (at least
 * one pass) and reports medians over passes. Correctness checks run
 * after the timed passes. A traced run adds one instrumented pass that
 * drives System/runWorkloadOn directly, point by point, to attribute
 * time and work to the simulator layers; it also checks every point
 * against the timed pass bit for bit.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/experiments.hh"
#include "core/fleet.hh"
#include "core/runner.hh"
#include "core/shard.hh"
#include "core/sweep_engine.hh"
#include "core/system.hh"
#include "harness.hh"
#include "policy/cache_policy.hh"
#include "sim/event_queue.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using migc::RunMetrics;
using migc::RunRequest;
using migc::SimConfig;

constexpr unsigned kFleetWorkers = 2;
constexpr unsigned kFleetJobsPerWorker = 2;

/** Grid points re-simulated serially (runNamedWorkload) per run. */
constexpr std::size_t kSerialChecks = 3;

/** Set-up repetitions per run (each too short to time once). */
constexpr int kSetupReps = 25;

SimConfig
gridConfig(std::uint64_t seed)
{
    SimConfig cfg = SimConfig::defaultConfig();
    cfg.seed = seed;
    return cfg;
}

std::vector<RunRequest>
paperGrid(const SimConfig &cfg)
{
    std::vector<RunRequest> out;
    for (const std::string &w : migc::workloadOrder()) {
        for (const std::string &p :
             migc::ExperimentSweep::allPolicyNames())
            out.push_back(RunRequest{cfg, w, p});
    }
    return out;
}

std::vector<RunRequest>
dynamicGrid(const SimConfig &cfg)
{
    std::vector<RunRequest> out;
    for (const std::string &w : migc::extendedWorkloadOrder()) {
        for (const migc::CachePolicy &p :
             migc::CachePolicy::dynamicPolicies())
            out.push_back(RunRequest{cfg, w, p.name});
    }
    return out;
}

double
simCycles(const std::vector<RunMetrics> &rows, const SimConfig &cfg)
{
    double ticks = 0.0;
    for (const RunMetrics &m : rows)
        ticks += static_cast<double>(m.execTicks);
    return ticks / static_cast<double>(cfg.gpu.clockPeriod);
}

/** Run passes until @p seconds are used (at least one). */
template <typename Pass>
void
repeatPasses(double seconds, Pass pass)
{
    const double t0 = nowUs();
    double last = 0.0;
    do {
        const double s = nowUs();
        pass();
        last = nowUs() - s;
    } while (nowUs() - t0 + last <= seconds * 1e6);
}

void
removeCacheFamily(const std::string &path, unsigned shards)
{
    ::unlink(path.c_str());
    for (unsigned i = 0; i < shards; ++i)
        ::unlink(migc::shardCachePath(path, i).c_str());
}

/**
 * The instrumented pass of a traced run: the grid once more on
 * @p jobs threads, each point built and run through the public
 * System/runner API with spans around every call, each compared bit
 * for bit with @p expect (the timed pass's row for the same index).
 * Fills the simulator-side per-layer metrics.
 */
void
layerPass(const std::vector<RunRequest> &requests,
          const std::vector<RunMetrics> &expect, unsigned jobs,
          double makespan_us, Tracer &tracer, Result &res)
{
    struct PointStats
    {
        double runUs = 0.0;
        double kernelUs = 0.0;
        double buildUs = -1.0;
        double resetUs = -1.0;
        std::uint64_t events[migc::numEventCategories] = {};
        std::uint64_t eventsTotal = 0;
        RunMetrics m;
    };
    std::vector<PointStats> stats(requests.size());

    // Longest first by the timed pass's event counts, like the engine.
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return expect[a].simEvents > expect[b].simEvents;
                     });

    SpanScope pass(tracer, "sweep.layer_pass");
    const std::int64_t pass_span = currentSpan();
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        ParentScope adopt(pass_span);
        std::unique_ptr<migc::System> sys;
        std::string structure;
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= order.size())
                return;
            const std::size_t i = order[k];
            const RunRequest &req = requests[i];
            PointStats &ps = stats[i];
            SpanScope point(tracer, "sweep.point", i);
            const migc::CachePolicy policy =
                migc::CachePolicy::fromName(req.policy);
            const std::uint64_t seed =
                migc::runSeedFor(req.cfg, req.workload, req.policy);
            double t = nowUs();
            if (sys != nullptr && structure == req.cfg.structureKey()) {
                SpanScope s(tracer, "system.reset", i);
                sys->reset(policy, seed);
                ps.resetUs = nowUs() - t;
            } else {
                SpanScope s(tracer, "system.build", i);
                SimConfig cfg = req.cfg;
                cfg.seed = seed;
                sys = std::make_unique<migc::System>(cfg, policy);
                structure = req.cfg.structureKey();
                ps.buildUs = nowUs() - t;
            }
            std::unique_ptr<migc::Workload> wl;
            t = nowUs();
            {
                SpanScope s(tracer, "workloads.kernel_build", i);
                wl = migc::makeWorkload(req.workload);
                (void)wl->kernels(req.cfg.workloadScale);
            }
            ps.kernelUs = nowUs() - t;
            t = nowUs();
            {
                SpanScope s(tracer, "run.workload", i);
                ps.m = migc::runWorkloadOn(*sys, *wl);
            }
            ps.runUs = nowUs() - t;
            const migc::EventQueue &eq = sys->eventQueue();
            for (std::size_t c = 0; c < migc::numEventCategories; ++c)
                ps.events[c] = eq.numProcessed(
                    static_cast<migc::EventCategory>(c));
            ps.eventsTotal = eq.numProcessed();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < jobs; ++j)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    double run_us = 0.0, kernel_us = 0.0, events = 0.0;
    std::uint64_t by_cat[migc::numEventCategories] = {};
    std::vector<double> walls_ms, builds_ms, resets_us;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0, stall = 0, wb = 0;
    double dram = 0, row_hits = 0, alloc = 0, pred = 0, rinse = 0;
    double mem_req = 0, vops = 0;
    std::vector<RunMetrics> rows;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const PointStats &ps = stats[i];
        if (!sameMetrics(ps.m, expect[i])) {
            res.fail("traced pass: " + requests[i].workload + "/" +
                     requests[i].policy +
                     " differs from the timed pass");
        }
        run_us += ps.runUs;
        kernel_us += ps.kernelUs;
        events += static_cast<double>(ps.eventsTotal);
        for (std::size_t c = 0; c < migc::numEventCategories; ++c)
            by_cat[c] += ps.events[c];
        walls_ms.push_back(ps.runUs / 1000.0);
        if (ps.buildUs >= 0)
            builds_ms.push_back(ps.buildUs / 1000.0);
        if (ps.resetUs >= 0)
            resets_us.push_back(ps.resetUs);
        const RunMetrics &m = ps.m;
        l1h += m.l1Hits;
        l1m += m.l1Misses;
        l2h += m.l2Hits;
        l2m += m.l2Misses;
        stall += m.cacheStallCycles;
        wb += m.l2Writebacks;
        dram += m.dramAccesses;
        row_hits += m.dramRowHitRate * m.dramAccesses;
        alloc += m.allocBypassed;
        pred += m.predictorBypasses;
        rinse += m.rinseWritebacks;
        mem_req += m.gpuMemRequests;
        vops += m.vops;
        rows.push_back(m);
    }
    auto cat = [&](migc::EventCategory c) {
        return static_cast<double>(by_cat[static_cast<std::size_t>(c)]);
    };
    res.layer("sim.events", "count", events);
    res.layer("sim.events.gpu", "count", cat(migc::EventCategory::gpu));
    res.layer("sim.events.mem", "count", cat(migc::EventCategory::mem));
    res.layer("sim.events.cache", "count",
              cat(migc::EventCategory::cache));
    res.layer("sim.events.dram", "count", cat(migc::EventCategory::dram));
    res.layer("sim.ns_per_event", "ns",
              events > 0 ? run_us * 1000.0 / events : 0.0);
    res.layer("gpu.sim_cycles", "count",
              simCycles(rows, requests.front().cfg));
    res.layer("gpu.mem_requests", "count", mem_req);
    res.layer("gpu.vops", "count", vops);
    res.layer("workloads.kernel_build_ms", "ms", kernel_us / 1000.0);
    res.layer("cache.l1_hit_ratio", "ratio",
              l1h + l1m > 0 ? l1h / (l1h + l1m) : 0.0);
    res.layer("cache.l2_hit_ratio", "ratio",
              l2h + l2m > 0 ? l2h / (l2h + l2m) : 0.0);
    res.layer("cache.stall_cycles", "count", stall);
    res.layer("cache.l2_writebacks", "count", wb);
    res.layer("dram.accesses", "count", dram);
    res.layer("dram.row_hit_rate", "ratio",
              dram > 0 ? row_hits / dram : 0.0);
    res.layer("policy.alloc_bypassed", "count", alloc);
    res.layer("policy.predictor_bypasses", "count", pred);
    res.layer("policy.rinse_writebacks", "count", rinse);
    res.layer("system.build_ms", "ms", median(builds_ms));
    res.layer("system.reset_us", "us", median(resets_us));
    res.layer("run.wall_ms_p50", "ms", median(walls_ms));
    res.layer("run.wall_ms_max", "ms",
              walls_ms.empty()
                  ? 0.0
                  : *std::max_element(walls_ms.begin(), walls_ms.end()));
    res.layer("sweep.busy_frac", "ratio",
              makespan_us > 0 ? run_us / (jobs * makespan_us) : 0.0);
}

/** Timing samples shared by both grid workloads. */
struct GridTimes
{
    std::vector<double> setupS;
    std::vector<double> passS;
    std::vector<double> runsPerS;
    std::vector<double> cyclesPerS;
};

void
reportGrid(const GridTimes &t, double peak_rss_mb, Result &res)
{
    const Tail pass_tail = tailPercentile(t.passS);
    res.line("setup_s", "s", median(t.setupS), t.setupS.size());
    res.line("runs_per_s", "runs/s", median(t.runsPerS), t.runsPerS.size(),
             "median over cold passes");
    res.line("sim_cycles_per_s", "cycles/s", median(t.cyclesPerS),
             t.cyclesPerS.size());
    res.line("pass_s", "s", median(t.passS), t.passS.size(),
             pass_tail.label + " " + std::to_string(pass_tail.value));
    res.line("peak_rss_mb", "MB", peak_rss_mb, 1);

    res.endToEnd["setup_s"] = {median(t.setupS), "s"};
    res.endToEnd["work_per_s"] = {median(t.runsPerS), "1/s"};
    res.endToEnd["latency_p50_ms"] = {median(t.passS) * 1000.0, "ms"};
    res.endToEnd["latency_tail_ms"] = {pass_tail.value * 1000.0, "ms"};
    res.endToEnd["peak_rss_mb"] = {peak_rss_mb, "MB"};
}

} // namespace

Result
runGridCold(const RunArgs &args, Tracer &tracer)
{
    Result res;
    const SimConfig cfg = gridConfig(args.seed);
    const std::vector<RunRequest> requests = paperGrid(cfg);
    const unsigned jobs = std::min(4u, std::max(1u, args.cpus));

    GridTimes t;
    std::vector<std::vector<RunMetrics>> passes;
    std::string first_cache;
    double first_makespan_us = 0.0;
    double checkpoint_ms = 0.0;
    std::uint64_t sims = 0, hits = 0;
    unsigned pass_no = 0;

    // Set-up alone (grid, engine, cache open), repeated: it is too
    // short to time once.
    for (int rep = 0; rep < 50; ++rep) {
        const std::string path = "setup_" + std::to_string(rep) + ".v4";
        const double s = nowUs();
        {
            const std::vector<RunRequest> grid =
                paperGrid(gridConfig(args.seed));
            migc::SweepEngine engine(path);
            (void)engine.cacheFileFormat();
            t.setupS.push_back((nowUs() - s) / 1e6);
        }
        ::unlink(path.c_str());
    }

    repeatPasses(args.seconds, [&] {
        const std::string path =
            "grid_cold_" + std::to_string(pass_no++) + ".v4";
        SpanScope pass(tracer, "bench.grid_pass", pass_no);
        migc::SweepEngine engine(path);
        {
            SpanScope s(tracer, "runcache.open");
            (void)engine.cacheFileFormat();
        }
        const double t1 = nowUs();
        std::vector<RunMetrics> rows;
        {
            SpanScope s(tracer, "sweep.run");
            rows = engine.run(requests, jobs);
        }
        const double t2 = nowUs();
        {
            SpanScope s(tracer, "runcache.flush");
            engine.flush();
        }
        const double t3 = nowUs();
        const double wall_s = (t3 - t1) / 1e6;
        t.passS.push_back(wall_s);
        t.runsPerS.push_back(static_cast<double>(requests.size()) / wall_s);
        t.cyclesPerS.push_back(simCycles(rows, cfg) / wall_s);
        if (passes.empty()) {
            first_cache = path;
            first_makespan_us = t2 - t1;
            checkpoint_ms = (t3 - t2) / 1000.0;
            sims = engine.simulationsPerformed();
            hits = engine.cacheHits();
        } else {
            ::unlink(path.c_str());
        }
        passes.push_back(std::move(rows));
    });
    const double peak_rss = selfPeakRssMb();

    // ---- checks (untimed) ----
    const std::vector<RunMetrics> &ref = passes.front();
    for (const std::vector<RunMetrics> &rows : passes) {
        res.attempted += requests.size();
        if (rows.size() != requests.size()) {
            res.fail("a pass returned " + std::to_string(rows.size()) +
                     " rows for " + std::to_string(requests.size()));
            continue;
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const RunMetrics &m = rows[i];
            if (m.placeholder || m.workload != requests[i].workload ||
                m.policy != requests[i].policy || m.execTicks == 0) {
                res.fail("placeholder or mislabeled row for " +
                         requests[i].workload + "/" + requests[i].policy);
            } else if (!sameMetrics(m, ref[i])) {
                res.fail("passes disagree on " + requests[i].workload +
                         "/" + requests[i].policy);
            }
        }
    }
    // The durable file holds exactly what the engine returned.
    double load_ms = 0.0;
    {
        const double s = nowUs();
        SpanScope span(tracer, "runcache.load");
        migc::RunCache disk(first_cache, 8, migc::CacheFormat::v4);
        load_ms = (nowUs() - s) / 1000.0;
        const std::string sig = cfg.signature();
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const RunMetrics *m =
                disk.find(sig, requests[i].workload, requests[i].policy);
            if (m == nullptr || !sameMetrics(*m, ref[i])) {
                res.fail("cache file lost or changed " +
                         requests[i].workload + "/" + requests[i].policy);
            }
        }
    }
    // A seed-chosen sample re-simulated serially from scratch.
    SplitMix rng{args.seed ^ 0x6772696463ULL};
    for (std::size_t k = 0; k < kSerialChecks; ++k) {
        const std::size_t i = rng.below(requests.size());
        SpanScope span(tracer, "run.serial_check", i);
        const RunMetrics m = migc::runNamedWorkload(
            requests[i].workload, cfg, requests[i].policy);
        if (!sameMetrics(m, ref[i])) {
            res.fail("serial re-run of " + requests[i].workload + "/" +
                     requests[i].policy + " is not bit-identical");
        }
    }

    reportGrid(t, peak_rss, res);

    if (tracer.on()) {
        layerPass(requests, ref, jobs, first_makespan_us, tracer, res);
        res.layer("sweep.simulations", "count", static_cast<double>(sims));
        res.layer("sweep.cache_hits", "count", static_cast<double>(hits));
        res.layer("runcache.checkpoint_ms", "ms", checkpoint_ms);
        res.layer("runcache.bytes", "bytes",
                  static_cast<double>(fileSize(first_cache)));
        res.layer("runcache.load_ms", "ms", load_ms);
    }
    ::unlink(first_cache.c_str());
    return res;
}

// ---------------------------------------------------------------------
// grid_fleet
// ---------------------------------------------------------------------

namespace
{

/**
 * Counts push uploads on a worker's coordinator connection: from the
 * `push` header write until the next reply line arrives.
 */
class PushMeter : public migc::Stream
{
  public:
    struct Totals
    {
        std::mutex mu;
        std::vector<double> pushMs;
        double bytes = 0.0;
    };

    PushMeter(std::unique_ptr<migc::Stream> inner,
              std::shared_ptr<Totals> totals)
        : inner_(std::move(inner)), totals_(std::move(totals))
    {
    }

    ssize_t
    read(void *buf, std::size_t n) override
    {
        const ssize_t got = inner_->read(buf, n);
        if (got > 0 && pushStart_ > 0.0 &&
            std::memchr(buf, '\n', static_cast<std::size_t>(got))) {
            std::lock_guard<std::mutex> lk(totals_->mu);
            totals_->pushMs.push_back((nowUs() - pushStart_) / 1000.0);
            pushStart_ = 0.0;
        }
        return got;
    }

    bool
    writeAll(const void *buf, std::size_t n) override
    {
        if (n > 5 && std::memcmp(buf, "push ", 5) == 0) {
            pushStart_ = nowUs();
        } else if (pushStart_ > 0.0) {
            std::lock_guard<std::mutex> lk(totals_->mu);
            totals_->bytes += static_cast<double>(n);
        }
        return inner_->writeAll(buf, n);
    }

    void shutdown() override { inner_->shutdown(); }

  private:
    std::unique_ptr<migc::Stream> inner_;
    std::shared_ptr<Totals> totals_;
    double pushStart_ = 0.0;
};

/** key=value lines a worker leaves for the coordinator. */
std::map<std::string, double>
readStats(const std::string &path)
{
    std::map<std::string, double> out;
    std::ifstream in(path);
    std::string key;
    double v;
    while (in >> key >> v)
        out[key] = v;
    return out;
}

} // namespace

int
fleetWorkerMain(const std::vector<std::string> &a)
{
    // --fleet-worker ENDPOINT INDEX SEED CACHE JOBS STATS TRACE
    if (a.size() != 8)
        return 2;
    const std::string endpoint = a[1];
    const unsigned index = static_cast<unsigned>(std::stoul(a[2]));
    const SimConfig cfg = gridConfig(std::stoull(a[3]));
    const std::string cache = a[4];
    const unsigned jobs = static_cast<unsigned>(std::stoul(a[5]));
    const std::string stats_path = a[6];
    Tracer tracer(a[7] == "1");

    const std::vector<RunRequest> requests = dynamicGrid(cfg);
    auto totals = std::make_shared<PushMeter::Totals>();
    migc::FleetClientOptions opts;
    opts.gridSize = requests.size();
    opts.push = true;
    opts.wrap = [totals](std::unique_ptr<migc::Stream> s) {
        return std::unique_ptr<migc::Stream>(
            new PushMeter(std::move(s), totals));
    };

    const double t0 = nowUs();
    double flush_ms = 0.0;
    migc::SweepEngine::FleetRunStats st;
    {
        SpanScope span(tracer, "fleet.worker", index);
        migc::FleetClient client(endpoint, index,
                                 migc::gridFingerprint(requests), opts);
        migc::SweepEngine engine(cache, migc::FleetWorkerSpec{index});
        {
            SpanScope s(tracer, "sweep.run_fleet", index);
            st = engine.runFleet(requests, client, jobs);
        }
        SpanScope s(tracer, "runcache.flush", index);
        const double f0 = nowUs();
        engine.flush();
        flush_ms = (nowUs() - f0) / 1000.0;
    }
    const double wall_ms = (nowUs() - t0) / 1000.0;

    std::ofstream out(stats_path);
    std::lock_guard<std::mutex> lk(totals->mu);
    double push_ms = 0.0;
    for (double ms : totals->pushMs)
        push_ms += ms;
    out << "runs " << st.runs << "\nhits " << st.hits << "\nstale "
        << st.stale << "\nleases " << st.leases << "\nwall_ms " << wall_ms
        << "\npushes " << totals->pushMs.size() << "\npush_ms " << push_ms
        << "\npush_bytes " << totals->bytes << "\nflush_ms " << flush_ms
        << "\n";
    out.close();
    if (tracer.on())
        tracer.writeLines(stats_path + ".spans");
    return out ? 0 : 1;
}

Result
runGridFleet(const RunArgs &args, Tracer &tracer)
{
    Result res;
    const SimConfig cfg = gridConfig(args.seed);
    const std::vector<RunRequest> requests = dynamicGrid(cfg);
    const std::uint64_t fingerprint = migc::gridFingerprint(requests);
    migc::FleetConfig fcfg;

    GridTimes t;
    std::vector<double> plan_ms, merge_ms, flush_ms;
    std::vector<std::string> merged;
    double worker_rss = 0.0;
    double leases = 0, steals = 0, expired = 0, stale = 0, dones = 0;
    double busy_ms = 0.0, capacity_ms = 0.0;
    double sims = 0, hits = 0, pushes = 0, push_ms = 0, push_bytes = 0;
    unsigned pass_no = 0;

    // The whole set-up, repeated: plan, coordinator bind, and the
    // spawn of two worker processes that exit at once (a pass's
    // workers would start working). Each spawn blocks until the exec
    // lands, so the CPUs are kept from halting as in the serve load.
    IdleSpinners spin(args.cpus);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::string path = "fleet_setup_" + std::to_string(rep) + ".v4";
        const double s = nowUs();
        migc::FleetPlan plan =
            migc::planFleetSweep(requests, path, kFleetWorkers, false);
        migc::FleetServer server("tcp:127.0.0.1:0",
                                 migc::FleetQueue(plan.costs, plan.pending,
                                                  fcfg),
                                 fingerprint);
        server.setShardStore(path);
        server.start();
        std::vector<pid_t> pids;
        for (unsigned i = 0; i < kFleetWorkers; ++i)
            pids.push_back(spawnProcess({args.selfExe, "--fleet-worker"}));
        t.setupS.push_back((nowUs() - s) / 1e6);
        for (pid_t pid : pids) {
            if (pid < 0 || WEXITSTATUS(waitChild(pid).status) != 2)
                res.fail("fleet set-up probe did not spawn");
        }
        server.stop();
    }
    spin.stop();

    repeatPasses(args.seconds, [&] {
        const std::string path =
            "grid_fleet_" + std::to_string(pass_no++) + ".v4";
        SpanScope pass(tracer, "bench.fleet_pass", pass_no);
        const double t0 = nowUs();
        migc::FleetPlan plan;
        {
            SpanScope s(tracer, "fleet.plan");
            plan = migc::planFleetSweep(requests, path, kFleetWorkers,
                                        false);
        }
        const double t_plan = nowUs();
        migc::FleetServer server(
            "tcp:127.0.0.1:0",
            migc::FleetQueue(plan.costs, plan.pending, fcfg), fingerprint);
        server.setShardStore(path);
        {
            SpanScope s(tracer, "transport.bind");
            server.start();
        }
        const std::string endpoint = server.boundEndpoint().spec();
        std::vector<pid_t> pids;
        std::vector<std::string> stats_files;
        {
            SpanScope s(tracer, "fleet.spawn");
            for (unsigned i = 0; i < kFleetWorkers; ++i) {
                stats_files.push_back(path + ".w" + std::to_string(i));
                pids.push_back(spawnProcess(
                    {args.selfExe, "--fleet-worker", endpoint,
                     std::to_string(i), std::to_string(args.seed), path,
                     std::to_string(kFleetJobsPerWorker),
                     stats_files.back(), tracer.on() ? "1" : "0"}));
            }
        }
        const double t1 = nowUs();
        double pass_rss = 0.0;
        bool workers_ok = true;
        {
            SpanScope s(tracer, "fleet.drain");
            for (pid_t pid : pids) {
                if (pid < 0) {
                    workers_ok = false;
                    continue;
                }
                const ChildExit ex = waitChild(pid);
                workers_ok = workers_ok && ex.exitedCleanly;
                pass_rss += ex.maxRssMb;
            }
        }
        if (!workers_ok)
            res.fail("a fleet worker failed to start or exit cleanly");
        if (!server.drained())
            res.fail("fleet queue not drained after the workers exited");
        server.stop();
        const double t_merge = nowUs();
        {
            SpanScope s(tracer, "fleet.merge");
            migc::mergeShardCaches(path, kFleetWorkers);
        }
        const double t2 = nowUs();

        const double wall_s = (t2 - t1) / 1e6;
        plan_ms.push_back((t_plan - t0) / 1000.0);
        merge_ms.push_back((t2 - t_merge) / 1000.0);
        t.passS.push_back(wall_s);
        t.runsPerS.push_back(static_cast<double>(requests.size()) / wall_s);
        worker_rss = std::max(worker_rss, pass_rss);
        merged.push_back(path);

        for (const auto &[w, ws] : server.workerStats()) {
            (void)w;
            leases += static_cast<double>(ws.leases);
            steals += static_cast<double>(ws.steals);
            expired += static_cast<double>(ws.expired);
            stale += static_cast<double>(ws.staleDones);
            dones += static_cast<double>(ws.runs + ws.staleDones);
        }
        capacity_ms += kFleetWorkers * (t2 - t1) / 1000.0;
        for (const std::string &f : stats_files) {
            std::map<std::string, double> ws = readStats(f);
            busy_ms += ws["wall_ms"];
            sims += ws["runs"];
            hits += ws["hits"];
            pushes += ws["pushes"];
            push_ms += ws["push_ms"];
            push_bytes += ws["push_bytes"];
            flush_ms.push_back(ws["flush_ms"]);
            if (tracer.on())
                tracer.add(Tracer::readLines(f + ".spans"));
            ::unlink(f.c_str());
            ::unlink((f + ".spans").c_str());
        }
    });
    const double peak_rss = selfPeakRssMb() + worker_rss;

    // ---- checks (untimed): every merged file equals an in-process
    // SweepEngine sweep of the same grid ----
    std::vector<RunMetrics> ref;
    {
        SpanScope s(tracer, "sweep.reference");
        migc::SweepEngine engine{std::string()};
        ref = engine.run(requests, std::min(4u, std::max(1u, args.cpus)));
    }
    const std::string sig = cfg.signature();
    double load_ms = 0.0;
    for (const std::string &path : merged) {
        res.attempted += requests.size();
        const double s = nowUs();
        migc::RunCache disk(path, 8, migc::CacheFormat::v4);
        load_ms = (nowUs() - s) / 1000.0;
        if (disk.size() != requests.size()) {
            res.fail("merged cache holds " + std::to_string(disk.size()) +
                     " rows for " + std::to_string(requests.size()));
        }
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const RunMetrics *m =
                disk.find(sig, requests[i].workload, requests[i].policy);
            if (m == nullptr || !sameMetrics(*m, ref[i])) {
                res.fail("merged row " + requests[i].workload + "/" +
                         requests[i].policy +
                         " differs from the in-process sweep");
            }
        }
    }
    for (double wall : t.passS)
        t.cyclesPerS.push_back(simCycles(ref, cfg) / wall);

    reportGrid(t, peak_rss, res);

    if (tracer.on()) {
        layerPass(requests, ref, kFleetWorkers * kFleetJobsPerWorker,
                  median(t.passS) * 1e6, tracer, res);
        // Fleet-side busy time replaces the in-process pool's.
        res.layer("sweep.busy_frac", "ratio",
                  capacity_ms > 0 ? busy_ms / capacity_ms : 0.0);
        res.layer("sweep.simulations", "count", sims);
        res.layer("sweep.cache_hits", "count", hits);
        res.layer("runcache.checkpoint_ms", "ms", median(flush_ms));
        res.layer("runcache.bytes", "bytes",
                  static_cast<double>(fileSize(merged.front())));
        res.layer("runcache.load_ms", "ms", load_ms);
        res.layer("transport.push_ms", "ms",
                  pushes > 0 ? push_ms / pushes : 0.0);
        res.layer("transport.push_bytes", "bytes", push_bytes);
        res.layer("fleet.plan_ms", "ms", median(plan_ms));
        res.layer("fleet.leases", "count", leases);
        res.layer("fleet.steals", "count", steals);
        res.layer("fleet.expired", "count", expired);
        res.layer("fleet.stale_frac", "ratio",
                  dones > 0 ? stale / dones : 0.0);
        res.layer("fleet.idle_frac", "ratio",
                  capacity_ms > 0 ? 1.0 - busy_ms / capacity_ms : 0.0);
        res.layer("fleet.merge_ms", "ms", median(merge_ms));
    }
    for (const std::string &path : merged)
        removeCacheFamily(path, kFleetWorkers);
    return res;
}

} // namespace perfbench
