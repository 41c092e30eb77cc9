/**
 * @file
 * The serve workloads: the real migc_serve on a unix socket over a
 * generated 100k-row v4 cache (10 sections x 100 workloads x 100
 * policies, larger than a typical LLC).
 *
 *  - serve_read: --no-simulate, two closed-loop reader connections,
 *    nine exact `get`s per glob `match <sig> <workload> *`.
 *  - serve_mixed: simulation on; the same readers plus one writer that
 *    sends a cold `get test <workload> <policy>` for a distinct,
 *    seed-chosen point, then `wait`s and re-gets it (a fill).
 *
 * Each reply is hashed as it arrives; the comparison against the
 * generated rows (and, for fills, against runNamedWorkload) runs after
 * the timed region.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/runner.hh"
#include "core/sweep_engine.hh"
#include "harness.hh"
#include "serve/serve_service.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using migc::RunMetrics;

constexpr unsigned kSections = 10;
constexpr unsigned kWorkloads = 100;
constexpr unsigned kPolicies = 100;
constexpr unsigned kReaders = 2;
constexpr unsigned kGetsPerMatch = 9;
constexpr int kSetupReps = 10;
constexpr double kWindowS = 0.5;
constexpr const char *kCachePath = "serve_cache.v4";
constexpr const char *kSocket = "unix:serve.sock";

std::string
wlName(unsigned w)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "wl%03u", w);
    return buf;
}

std::string
polName(unsigned p)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "pol%03u", p);
    return buf;
}

/** The generated cache and what every query must return. */
struct ServeData
{
    std::vector<std::string> sigs;
    std::vector<std::uint64_t> rowHash;   ///< per row: hash of CSV line
    std::vector<std::uint64_t> matchHash; ///< per (sig, wl): xor of rows
    double writeMs = 0.0; ///< the generator's compacting flush

    std::size_t
    rowIndex(unsigned s, unsigned w, unsigned p) const
    {
        return (static_cast<std::size_t>(s) * kWorkloads + w) * kPolicies +
               p;
    }
};

ServeData
generateCache(std::uint64_t seed)
{
    ServeData d;
    SplitMix rng{seed ^ 0x7365727665ULL};
    d.rowHash.resize(static_cast<std::size_t>(kSections) * kWorkloads *
                     kPolicies);
    d.matchHash.assign(static_cast<std::size_t>(kSections) * kWorkloads, 0);
    migc::RunCache cache(kCachePath, d.rowHash.size() + 1,
                         migc::CacheFormat::v4);
    for (unsigned s = 0; s < kSections; ++s) {
        char sig[64];
        std::snprintf(sig, sizeof(sig), "bench%u:h%016llx:seed%llu", s,
                      static_cast<unsigned long long>(rng.next()),
                      static_cast<unsigned long long>(seed));
        d.sigs.push_back(sig);
        for (unsigned w = 0; w < kWorkloads; ++w) {
            for (unsigned p = 0; p < kPolicies; ++p) {
                RunMetrics m;
                m.workload = wlName(w);
                m.policy = polName(p);
                m.execTicks = 1000000 + rng.below(1000000000);
                m.execSeconds = static_cast<double>(m.execTicks) * 1e-12;
                auto count = [&rng] {
                    return static_cast<double>(rng.below(100000000));
                };
                m.gpuMemRequests = count();
                m.dramReads = count();
                m.dramWrites = count();
                m.dramAccesses = m.dramReads + m.dramWrites;
                m.dramRowHitRate =
                    static_cast<double>(rng.below(1000000)) / 1e6;
                m.cacheStallCycles = count();
                m.stallsPerRequest =
                    m.gpuMemRequests > 0
                        ? m.cacheStallCycles / m.gpuMemRequests
                        : 0.0;
                m.vops = count();
                m.gvops = m.vops * 64.0 / m.execSeconds / 1e9;
                m.gmrps = m.gpuMemRequests / m.execSeconds / 1e9;
                m.l1Hits = count();
                m.l1Misses = count();
                m.l2Hits = count();
                m.l2Misses = count();
                m.l2Writebacks = count();
                m.rinseWritebacks = count();
                m.allocBypassed = count();
                m.predictorBypasses = count();
                m.kernels = static_cast<double>(1 + rng.below(16));
                m.simEvents = count();
                const std::uint64_t h = hashBytes(m.toCsv() + "\n");
                d.rowHash[d.rowIndex(s, w, p)] = h;
                d.matchHash[s * kWorkloads + w] ^= h;
                cache.insert(sig, std::move(m));
            }
        }
    }
    const double t = nowUs();
    cache.flush();
    d.writeMs = (nowUs() - t) / 1000.0;
    return d;
}

/** A running migc_serve. */
struct Server
{
    pid_t pid = -1;
    double setupS = 0.0;
};

Server
startServer(const RunArgs &args, bool simulate)
{
    std::vector<std::string> argv{args.serveBin, "--cache", kCachePath,
                                  "--socket", kSocket};
    if (!simulate)
        argv.push_back("--no-simulate");
    Server s;
    const double t0 = nowUs();
    s.pid = spawnProcess(argv, "serve.log");
    if (s.pid < 0)
        return s;
    // Ready = the socket accepts a connection.
    for (int i = 0; i < 200000; ++i) {
        LineClient probe(kSocket);
        if (probe.connected()) {
            s.setupS = (nowUs() - t0) / 1e6;
            return s;
        }
        ::usleep(100);
    }
    ::kill(s.pid, SIGKILL);
    waitChild(s.pid);
    s.pid = -1;
    return s;
}

ChildExit
stopServer(Server &s)
{
    ::kill(s.pid, SIGTERM);
    ChildExit ex = waitChild(s.pid);
    s.pid = -1;
    return ex;
}

/** One reader query: what was asked and the reply's fingerprint. */
struct Query
{
    std::uint32_t row;  ///< get: row index; match: section*100+workload
    bool match = false;
    long matched = 0;
    std::uint64_t hash = 0;
    double endUs = 0.0; ///< reply complete
    double us = 0.0;    ///< round trip
};

using ReaderLog = std::vector<Query>;

/** Serve timings of one window of the load. */
struct Window
{
    double qps = 0.0;
    double getP50Us = 0.0;
    double getP99Us = 0.0;
};

/**
 * Splits the load into windows of @p window_us and summarizes each;
 * the run reports the median window, so a burst of host noise (a
 * neighbour's job, a descheduled vCPU) moves one window, not the
 * whole run's figure.
 */
std::vector<Window>
windows(const std::vector<ReaderLog> &logs, double t0_us, double wall_us,
        double window_us)
{
    const std::size_t n = static_cast<std::size_t>(wall_us / window_us);
    std::vector<std::vector<double>> gets(n);
    std::vector<std::size_t> counts(n, 0);
    for (const ReaderLog &log : logs) {
        for (const Query &q : log) {
            const std::size_t w =
                static_cast<std::size_t>((q.endUs - t0_us) / window_us);
            if (w >= n)
                continue;
            ++counts[w];
            if (!q.match)
                gets[w].push_back(q.us);
        }
    }
    std::vector<Window> out;
    for (std::size_t w = 0; w < n; ++w) {
        out.push_back(Window{static_cast<double>(counts[w]) * 1e6 / window_us,
                             quantile(gets[w], 0.5),
                             quantile(gets[w], 0.99)});
    }
    return out;
}

/** Hash of every data line of a match reply, xor-combined. */
std::uint64_t
matchLinesHash(const std::string &reply)
{
    std::uint64_t h = 0;
    std::size_t pos = 0;
    while (pos < reply.size() && reply[pos] != '#') {
        const std::size_t nl = reply.find('\n', pos);
        if (nl == std::string::npos)
            break;
        h ^= hashBytes(reply.substr(pos, nl + 1 - pos));
        pos = nl + 1;
    }
    return h;
}

void
readerLoop(const ServeData &d, std::uint64_t seed, unsigned id,
           double deadline_us, Tracer &tracer, std::int64_t parent,
           ReaderLog &log)
{
    ParentScope adopt(parent);
    LineClient client(kSocket);
    SplitMix rng{seed * 0x100000001b3ULL + id};
    for (std::uint64_t q = 0; nowUs() < deadline_us; ++q) {
        Query qr;
        const unsigned s = static_cast<unsigned>(rng.below(kSections));
        const unsigned w = static_cast<unsigned>(rng.below(kWorkloads));
        qr.match = q % (kGetsPerMatch + 1) == kGetsPerMatch;
        std::string line;
        if (qr.match) {
            qr.row = s * kWorkloads + w;
            line = "match " + d.sigs[s] + " " + wlName(w) + " *";
        } else {
            const unsigned p = static_cast<unsigned>(rng.below(kPolicies));
            qr.row = static_cast<std::uint32_t>(d.rowIndex(s, w, p));
            line = "get " + d.sigs[s] + " " + wlName(w) + " " + polName(p);
        }
        // Spans on one query in 16 keep the traced run's cost small.
        const bool traced = (q & 15) == 0;
        const std::int64_t span =
            traced ? tracer.begin(qr.match ? "transport.match"
                                           : "transport.get",
                                  (static_cast<std::uint64_t>(id) << 40) | q)
                   : -1;
        const double t0 = nowUs();
        const std::string reply = client.request(line, qr.match);
        const double us = nowUs() - t0;
        tracer.end(span);
        qr.endUs = t0 + us;
        qr.us = us;
        if (qr.match) {
            qr.matched = matchedCount(reply);
            qr.hash = matchLinesHash(reply);
        } else {
            qr.hash = hashBytes(reply);
        }
        log.push_back(qr);
        if (reply.empty())
            break; // connection lost; counted as a failure below
    }
}

/** One writer fill: the point and the row it finally got. */
struct Fill
{
    std::string workload;
    std::string policy;
    std::string row;
    double ms = 0.0;
};

std::vector<std::pair<std::string, std::string>>
fillPoints(std::uint64_t seed)
{
    std::vector<std::string> policies = {"Uncached",   "CacheR",
                                         "CacheRW",    "CacheRW-AB",
                                         "CacheRW-CR", "CacheRW-PCby"};
    for (int i = 1; i <= 8; ++i) {
        policies.push_back("CacheRW-DynAB@" + std::to_string(i * 0.125)
                                                  .substr(0, 5));
        policies.push_back("CacheRW-Duel@" + std::to_string(2 << (i - 1)));
        policies.push_back("CacheRW-DynCR@" + std::to_string(i));
    }
    std::vector<std::pair<std::string, std::string>> points;
    for (const std::string &w : migc::extendedWorkloadOrder()) {
        for (const std::string &p : policies)
            points.emplace_back(w, p);
    }
    SplitMix rng{seed ^ 0x66696c6cULL};
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng.below(i)]);
    return points;
}

void
writerLoop(std::uint64_t seed, double deadline_us, Tracer &tracer,
           std::int64_t parent, std::vector<Fill> &fills)
{
    ParentScope adopt(parent);
    LineClient client(kSocket);
    const auto points = fillPoints(seed);
    for (std::size_t i = 0; i < points.size() && nowUs() < deadline_us;
         ++i) {
        Fill f;
        f.workload = points[i].first;
        f.policy = points[i].second;
        const std::string get = "get test " + f.workload + " " + f.policy;
        SpanScope span(tracer, "transport.fill", i);
        const double t0 = nowUs();
        std::string reply = client.request(get, false);
        if (reply.rfind("# miss", 0) == 0) {
            client.request("wait", false);
            reply = client.request(get, false);
        }
        f.ms = (nowUs() - t0) / 1000.0;
        f.row = reply;
        fills.push_back(std::move(f));
        if (reply.empty())
            break;
    }
}

/** `# stats k=v ...` -> numeric fields. */
std::map<std::string, double>
parseStats(const std::string &reply)
{
    std::map<std::string, double> out;
    std::size_t pos = 0;
    while ((pos = reply.find('=', pos)) != std::string::npos) {
        const std::size_t k = reply.rfind(' ', pos);
        const std::string key = reply.substr(k + 1, pos - k - 1);
        out[key] = std::atof(reply.c_str() + pos + 1);
        ++pos;
    }
    return out;
}

/** In-process timings of the layers under the server (traced run). */
void
inProcessLayers(const ServeData &d, std::uint64_t seed, Tracer &tracer,
                Result &res)
{
    SplitMix rng{seed ^ 0x6c61796572ULL};
    std::vector<double> map_ms;
    std::shared_ptr<const migc::CacheSnapshot> snap;
    for (int i = 0; i < 3; ++i) {
        SpanScope span(tracer, "snapshot.map");
        const double t = nowUs();
        std::string why;
        auto file = migc::MappedCacheV4::map(kCachePath, &why);
        if (file == nullptr) {
            res.fail("cannot map the generated cache: " + why);
            return;
        }
        snap = migc::CacheSnapshot::fromMappedFile(std::move(file));
        map_ms.push_back((nowUs() - t) / 1000.0);
    }
    std::vector<double> find_us, match_us;
    for (int i = 0; i < 2000; ++i) {
        const unsigned s = static_cast<unsigned>(rng.below(kSections));
        const unsigned w = static_cast<unsigned>(rng.below(kWorkloads));
        const unsigned p = static_cast<unsigned>(rng.below(kPolicies));
        std::string out;
        SpanScope span(tracer, "snapshot.find", i);
        const double t = nowUs();
        snap->findCsv(d.sigs[s], wlName(w), polName(p), out);
        find_us.push_back(nowUs() - t);
    }
    for (int i = 0; i < 50; ++i) {
        const unsigned s = static_cast<unsigned>(rng.below(kSections));
        const unsigned w = static_cast<unsigned>(rng.below(kWorkloads));
        std::string out;
        SpanScope span(tracer, "snapshot.match", i);
        const double t = nowUs();
        snap->matchCsv(d.sigs[s], wlName(w), "*", out);
        match_us.push_back(nowUs() - t);
    }
    res.layer("snapshot.map_ms", "ms", median(map_ms));
    res.layer("snapshot.find_us", "us", median(find_us));
    res.layer("snapshot.match_us", "us", median(match_us));

    // The service's own request handling, without a socket.
    std::vector<double> handle_us;
    {
        migc::SweepEngine engine(kCachePath);
        migc::ServeService::Options opts;
        opts.simulate = false;
        opts.cachePath = kCachePath;
        migc::ServeService service(engine, opts);
        for (int i = 0; i < 2000; ++i) {
            const unsigned s = static_cast<unsigned>(rng.below(kSections));
            const unsigned w = static_cast<unsigned>(rng.below(kWorkloads));
            const unsigned p = static_cast<unsigned>(rng.below(kPolicies));
            const std::string line =
                "get " + d.sigs[s] + " " + wlName(w) + " " + polName(p);
            SpanScope span(tracer, "serve.handle", i);
            const double t = nowUs();
            (void)service.handleLine(line);
            handle_us.push_back(nowUs() - t);
        }
    }
    res.layer("serve.handle_us", "us", median(handle_us));

    // The lazy parse a first fill forces, and one publish after it.
    double load_ms = 0.0, publish_ms = 0.0;
    {
        const double t = nowUs();
        SpanScope span(tracer, "runcache.load");
        migc::RunCache cache(kCachePath, 1 << 30, migc::CacheFormat::v4);
        load_ms = (nowUs() - t) / 1000.0;
        (void)cache.snapshot();
        RunMetrics m;
        m.workload = "fresh";
        m.policy = "row";
        m.execTicks = 1;
        cache.insert(d.sigs[0], m);
        SpanScope pub(tracer, "snapshot.publish");
        const double t2 = nowUs();
        (void)cache.snapshot();
        publish_ms = (nowUs() - t2) / 1000.0;
    }
    res.layer("runcache.load_ms", "ms", load_ms);
    res.layer("snapshot.publish_ms", "ms", publish_ms);
    res.layer("runcache.bytes", "bytes",
              static_cast<double>(fileSize(kCachePath)));
    // The compacting write of the generated 100k rows.
    res.layer("runcache.checkpoint_ms", "ms", d.writeMs);
}

Result
runServe(const RunArgs &args, Tracer &tracer, bool mixed)
{
    Result res;
    ServeData d;
    {
        SpanScope span(tracer, "bench.generate_cache");
        d = generateCache(args.seed);
    }
    // In-process layer timings need the cache as generated, before a
    // serve_mixed server appends its fills to it.
    if (tracer.on())
        inProcessLayers(d, args.seed, tracer, res);

    // The server is started several times and the median start-up
    // reported; the last one serves the load. Start-up waits on the
    // socket, so the CPUs are kept from halting as during the load.
    std::vector<double> setup_s;
    Server s;
    IdleSpinners setup_spin(args.cpus);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (s.pid >= 0)
            stopServer(s);
        SpanScope span(tracer, "serve.start", rep);
        s = startServer(args, mixed);
        if (s.pid < 0) {
            res.fail("migc_serve did not start");
            res.attempted = 1;
            return res;
        }
        setup_s.push_back(s.setupS);
    }
    setup_spin.stop();

    std::vector<ReaderLog> logs(kReaders);
    std::vector<Fill> fills;
    const double t0 = nowUs();
    const double deadline = t0 + args.seconds * 1e6;
    {
        SpanScope load(tracer, "bench.load");
        IdleSpinners spin(args.cpus);
        const std::int64_t parent = currentSpan();
        std::vector<std::thread> threads;
        for (unsigned r = 0; r < kReaders; ++r) {
            threads.emplace_back(readerLoop, std::cref(d), args.seed, r,
                                 deadline, std::ref(tracer), parent,
                                 std::ref(logs[r]));
        }
        if (mixed) {
            threads.emplace_back(writerLoop, args.seed, deadline,
                                 std::ref(tracer), parent,
                                 std::ref(fills));
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double wall_s = (nowUs() - t0) / 1e6;
    std::map<std::string, double> stats;
    {
        LineClient c(kSocket);
        stats = parseStats(c.request("stats", false));
    }
    const ChildExit ex = stopServer(s);

    // ---- checks (untimed) ----
    std::vector<double> get_us, match_us;
    std::uint64_t queries = 0;
    for (const ReaderLog &log : logs) {
        for (const Query &q : log) {
            ++queries;
            (q.match ? match_us : get_us).push_back(q.us);
            if (q.match && (q.matched != kPolicies ||
                            q.hash != d.matchHash[q.row])) {
                res.fail("match returned " + std::to_string(q.matched) +
                         " rows or wrong bytes");
            } else if (!q.match && q.hash != d.rowHash[q.row]) {
                res.fail("get reply differs from the generated row");
            }
        }
    }
    res.attempted += queries;
    // Every fill equals a fresh simulation of its point.
    std::vector<std::string> expect(fills.size());
    {
        SpanScope span(tracer, "run.fill_checks");
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        for (unsigned j = 0; j < std::max(1u, args.cpus); ++j) {
            pool.emplace_back([&] {
                for (std::size_t i; (i = next.fetch_add(1)) <
                                    fills.size();) {
                    expect[i] = migc::runNamedWorkload(
                                    fills[i].workload,
                                    migc::SimConfig::testConfig(),
                                    fills[i].policy)
                                    .toCsv() +
                                "\n";
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }
    std::vector<double> fill_ms;
    for (std::size_t i = 0; i < fills.size(); ++i) {
        fill_ms.push_back(fills[i].ms);
        if (fills[i].row != expect[i]) {
            res.fail("fill " + fills[i].workload + "/" +
                     fills[i].policy + " differs from runNamedWorkload");
        }
    }
    res.attempted += fills.size();
    if (!ex.exitedCleanly && !WIFSIGNALED(ex.status))
        res.fail("migc_serve exited abnormally");
    if (mixed && fills.empty())
        res.fail("no fill completed");

    const Tail get_tail = tailPercentile(get_us);
    const Tail match_tail = tailPercentile(match_us);
    const double qps = static_cast<double>(queries) / wall_s;
    res.line("setup_s", "s", median(setup_s), setup_s.size());
    res.line("qps", "queries/s", qps, queries);
    res.line("get_p50_us", "us", median(get_us), get_us.size());
    res.line("get_p99_us", "us", quantile(get_us, 0.99), get_us.size());
    res.line("get_tail_us", "us", get_tail.value, get_tail.n,
             get_tail.label);
    res.line("match_p50_us", "us", median(match_us), match_us.size());
    res.line("match_tail_us", "us", match_tail.value, match_tail.n,
             match_tail.label);
    if (mixed) {
        const Tail fill_tail = tailPercentile(fill_ms);
        res.line("fill_p50_ms", "ms", median(fill_ms), fill_ms.size());
        res.line("fill_p90_ms", "ms", quantile(fill_ms, 0.9),
                 fill_ms.size());
        res.line("fill_tail_ms", "ms", fill_tail.value, fill_tail.n,
                 fill_tail.label);
    }
    res.line("peak_rss_mb", "MB", ex.maxRssMb, 1, "migc_serve");

    const std::vector<Window> win =
        windows(logs, t0, wall_s * 1e6, kWindowS * 1e6);
    std::vector<double> win_qps, win_p50, win_p99;
    for (const Window &w : win) {
        win_qps.push_back(w.qps);
        win_p50.push_back(w.getP50Us);
        win_p99.push_back(w.getP99Us);
    }
    res.line("window_qps", "queries/s", median(win_qps), win.size(),
             "median window");
    res.line("window_get_p50_us", "us", median(win_p50), win.size(),
             "median window");
    res.line("window_get_p99_us", "us", median(win_p99), win.size(),
             "median window");

    res.endToEnd["setup_s"] = {median(setup_s), "s"};
    res.endToEnd["work_per_s"] = {median(win_qps), "1/s"};
    res.endToEnd["latency_p50_ms"] = {median(win_p50) / 1000.0, "ms"};
    res.endToEnd["latency_tail_ms"] = {median(win_p99) / 1000.0, "ms"};
    res.endToEnd["peak_rss_mb"] = {ex.maxRssMb, "MB"};

    if (tracer.on()) {
        res.layer("serve.publishes", "count", stats["publishes"]);
        res.layer("sweep.simulations", "count", stats["simulated"]);
        res.layer("serve.miss_enqueues", "count",
                  stats["miss-enqueues"]);
        if (mixed)
            res.layer("snapshot.publish_ms", "ms", stats["publish_ms"]);
        res.layer("transport.rtt_overhead_us", "us",
                  median(get_us) - res.layers["serve.handle_us"].value);
    }
    ::unlink(kCachePath);
    return res;
}

} // namespace

Result
runServeRead(const RunArgs &args, Tracer &tracer)
{
    return runServe(args, tracer, false);
}

Result
runServeMixed(const RunArgs &args, Tracer &tracer)
{
    return runServe(args, tracer, true);
}

} // namespace perfbench
