/**
 * @file
 * migc_sweep: the elastic multi-process sweep driver.
 *
 * One binary, several roles around one deterministic grid:
 *
 *  - single-process: run the grid through the SweepEngine, exactly
 *    like a figure binary (`migc_sweep --grid dynamic`).
 *  - fleet coordinator: `--shards N` builds the grid, plans the
 *    pending run-key list (longest-estimated-job-first, costs from
 *    prior RunCache rows), serves it as leases over an AF_UNIX
 *    socket (core/fleet.hh), and fork/execs N local workers that
 *    lease, simulate, checkpoint, and report until the queue drains;
 *    then merges the shard caches - byte-identical to the
 *    single-process file for any worker count, steal schedule, or
 *    crash history. `--resume` folds partial shard caches into the
 *    plan first, so only never-checkpointed keys are re-enqueued.
 *  - fleet worker: `--fleet SOCK --shard-index i` leases ranges from
 *    the coordinator at SOCK and writes to `<cache>.shard<i>`.
 *  - listening coordinator: `--listen SOCK --shards N` is the
 *    coordinator without the forking - workers are started by hand
 *    or a launcher (what `--manifest` prints); it merges at drain.
 *  - merge: `--shards N --merge` performs just the join - union the
 *    shard files into the canonical cache, dedupe identical rows,
 *    fail loudly on conflicting rows, delete the merged inputs.
 *  - convert / export: `--convert` rewrites a v3/v2 text cache from
 *    an older build in place as v4 (the only format a cache reads);
 *    `--export PATH` writes the cache's rows to PATH as v3 csv text.
 *
 * The grid is workloads x policies on one configuration; results
 * land in the same RunCache namespaces the figure binaries read, so
 * a cold fleet sweep makes every figure binary's run free. See
 * docs/SWEEPS.md for the workflows and the fleet protocol.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "core/fleet.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "policy/cache_policy.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "workloads/workload.hh"

namespace
{

using namespace migc;

struct Options
{
    std::string grid = "paper";     // paper | dynamic
    std::string config = "default"; // default | paper | test
    std::string cache;              // resolved in resolveCachePath()
    std::vector<std::string> workloads; // override (empty = grid's)
    std::vector<std::string> policies;  // override (empty = grid's)
    unsigned shards = 0;   // 0 = single-process sweep
    int shardIndex = -1;   // fleet worker index (needs --fleet)
    unsigned jobs = 0;     // threads per process (0 = MIGC_JOBS)
    bool manifest = false;
    bool merge = false;
    bool convert = false;    // rewrite a text cache in place as v4
    std::string exportPath;  // write a csv copy there

    // Fleet (elastic lease queue) options. Sockets are endpoint
    // specs: unix:<path>, tcp:<host>:<port>, or a bare AF_UNIX path.
    std::string fleetSocket;  // worker: coordinator socket to join
    std::string listenSocket; // coordinator: serve leases, don't fork
    bool push = false;        // worker: force shard push over the wire
    bool resume = false;      // fold partial shard caches into plan
    unsigned leaseSize = 2;   // keys per lease
    unsigned renewMs = 10000; // lease renew deadline
    int slowWorkerIndex = -1; // straggler injection (coordinator)
    unsigned slowWorkerMs = 0;
    unsigned slowMs = 0;      // straggler injection (this process)
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --grid paper|dynamic   17x6 paper grid (default) or the\n"
        "                         18x9 dynamic-policy grid (fig14)\n"
        "  --config default|paper|test\n"
        "                         system preset (default: default)\n"
        "  --workloads a,b,...    override the grid's workload list\n"
        "  --policies x,y,...     override the grid's policy list\n"
        "  --cache PATH           canonical cache file (default:\n"
        "                         MIGC_SWEEP_CACHE or mi_sweep_cache.csv)\n"
        "  --shards N             run an N-worker elastic fleet (fork\n"
        "                         local workers, lease run-key ranges,\n"
        "                         steal from stragglers, merge at join)\n"
        "  --shard-index I        run as fleet worker I (with --fleet)\n"
        "  --fleet SPEC           lease work from the coordinator at\n"
        "                         SPEC: unix:<path>, tcp:<host>:<port>,\n"
        "                         or a bare AF_UNIX path\n"
        "  --listen SPEC          coordinate on SPEC without forking\n"
        "                         workers (start them by hand; see\n"
        "                         --manifest); merges when drained.\n"
        "                         tcp:<host>:0 binds an ephemeral port\n"
        "                         and prints the real one\n"
        "  --push                 workers upload their shard cache to\n"
        "                         the coordinator before each done\n"
        "                         (default for tcp: endpoints - no\n"
        "                         shared filesystem assumed)\n"
        "  --resume               re-enqueue only keys absent from the\n"
        "                         canonical cache and the partial\n"
        "                         <cache>.shard* files of a crashed or\n"
        "                         interrupted fleet\n"
        "  --lease-size K         run keys per lease (default 2)\n"
        "  --renew-ms MS          lease renew deadline (default 10000);\n"
        "                         a worker silent this long forfeits\n"
        "                         its lease\n"
        "  --manifest             print the fleet coordinator + worker\n"
        "                         commands, then exit\n"
        "  --merge                merge <cache>.shard* into <cache>\n"
        "                         and exit\n"
        "  --convert              rewrite a v3/v2 text <cache> from\n"
        "                         an older build in place as v4 (the\n"
        "                         only format caches read) and exit\n"
        "  --export PATH          write a copy of <cache> to PATH as\n"
        "                         v3 csv text and exit (the original\n"
        "                         is untouched)\n"
        "  --jobs J               worker threads per process\n"
        "  --slow-worker I:MS     testing: fork worker I with an MS ms\n"
        "                         sleep after every run (straggler)\n"
        "  --slow-ms MS           testing: this process sleeps MS ms\n"
        "                         after every run\n"
        "  --help                 this text\n"
        "\nsee docs/SWEEPS.md for copy-paste sweep workflows\n",
        argv0);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

unsigned
parseCount(const char *flag, const std::string &value, unsigned min,
           unsigned max)
{
    return parseBoundedUnsigned(flag, value.c_str(), min, max);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int i) -> std::string {
        fatal_if(i + 1 >= argc, "%s needs a value (--help for usage)",
                 argv[i]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else if (arg == "--grid") {
            opt.grid = need(i++);
            fatal_if(opt.grid != "paper" && opt.grid != "dynamic",
                     "--grid %s: expected paper or dynamic",
                     opt.grid.c_str());
        } else if (arg == "--config") {
            opt.config = need(i++);
            fatal_if(opt.config != "default" && opt.config != "paper" &&
                         opt.config != "test",
                     "--config %s: expected default, paper, or test",
                     opt.config.c_str());
        } else if (arg == "--workloads") {
            opt.workloads = splitList(need(i++));
        } else if (arg == "--policies") {
            opt.policies = splitList(need(i++));
        } else if (arg == "--cache") {
            opt.cache = need(i++);
        } else if (arg == "--shards") {
            opt.shards = parseCount("--shards", need(i++), 1, 4096);
        } else if (arg == "--shard-index") {
            opt.shardIndex = static_cast<int>(
                parseCount("--shard-index", need(i++), 0, 4095));
        } else if (arg == "--jobs") {
            opt.jobs = parseCount("--jobs", need(i++), 1, 4096);
        } else if (arg == "--fleet") {
            opt.fleetSocket = need(i++);
        } else if (arg == "--listen") {
            opt.listenSocket = need(i++);
        } else if (arg == "--push") {
            opt.push = true;
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--lease-size") {
            opt.leaseSize =
                parseCount("--lease-size", need(i++), 1, 4096);
        } else if (arg == "--renew-ms") {
            opt.renewMs =
                parseCount("--renew-ms", need(i++), 10, 3600000);
        } else if (arg == "--slow-worker") {
            const std::string v = need(i++);
            std::size_t colon = v.find(':');
            fatal_if(colon == std::string::npos,
                     "--slow-worker wants INDEX:MS (got %s)",
                     v.c_str());
            opt.slowWorkerIndex = static_cast<int>(parseCount(
                "--slow-worker index", v.substr(0, colon), 0, 4095));
            opt.slowWorkerMs = parseCount(
                "--slow-worker ms", v.substr(colon + 1), 1, 600000);
        } else if (arg == "--slow-ms") {
            opt.slowMs = parseCount("--slow-ms", need(i++), 1, 600000);
        } else if (arg == "--manifest") {
            opt.manifest = true;
        } else if (arg == "--merge") {
            opt.merge = true;
        } else if (arg == "--convert") {
            opt.convert = true;
        } else if (arg == "--export") {
            opt.exportPath = need(i++);
        } else {
            usage(argv[0]);
            fatal("unknown option %s", arg.c_str());
        }
    }
    fatal_if(opt.shardIndex >= 0 && opt.fleetSocket.empty(),
             "--shard-index names a fleet worker and needs --fleet "
             "SPEC; start the coordinator with --listen SPEC --shards "
             "N, or let --shards N fork the workers itself");
    fatal_if(opt.shardIndex >= 0 && opt.shards > 0 &&
                 static_cast<unsigned>(opt.shardIndex) >= opt.shards,
             "--shard-index %d out of range for --shards %u",
             opt.shardIndex, opt.shards);
    fatal_if(!opt.fleetSocket.empty() && opt.shardIndex < 0,
             "--fleet needs --shard-index (it names the worker's "
             "private shard cache file)");
    fatal_if(!opt.fleetSocket.empty() && !opt.listenSocket.empty(),
             "--fleet (worker) and --listen (coordinator) are "
             "mutually exclusive");
    fatal_if(!opt.listenSocket.empty() && opt.shardIndex >= 0,
             "--listen coordinates; it cannot also be worker %d",
             opt.shardIndex);
    fatal_if(opt.merge && (!opt.fleetSocket.empty() ||
                           !opt.listenSocket.empty()),
             "--merge cannot be combined with --fleet/--listen");
    // --manifest --listen SPEC prints commands for that endpoint (the
    // multi-host workflow); --manifest --fleet is still meaningless
    // (a manifest describes a whole fleet, not one worker).
    fatal_if(opt.manifest && !opt.fleetSocket.empty(),
             "--manifest cannot be combined with --fleet");
    fatal_if(opt.resume && !opt.fleetSocket.empty(),
             "--resume is a coordinator option (workers just lease "
             "whatever the resumed plan still needs)");
    fatal_if(opt.slowWorkerIndex >= 0 && !opt.listenSocket.empty(),
             "--slow-worker injects at fork; with --listen, start "
             "the straggler yourself with --slow-ms");
    fatal_if((opt.convert || !opt.exportPath.empty()) &&
                 (opt.merge || opt.manifest || opt.shards > 0 ||
                  !opt.fleetSocket.empty() ||
                  !opt.listenSocket.empty()),
             "--convert/--export only rewrite the cache; they cannot "
             "be combined with sweep or fleet roles");
    fatal_if(opt.merge && opt.shards == 0, "--merge needs --shards");
    fatal_if(opt.manifest && opt.shards == 0,
             "--manifest needs --shards");
    fatal_if(!opt.listenSocket.empty() && opt.shards == 0,
             "--listen needs --shards (the merge scans shard files "
             "0..N-1, and workers must use indices below N)");
    return opt;
}

/** The canonical cache path: flag, else the figure binaries' env. */
std::string
resolveCachePath(const Options &opt)
{
    return opt.cache.empty() ? sweepCachePathFromEnv() : opt.cache;
}

SimConfig
makeConfig(const Options &opt)
{
    if (opt.config == "paper")
        return SimConfig::paperConfig();
    if (opt.config == "test")
        return SimConfig::testConfig();
    return SimConfig::defaultConfig();
}

std::vector<RunRequest>
buildGrid(const Options &opt, const SimConfig &cfg)
{
    std::vector<std::string> workloads = opt.workloads;
    if (workloads.empty()) {
        workloads = opt.grid == "dynamic" ? extendedWorkloadOrder()
                                          : workloadOrder();
    }
    std::vector<std::string> policies = opt.policies;
    if (policies.empty()) {
        policies = ExperimentSweep::allPolicyNames();
        if (opt.grid == "dynamic") {
            for (const CachePolicy &p : CachePolicy::dynamicPolicies())
                policies.push_back(p.name);
        }
    }
    std::vector<RunRequest> requests;
    requests.reserve(workloads.size() * policies.size());
    for (const auto &w : workloads) {
        for (const auto &p : policies)
            requests.push_back(RunRequest{cfg, w, p});
    }
    return requests;
}

/** The fleet-worker command line for worker @p index. */
std::vector<std::string>
workerArgs(const std::string &argv0, const Options &opt,
           const std::string &cache, unsigned index,
           const std::string &sock)
{
    std::vector<std::string> args{argv0,
                                  "--grid",
                                  opt.grid,
                                  "--config",
                                  opt.config,
                                  "--cache",
                                  cache,
                                  "--fleet",
                                  sock,
                                  "--shard-index",
                                  std::to_string(index)};
    if (!opt.workloads.empty()) {
        args.push_back("--workloads");
        args.push_back(joinStrings(opt.workloads, ","));
    }
    if (!opt.policies.empty()) {
        args.push_back("--policies");
        args.push_back(joinStrings(opt.policies, ","));
    }
    if (opt.jobs > 0) {
        args.push_back("--jobs");
        args.push_back(std::to_string(opt.jobs));
    }
    if (opt.push) {
        args.push_back("--push");
    }
    if (opt.slowWorkerIndex >= 0 &&
        static_cast<unsigned>(opt.slowWorkerIndex) == index) {
        args.push_back("--slow-ms");
        args.push_back(std::to_string(opt.slowWorkerMs));
    }
    return args;
}

/** Quote one argument for copy-paste into a POSIX shell. */
std::string
shellQuote(const std::string &s)
{
    static const char *safe =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "0123456789._-+=/:,@%";
    if (!s.empty() && s.find_first_not_of(safe) == std::string::npos)
        return s;
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

std::string
shellJoin(const std::vector<std::string> &args)
{
    std::vector<std::string> quoted;
    quoted.reserve(args.size());
    for (const std::string &a : args)
        quoted.push_back(shellQuote(a));
    return joinStrings(quoted, " ");
}

void
printMergeSummary(const std::string &cache, const ShardMergeStats &stats)
{
    std::printf("merged %zu shard cache%s into %s: +%zu rows, "
                "%zu duplicates deduped, %zu parse errors\n",
                stats.files, stats.files == 1 ? "" : "s", cache.c_str(),
                stats.rows, stats.duplicates, stats.parseErrors);
}

/** This binary's path for re-exec; /proc/self/exe survives PATH
 *  lookups and working-directory changes, argv[0] is the fallback. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * The coordinator's socket address. Derived from the cache path so
 * two fleets on different caches never collide; the pid suffix keeps
 * repeated runs on one cache apart. sun_path caps AF_UNIX paths at
 * ~107 bytes, so deep build trees fall back to /tmp.
 */
std::string
fleetSocketPath(const std::string &cache)
{
    std::string sock = csprintf("%s.fleet.%d.sock", cache.c_str(),
                                static_cast<int>(::getpid()));
    if (sock.size() < 100)
        return sock;
    return csprintf("/tmp/migc_fleet_%d.sock",
                    static_cast<int>(::getpid()));
}

int
runSweep(const Options &opt, const std::string &cache)
{
    SimConfig cfg = makeConfig(opt);
    std::vector<RunRequest> requests = buildGrid(opt, cfg);
    SweepEngine engine(cache);
    if (opt.slowMs > 0)
        engine.setInjectedRunDelayMs(opt.slowMs);
    engine.run(requests, opt.jobs);
    engine.flush();
    std::printf("sweep done: %llu simulated, %llu from cache "
                "(grid: %zu points, %zu cache parse errors)\n",
                static_cast<unsigned long long>(
                    engine.simulationsPerformed()),
                static_cast<unsigned long long>(engine.cacheHits()),
                requests.size(), engine.cacheParseErrors());
    return 0;
}

/** Fleet worker: lease run-key ranges until the grid drains. */
int
runFleetWorker(const Options &opt, const std::string &cache)
{
    SimConfig cfg = makeConfig(opt);
    std::vector<RunRequest> requests = buildGrid(opt, cfg);
    const unsigned index = static_cast<unsigned>(opt.shardIndex);

    // Push is the no-shared-filesystem mode: forced by --push, and
    // the default over TCP (a tcp: coordinator is presumed to be on
    // another machine; a unix: one shares our filesystem, where
    // pushing would just re-store files the merge already reads).
    FleetClientOptions copts;
    copts.gridSize = requests.size();
    copts.push =
        opt.push ||
        parseEndpoint(opt.fleetSocket).kind == Endpoint::Kind::tcp;

    // The client connects before the engine opens any cache file so
    // a restarted worker can fetch its own pre-crash checkpoint back
    // from the coordinator's shard store first.
    FleetClient client(opt.fleetSocket, index,
                       gridFingerprint(requests), copts);
    if (copts.push) {
        const std::string shard_file = shardCachePath(cache, index);
        std::ifstream probe(shard_file);
        if (!probe && client.fetchShard(index, shard_file)) {
            inform("worker %u: fetched its stored shard cache back "
                   "from the coordinator",
                   index);
        }
    }

    SweepEngine engine(cache, FleetWorkerSpec{index});
    if (opt.slowMs > 0)
        engine.setInjectedRunDelayMs(opt.slowMs);
    SweepEngine::FleetRunStats st =
        engine.runFleet(requests, client, opt.jobs);
    engine.flush();
    std::printf("worker %u drained: %llu simulated, %llu from cache, "
                "%llu leases, %llu stale dones\n",
                index, static_cast<unsigned long long>(st.runs),
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.leases),
                static_cast<unsigned long long>(st.stale));
    return 0;
}

/** The per-worker accounting block of the join summary. */
void
printFleetSummary(const FleetServer &server)
{
    for (const auto &[worker, st] : server.workerStats()) {
        std::printf("fleet worker %u: %llu runs, %llu leases "
                    "(%llu stolen, %llu expired, %llu stale), "
                    "%.1fs wall\n",
                    worker,
                    static_cast<unsigned long long>(st.runs),
                    static_cast<unsigned long long>(st.leases),
                    static_cast<unsigned long long>(st.steals),
                    static_cast<unsigned long long>(st.expired),
                    static_cast<unsigned long long>(st.staleDones),
                    st.wallSeconds());
    }
}

/**
 * Fleet coordinator: plan the pending keys, serve leases, run the
 * workers (forked locally unless @p listen_only), merge at drain.
 */
int
coordinateFleet(const Options &opt, const std::string &cache,
                const char *argv0, bool listen_only)
{
    const std::string self = selfExePath(argv0);
    SimConfig cfg = makeConfig(opt);
    std::vector<RunRequest> requests = buildGrid(opt, cfg);
    FleetPlan plan =
        planFleetSweep(requests, cache, opt.shards, opt.resume);
    inform("fleet plan: %zu of %zu grid points pending (%zu cached, "
           "%zu rows recovered from partial shard caches)",
           plan.pending.size(), requests.size(), plan.cached,
           plan.resumedRows);

    if (plan.pending.empty()) {
        // Nothing to lease; fold in whatever partial shard files a
        // previous fleet left behind and call it done.
        printMergeSummary(cache, mergeShardCaches(cache, opt.shards));
        return 0;
    }

    FleetConfig fcfg;
    fcfg.leaseSize = opt.leaseSize;
    fcfg.renewMs = opt.renewMs;
    const std::string sock = opt.listenSocket.empty()
                                 ? fleetSocketPath(cache)
                                 : opt.listenSocket;
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending, fcfg),
                       gridFingerprint(requests));
    // Always accept shard uploads: a unix-socket fleet shares the
    // filesystem and never pushes, but a worker that does push (tcp,
    // or --push) must find a store, and it is the same canonical
    // shardCachePath the merge reads either way.
    server.setShardStore(cache);
    server.start();

    if (listen_only) {
        // boundEndpoint resolves tcp:<host>:0 to the real port - the
        // one thing the user cannot know before start().
        const std::string bound = server.boundEndpoint().spec();
        inform("fleet coordinator on %s: %zu keys to lease; start "
               "workers with --fleet %s --shard-index I (I < %u), "
               "merging when drained",
               bound.c_str(), plan.pending.size(), bound.c_str(),
               opt.shards);
        while (!server.drained()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
        // Linger until the workers have collected their `# drained`
        // replies (each closes its connection on exit): stopping the
        // instant the last key retires would turn every worker's
        // final lease request into a connection error. Bounded so a
        // wedged worker cannot stall the merge.
        for (int i = 0; i < 50 && server.liveConnections() > 0; ++i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    } else {
        // The workers all run on this machine: divide the thread
        // budget between them instead of letting each one claim
        // every core. sweepJobs() is the budget so MIGC_JOBS still
        // caps the whole fleet; an explicit --jobs passes through.
        Options worker_opt = opt;
        if (worker_opt.jobs == 0)
            worker_opt.jobs = std::max(1u, sweepJobs() / opt.shards);

        std::vector<pid_t> children;
        children.reserve(opt.shards);
        for (unsigned i = 0; i < opt.shards; ++i) {
            std::vector<std::string> args =
                workerArgs(self, worker_opt, cache, i, sock);
            pid_t pid = ::fork();
            fatal_if(pid < 0, "fork failed for worker %u: %s", i,
                     std::strerror(errno));
            if (pid == 0) {
                std::vector<char *> argvec;
                argvec.reserve(args.size() + 1);
                for (std::string &a : args)
                    argvec.push_back(a.data());
                argvec.push_back(nullptr);
                ::execv(self.c_str(), argvec.data());
                std::fprintf(stderr, "exec %s failed: %s\n",
                             self.c_str(), std::strerror(errno));
                std::_Exit(127);
            }
            children.push_back(pid);
        }

        // A dead worker is no longer fatal by itself: its lease
        // expires and the surviving workers absorb the keys. Only an
        // undrained queue after every worker exited means real loss.
        unsigned failed = 0;
        for (unsigned i = 0; i < children.size(); ++i) {
            int status = 0;
            if (::waitpid(children[i], &status, 0) < 0 ||
                !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                warn("fleet worker %u (pid %d) died (status %d); "
                     "its unfinished leases return to the queue", i,
                     static_cast<int>(children[i]), status);
                ++failed;
            }
        }
        if (failed > 0 && !server.drained()) {
            server.stop();
            fatal("%u fleet worker%s died with %zu key%s still "
                  "unfinished; completed runs are checkpointed in "
                  "the shard caches - re-run with --resume to "
                  "finish the rest",
                  failed, failed == 1 ? "" : "s",
                  server.pendingCount(),
                  server.pendingCount() == 1 ? "" : "s");
        }
    }

    fatal_if(!server.drained(),
             "fleet queue not drained; re-run with --resume");
    server.stop();
    printFleetSummary(server);
    if (server.expiredLeases() > 0) {
        inform("fleet: %llu lease%s expired and requeued",
               static_cast<unsigned long long>(
                   server.expiredLeases()),
               server.expiredLeases() == 1 ? "" : "s");
    }
    printMergeSummary(cache, mergeShardCaches(cache, opt.shards));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    const std::string cache = resolveCachePath(opt);
    fatal_if(cache.empty() &&
                 (opt.shards > 0 || !opt.fleetSocket.empty()),
             "fleet sweeps need a cache file to merge "
             "(unset MIGC_NO_CACHE or pass --cache)");

    if (opt.convert || !opt.exportPath.empty()) {
        fatal_if(cache.empty(),
                 "--convert/--export need a cache file (unset "
                 "MIGC_NO_CACHE or pass --cache)");
        if (opt.convert) {
            // Parse the text into memory only, then replace the file
            // with its v4 serialization (tmp+rename).
            RunCache text{std::string()};
            const RunCache::MergeStats st = importTextCache(cache, text);
            fatal_if(!text.exportFile(cache, CacheFormat::v4),
                     "could not write %s", cache.c_str());
            std::printf("converted %s to v4 (%zu rows; %zu duplicates, "
                        "%zu conflicts, %zu parse errors)\n",
                        cache.c_str(), text.size(), st.duplicates,
                        st.conflicts, st.parseErrors);
        }
        if (!opt.exportPath.empty()) {
            RunCache rc(cache);
            fatal_if(!rc.exportFile(opt.exportPath, CacheFormat::csv),
                     "could not write %s", opt.exportPath.c_str());
            std::printf("wrote %s as csv (%zu rows)\n",
                        opt.exportPath.c_str(), rc.size());
        }
        return 0;
    }

    if (opt.merge) {
        printMergeSummary(cache, mergeShardCaches(cache, opt.shards));
        return 0;
    }

    if (opt.manifest) {
        const std::string self = selfExePath(argv[0]);
        // A stable, pid-free socket name (the printed commands are
        // for copy-paste, possibly from a file, long after this
        // process exited) - unless --listen named an endpoint, which
        // passes through verbatim (tcp: for multi-host fleets).
        const std::string sock = opt.listenSocket.empty()
                                     ? cache + ".fleet.sock"
                                     : opt.listenSocket;
        const bool tcp =
            parseEndpoint(sock).kind == Endpoint::Kind::tcp;
        std::printf(
            "# elastic fleet: start the coordinator first (it owns "
            "the lease queue\n"
            "# and merges at drain), then one worker per index%s:\n",
            tcp ? " on any host that can reach it (shard files "
                  "travel over the socket)"
                : " on the same host");
        std::vector<std::string> coord{
            self,           "--grid",  opt.grid,
            "--config",     opt.config, "--cache",
            cache,          "--shards", std::to_string(opt.shards),
            "--listen",     sock};
        if (!opt.workloads.empty()) {
            coord.push_back("--workloads");
            coord.push_back(joinStrings(opt.workloads, ","));
        }
        if (!opt.policies.empty()) {
            coord.push_back("--policies");
            coord.push_back(joinStrings(opt.policies, ","));
        }
        if (opt.resume)
            coord.push_back("--resume");
        std::printf("%s\n", shellJoin(coord).c_str());
        for (unsigned i = 0; i < opt.shards; ++i)
            std::printf(
                "%s\n",
                shellJoin(workerArgs(self, opt, cache, i, sock))
                    .c_str());
        std::printf(
            "# after a crash, rerun the coordinator line with "
            "--resume: only keys\n"
            "# absent from the canonical cache and the partial "
            "<cache>.shard* files\n"
            "# are re-enqueued\n");
        return 0;
    }

    if (!opt.fleetSocket.empty())
        return runFleetWorker(opt, cache);

    if (!opt.listenSocket.empty())
        return coordinateFleet(opt, cache, argv[0],
                               /*listen_only=*/true);

    if (opt.shards > 0)
        return coordinateFleet(opt, cache, argv[0],
                               /*listen_only=*/false);

    return runSweep(opt, cache);
}
