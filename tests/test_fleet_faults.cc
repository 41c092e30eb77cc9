/** @file Chaos suite for the multi-host fleet: a deterministic
 *  fault-injection matrix ({drop, truncate, duplicate, delay,
 *  corrupt} x {lease, done, renew, push, fetch}) driven through the
 *  transport shim (serve/transport.hh) over real localhost-TCP
 *  sockets, proving the merged coordinator-store cache stays
 *  byte-identical to a single-process sweep under every injected
 *  failure. Plus: the shim's replay determinism (same seed +
 *  schedule = same byte trace, independent of read chunking), a
 *  checksum-failed v4 segment dropping loudly out of the shard merge
 *  and repairing on re-push, the connect-failure fatal naming the
 *  underlying OS error, and a SIGKILLed TCP worker whose takeover
 *  still merges byte-identical with no shared shard files. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "serve/transport.hh"
#include "sim/rng.hh"

using namespace migc;

// See tests/test_fleet.cc: TSan cannot follow a forked child that
// starts threads, so the SIGKILL test skips itself there.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MIGC_FLEET_TSAN 1
#endif
#endif
#if !defined(MIGC_FLEET_TSAN) && defined(__SANITIZE_THREAD__)
#define MIGC_FLEET_TSAN 1
#endif

namespace
{

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_faults_" + leaf;
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
    std::ofstream out(path,
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
removeCacheFamily(const std::string &base, unsigned shards)
{
    std::remove(base.c_str());
    for (unsigned i = 0; i < shards; ++i)
        std::remove(shardCachePath(base, i).c_str());
}

/** The small grid every end-to-end case sweeps (same points as
 *  tests/test_fleet.cc, so sim cost stays bounded). */
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

/** Single-process reference bytes for smallGrid(), computed once. */
const std::string &
soloBytes()
{
    static const std::string bytes = [] {
        const std::string solo = tempPath("solo_ref.csv");
        std::remove(solo.c_str());
        {
            SweepEngine engine(solo);
            engine.run(smallGrid());
        }
        std::string b = readFile(solo);
        std::remove(solo.c_str());
        return b;
    }();
    return bytes;
}

struct FleetResult
{
    std::string mergedBytes;
    std::string trace;
    std::uint64_t pushes = 0;
    bool drained = false;
};

/**
 * One chaos run: a 2-worker push-mode fleet over tcp:127.0.0.1:0
 * with disjoint per-worker cache bases (nothing shares a shard
 * path - only `push` can move bytes to the coordinator), worker 0's
 * connections wrapped in the fault shim with @p faults. Returns the
 * drain-time merge of the coordinator's *store* - exactly what a
 * no-shared-filesystem fleet would have.
 */
FleetResult
runFaultedFleet(const std::string &tag,
                const std::vector<StreamFault> &faults,
                unsigned worker0DelayMs, std::uint64_t renewMs)
{
    const auto grid = smallGrid();
    const std::uint64_t hash = gridFingerprint(grid);
    const std::string coord = tempPath(tag + "_coord.csv");
    const std::string w0 = tempPath(tag + "_w0.csv");
    const std::string w1 = tempPath(tag + "_w1.csv");
    removeCacheFamily(coord, 2);
    removeCacheFamily(w0, 2);
    removeCacheFamily(w1, 2);

    FleetPlan plan = planFleetSweep(grid, coord, 2, false);
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, renewMs}),
                       hash);
    server.setShardStore(coord);
    server.start();
    const std::string spec = server.boundEndpoint().spec();

    auto fplan = std::make_shared<FaultPlan>();
    fplan->faults = faults;
    fplan->seed = 0xC0FFEEu;

    std::vector<std::thread> workers;
    for (unsigned i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            SweepEngine engine(i == 0 ? w0 : w1,
                               FleetWorkerSpec{i});
            engine.setInjectedRunDelayMs(i == 0 ? worker0DelayMs
                                                : 0);
            FleetClientOptions opts;
            opts.gridSize = grid.size();
            opts.push = true;
            if (i == 0) {
                opts.wrap = [fplan](std::unique_ptr<Stream> s) {
                    return wrapFaulty(std::move(s), fplan);
                };
            }
            FleetClient client(spec, i, hash, opts);
            engine.runFleet(grid, client, 1);
        });
    }
    for (std::thread &t : workers)
        t.join();

    FleetResult r;
    r.drained = server.drained();
    r.pushes = server.pushesStored();
    server.stop();
    r.trace = fplan->trace();

    mergeShardCaches(coord, 2);
    r.mergedBytes = readFile(coord);
    removeCacheFamily(coord, 2);
    removeCacheFamily(w0, 2);
    removeCacheFamily(w1, 2);
    return r;
}

struct VerbTarget
{
    const char *name;
    const char *pattern;   ///< tx-stream trigger for the shim
    unsigned delayMs;      ///< worker 0 straggler delay
    std::uint64_t renewMs; ///< coordinator renew deadline
};

/** The verb column of the matrix. Renew needs a short deadline and
 *  a slowed worker or the background renewer never has a lease to
 *  renew; the others fire on any drain. */
const VerbTarget kVerbTargets[] = {
    {"lease", "lease ", 0, 10000},
    {"done", "done ", 0, 10000},
    {"renew", "renew ", 250, 300},
    {"push", "push ", 0, 10000},
};

/** Run one fault op across every verb target; every schedule must
 *  fire (visible in the trace) and still merge byte-identical. */
void
runMatrixForOp(StreamFault::Op op, const char *opName,
               const char *traceMark)
{
    for (const VerbTarget &v : kVerbTargets) {
        SCOPED_TRACE(std::string(opName) + " x " + v.name);
        StreamFault f;
        f.op = op;
        f.dir = StreamFault::Dir::tx;
        f.conn = 0;
        f.match = v.pattern;
        f.matchNth = 1;
        // Inside the verb word: the corruption can garble the frame
        // (or split it with an injected newline) but never forge a
        // different valid verb.
        f.offset = 2;
        f.len = 3;
        f.holdBytes = 6;
        FleetResult r = runFaultedFleet(
            std::string(opName) + "_" + v.name, {f}, v.delayMs,
            v.renewMs);
        EXPECT_TRUE(r.drained);
        EXPECT_GE(r.pushes, 1u);
        EXPECT_NE(r.trace.find(traceMark), std::string::npos)
            << "fault never fired; trace:\n" << r.trace;
        ASSERT_FALSE(soloBytes().empty());
        EXPECT_EQ(r.mergedBytes, soloBytes());
    }
}

} // namespace

// ---------------------------------------------------------------------
// The fault matrix: op x verb, merged bytes vs solo every time
// ---------------------------------------------------------------------

TEST(FleetFaultMatrix, Drop)
{
    runMatrixForOp(StreamFault::Op::drop, "drop", "drop");
}

TEST(FleetFaultMatrix, Truncate)
{
    runMatrixForOp(StreamFault::Op::truncate, "truncate",
                   "truncate");
}

TEST(FleetFaultMatrix, Duplicate)
{
    runMatrixForOp(StreamFault::Op::duplicate, "duplicate",
                   "duplicate");
}

TEST(FleetFaultMatrix, Delay)
{
    runMatrixForOp(StreamFault::Op::delay, "delay",
                   "delay-release");
}

TEST(FleetFaultMatrix, Corrupt)
{
    runMatrixForOp(StreamFault::Op::corrupt, "corrupt", "corrupt");
}

TEST(FleetFaultMatrix, PushPayloadFaultsNeverReachTheStore)
{
    // The matrix above hits the push *header*; these land inside
    // the raw payload bytes - the checksum path. A corrupted or
    // reordered payload must bounce off the coordinator (mismatch
    // reply), a torn one must die mid-frame; either way the client
    // retransmits the whole file and the store ends byte-exact.
    struct OpCase
    {
        StreamFault::Op op;
        const char *name;
        const char *mark;
    };
    const OpCase cases[] = {
        {StreamFault::Op::corrupt, "pcorrupt", "corrupt"},
        {StreamFault::Op::drop, "pdrop", "drop"},
        {StreamFault::Op::truncate, "ptrunc", "truncate"},
        {StreamFault::Op::duplicate, "pdup", "duplicate"},
        {StreamFault::Op::delay, "pdelay", "delay-release"},
    };
    for (const OpCase &c : cases) {
        SCOPED_TRACE(c.name);
        StreamFault f;
        f.op = c.op;
        f.dir = StreamFault::Dir::tx;
        f.conn = 0;
        f.match = "push ";
        f.matchNth = 1;
        // Past the ~25-byte header line: inside the v4 payload.
        f.offset = 64;
        f.len = 16;
        f.holdBytes = 32;
        FleetResult r = runFaultedFleet(c.name, {f}, 0, 10000);
        EXPECT_TRUE(r.drained);
        EXPECT_NE(r.trace.find(c.mark), std::string::npos)
            << "fault never fired; trace:\n" << r.trace;
        EXPECT_EQ(r.mergedBytes, soloBytes());
    }
}

// ---------------------------------------------------------------------
// Fetch column of the matrix: faults on the reply stream
// ---------------------------------------------------------------------

TEST(FleetFaults, FetchRetriesThroughEveryFaultKind)
{
    const std::string store = tempPath("fetch_store.csv");
    std::string bytes;
    Rng rng(0xFE7C4u);
    for (int i = 0; i < 256; ++i)
        bytes.push_back(static_cast<char>(rng.below(256)));
    writeFile(shardCachePath(store, 3), bytes);

    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue({1.0}, {0}, FleetConfig{1, 10000}),
                       42);
    server.setShardStore(store);
    server.start();
    const std::string spec = server.boundEndpoint().spec();

    const StreamFault::Op ops[] = {
        StreamFault::Op::drop, StreamFault::Op::truncate,
        StreamFault::Op::duplicate, StreamFault::Op::delay,
        StreamFault::Op::corrupt,
    };
    int casenum = 0;
    for (StreamFault::Op op : ops) {
        // Offset 2 garbles the "# shard <bytes> <checksum>" header;
        // offset 40 lands inside the streamed payload.
        for (std::uint64_t offset : {2ull, 40ull}) {
            SCOPED_TRACE(casenum);
            auto fplan = std::make_shared<FaultPlan>();
            StreamFault f;
            f.op = op;
            f.dir = StreamFault::Dir::rx;
            f.conn = 0;
            f.match = "# shard";
            f.matchNth = 1;
            f.offset = offset;
            f.len = 5;
            f.holdBytes = 6;
            fplan->faults = {f};
            fplan->seed = 0xD00Du + casenum;

            FleetClientOptions opts;
            opts.wrap = [fplan](std::unique_ptr<Stream> s) {
                return wrapFaulty(std::move(s), fplan);
            };
            FleetClient client(spec, 0, 42, opts);
            const std::string dest = tempPath(
                "fetch_dest_" + std::to_string(casenum));
            std::remove(dest.c_str());
            EXPECT_TRUE(client.fetchShard(3, dest));
            EXPECT_EQ(readFile(dest), bytes);
            EXPECT_FALSE(fplan->trace().empty());
            std::remove(dest.c_str());
            ++casenum;
        }
    }
    server.stop();
    std::remove(shardCachePath(store, 3).c_str());
}

// ---------------------------------------------------------------------
// Shim determinism: same seed + schedule = same byte trace
// ---------------------------------------------------------------------

namespace
{

/** Scripted in-memory peer: read() hands out the scripted input in
 *  fixed-size chunks (to prove chunking cannot change outcomes),
 *  writeAll() lands in a sink string. */
class ScriptStream : public Stream
{
  public:
    ScriptStream(std::string input, std::size_t chunk,
                 std::string *sink)
        : input_(std::move(input)), chunk_(chunk), sink_(sink)
    {
    }

    ssize_t
    read(void *buf, std::size_t n) override
    {
        if (pos_ >= input_.size())
            return 0;
        const std::size_t take =
            std::min({n, chunk_, input_.size() - pos_});
        std::memcpy(buf, input_.data() + pos_, take);
        pos_ += take;
        return static_cast<ssize_t>(take);
    }

    bool
    writeAll(const void *buf, std::size_t n) override
    {
        sink_->append(static_cast<const char *>(buf), n);
        return true;
    }

  private:
    std::string input_;
    std::size_t pos_ = 0;
    std::size_t chunk_;
    std::string *sink_;
};

/** One scripted session through the shim; returns the plan trace
 *  and fills the delivered tx/rx byte strings. */
std::string
runScriptedSession(std::uint64_t seed, std::size_t chunk,
                   std::string *tx, std::string *rx)
{
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = seed;
    StreamFault corrupt_tx;
    corrupt_tx.op = StreamFault::Op::corrupt;
    corrupt_tx.dir = StreamFault::Dir::tx;
    corrupt_tx.match = "lease";
    corrupt_tx.offset = 1;
    corrupt_tx.len = 4;
    StreamFault delay_tx;
    delay_tx.op = StreamFault::Op::delay;
    delay_tx.dir = StreamFault::Dir::tx;
    delay_tx.match = "done";
    delay_tx.offset = 0;
    delay_tx.len = 4;
    delay_tx.holdBytes = 3;
    StreamFault dup_rx;
    dup_rx.op = StreamFault::Op::duplicate;
    dup_rx.dir = StreamFault::Dir::rx;
    dup_rx.offset = 3;
    dup_rx.len = 5;
    StreamFault corrupt_rx;
    corrupt_rx.op = StreamFault::Op::corrupt;
    corrupt_rx.dir = StreamFault::Dir::rx;
    corrupt_rx.offset = 20;
    corrupt_rx.len = 4;
    plan->faults = {corrupt_tx, delay_tx, dup_rx, corrupt_rx};

    tx->clear();
    rx->clear();
    {
        std::unique_ptr<Stream> s = wrapFaulty(
            std::make_unique<ScriptStream>(
                "# lease 1 500 fresh 3 1 4\n# ok\n# drained\n",
                chunk, tx),
            plan);
        s->writeAll(std::string("lease 0 42\n"));
        char buf[8];
        for (int i = 0; i < 5; ++i) {
            ssize_t n = s->read(buf, sizeof(buf));
            if (n <= 0)
                break;
            rx->append(buf, static_cast<std::size_t>(n));
        }
        s->writeAll(std::string("done 0 1 3\n"));
        for (;;) {
            ssize_t n = s->read(buf, sizeof(buf));
            if (n <= 0)
                break;
            rx->append(buf, static_cast<std::size_t>(n));
        }
    } // destruction finalizes the per-direction eof/hash trace
    return plan->trace();
}

/** The trace lines mentioning one direction, in order - each
 *  direction's event sequence is chunk-invariant even though the
 *  global tx/rx interleaving follows the caller's read/write
 *  schedule. */
std::string
directionLines(const std::string &trace, const std::string &dir)
{
    std::string out;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find(" " + dir + " ") != std::string::npos) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

} // namespace

TEST(FleetFaults, ReplayedScheduleProducesIdenticalTrace)
{
    std::string tx1, rx1, tx2, rx2;
    const std::string t1 = runScriptedSession(7, 7, &tx1, &rx1);
    const std::string t2 = runScriptedSession(7, 7, &tx2, &rx2);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(tx1, tx2);
    EXPECT_EQ(rx1, rx2);

    // Every fault really fired and the trace pinned it.
    EXPECT_NE(t1.find("corrupt"), std::string::npos) << t1;
    EXPECT_NE(t1.find("duplicate"), std::string::npos) << t1;
    EXPECT_NE(t1.find("delay-release"), std::string::npos) << t1;
    EXPECT_NE(t1.find("eof"), std::string::npos) << t1;

    // Offsets index the logical stream, so how the peer chunks its
    // reads cannot change a delivered byte, a fault trigger, or a
    // per-direction event sequence. (Only the *interleaving* of the
    // two directions' trace lines follows the caller's read/write
    // schedule - they are independent streams.)
    std::string tx3, rx3;
    const std::string t3 = runScriptedSession(7, 3, &tx3, &rx3);
    EXPECT_EQ(directionLines(t1, "tx"), directionLines(t3, "tx"));
    EXPECT_EQ(directionLines(t1, "rx"), directionLines(t3, "rx"));
    EXPECT_EQ(tx1, tx3);
    EXPECT_EQ(rx1, rx3);

    // A different seed draws different corrupt masks: different
    // delivered bytes, different delivered-byte hashes in the trace.
    std::string tx4, rx4;
    const std::string t4 = runScriptedSession(8, 7, &tx4, &rx4);
    EXPECT_NE(t1, t4);
    EXPECT_NE(tx1, tx4);
}

// ---------------------------------------------------------------------
// A checksum-failed v4 segment drops loudly, survives re-push
// ---------------------------------------------------------------------

TEST(FleetFaults, CorruptFooterSegmentDropsLoudlyThenRepushRepairs)
{
    const SimConfig cfg = SimConfig::testConfig();
    const std::string aPath = tempPath("seg_a.csv");
    const std::string bPath = tempPath("seg_b.csv");
    std::remove(aPath.c_str());
    std::remove(bPath.c_str());
    {
        SweepEngine e(aPath);
        e.run({RunRequest{cfg, "FwSoft", "Uncached"}});
    }
    {
        SweepEngine e(bPath);
        e.run({RunRequest{cfg, "FwBN", "CacheR"}});
    }
    const std::string a = readFile(aPath);
    const std::string b = readFile(bPath);
    ASSERT_GT(a.size(), kV4HeaderBytes + kV4FooterBytes);
    ASSERT_EQ(a.compare(0, sizeof(kV4SegMagic), kV4SegMagic,
                        sizeof(kV4SegMagic)),
              0)
        << "expected a v4-format cache";

    // Two distinct-key single-row segments concatenate into one
    // valid two-segment shard file - the shape a worker's
    // checkpoint-append discipline produces.
    const std::string clean = a + b;
    const std::string base = tempPath("seg_base.csv");
    removeCacheFamily(base, 1);
    const std::string shard0 = shardCachePath(base, 0);

    // Flip one byte of the *second* segment's footer checksum: the
    // first segment must survive, the second must drop - counted,
    // never silently.
    std::string damaged = clean;
    damaged[damaged.size() - kV4FooterBytes] ^=
        static_cast<char>(0x5a);
    writeFile(shard0, damaged);

    ShardMergeStats st1 = mergeShardCaches(base, 1);
    EXPECT_EQ(st1.files, 1u);
    EXPECT_EQ(st1.rows, 1u);
    EXPECT_GE(st1.parseErrors, 1u)
        << "a dropped segment must be counted, not silent";
    {
        RunCache probe(base, 8);
        EXPECT_EQ(probe.size(), 1u);
    }

    // Re-push the clean file (what FleetClient::pushShard's
    // retransmit delivers) and merge again: the lost row comes
    // back, the surviving one dedupes.
    writeFile(shard0, clean);
    ShardMergeStats st2 = mergeShardCaches(base, 1);
    EXPECT_EQ(st2.rows, 1u);
    EXPECT_EQ(st2.duplicates, 1u);
    EXPECT_EQ(st2.parseErrors, 0u);

    // Byte-identical to a merge that never saw the damage.
    const std::string base2 = tempPath("seg_base2.csv");
    removeCacheFamily(base2, 1);
    writeFile(shardCachePath(base2, 0), clean);
    mergeShardCaches(base2, 1);
    const std::string wantBytes = readFile(base2);
    ASSERT_FALSE(wantBytes.empty());
    EXPECT_EQ(readFile(base), wantBytes);

    std::remove(aPath.c_str());
    std::remove(bPath.c_str());
    removeCacheFamily(base, 1);
    removeCacheFamily(base2, 1);
}

// ---------------------------------------------------------------------
// Connect failure surfaces the underlying OS error
// ---------------------------------------------------------------------

TEST(FleetFaultsDeathTest, ConnectFailureNamesTheOsError)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FleetClientOptions opts;
    opts.connectAttempts = 2;
    opts.connectDelayMs = 1;

    // A unix endpoint with no socket file: the final fatal must say
    // *why* (ENOENT), not just "could not reach".
    const std::string missing = tempPath("no_such.sock");
    std::remove(missing.c_str());
    EXPECT_EXIT({ FleetClient c(missing, 0, 1, opts); },
                ::testing::ExitedWithCode(1),
                "No such file or directory");

    // A TCP port that just stopped listening: ECONNREFUSED, by name.
    EXPECT_EXIT(
        {
            Listener probe;
            probe.bind(parseEndpoint("tcp:127.0.0.1:0"));
            const std::string target = probe.bound().spec();
            probe.stop();
            FleetClient c(target, 0, 1, opts);
        },
        ::testing::ExitedWithCode(1), "Connection refused");
}

// ---------------------------------------------------------------------
// SIGKILL + takeover over TCP with no shared shard files
// ---------------------------------------------------------------------

TEST(FleetFaults, TcpSigkilledWorkerPlusTakeoverMatchesSolo)
{
#ifdef MIGC_FLEET_TSAN
    GTEST_SKIP() << "fork + threads is unsupported under TSan";
#endif
    const auto grid = smallGrid();
    const std::uint64_t hash = gridFingerprint(grid);
    ASSERT_FALSE(soloBytes().empty());

    const std::string coord = tempPath("kill_coord.csv");
    const std::string w0 = tempPath("kill_w0.csv");
    const std::string w1 = tempPath("kill_w1.csv");
    removeCacheFamily(coord, 2);
    removeCacheFamily(w0, 2);
    removeCacheFamily(w1, 2);

    FleetPlan plan = planFleetSweep(grid, coord, 2, false);
    FleetServer server("tcp:127.0.0.1:0",
                       FleetQueue(plan.costs, plan.pending,
                                  FleetConfig{1, 500}),
                       hash);
    server.setShardStore(coord);

    // Fork the victim *before* the server spawns any thread; the
    // kernel-chosen port is only known after start(), so it travels
    // to the single-threaded child over a pipe.
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(pipefd[1]);
        std::string spec;
        char c;
        while (::read(pipefd[0], &c, 1) == 1 && c != '\n')
            spec.push_back(c);
        ::close(pipefd[0]);
        SweepEngine engine(w0, FleetWorkerSpec{0});
        engine.setInjectedRunDelayMs(200);
        FleetClientOptions opts;
        opts.gridSize = grid.size();
        opts.push = true;
        FleetClient client(spec, 0, hash, opts);
        engine.runFleet(grid, client, 1);
        _exit(0);
    }
    ::close(pipefd[0]);
    server.start();
    const std::string specLine =
        server.boundEndpoint().spec() + "\n";
    ASSERT_EQ(::write(pipefd[1], specLine.data(), specLine.size()),
              static_cast<ssize_t>(specLine.size()));
    ::close(pipefd[1]);

    // Push-before-done means a stored push is proof the victim both
    // checkpointed and uploaded at least one row. Then kill it dead
    // mid-lease.
    bool pushed = false;
    for (int i = 0; i < 3000 && !pushed; ++i) {
        pushed = server.pushesStored() > 0;
        if (!pushed)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(pushed) << "worker 0 never pushed a shard";
    EXPECT_TRUE(WIFSIGNALED(status));

    // The survivor takes over on the same TCP endpoint: the
    // victim's lease expires (500 ms), its keys requeue, the grid
    // drains.
    {
        SweepEngine engine(w1, FleetWorkerSpec{1});
        FleetClientOptions opts;
        opts.gridSize = grid.size();
        opts.push = true;
        FleetClient client(server.boundEndpoint().spec(), 1, hash,
                           opts);
        engine.runFleet(grid, client, 1);
    }
    EXPECT_TRUE(server.drained());
    server.stop();

    // Merge only the coordinator's *store* - the workers' own cache
    // files are deleted first, so nothing can leak through a shared
    // filesystem. Keys the victim pushed but never reported get
    // re-run by the survivor and dedupe byte-identically.
    removeCacheFamily(w0, 2);
    removeCacheFamily(w1, 2);
    mergeShardCaches(coord, 2);
    EXPECT_EQ(readFile(coord), soloBytes());
    removeCacheFamily(coord, 2);
}
