/**
 * @file
 * The elastic shard fleet: the lease-based work queue behind every
 * multi-process sweep.
 *
 * A static split of the grid (say, by a stable key hash) is correct
 * and coordinator-free, but one slow or crashed worker owns its slice
 * forever, so the sweep makespan is the straggler's wall clock. In
 * the fleet a coordinator owns the ordered run-key list
 * (longest-estimated-job-first) and workers lease small ranges of it
 * over a socket (AF_UNIX or TCP, see serve/transport.hh), writing
 * their results to per-worker shard cache files the coordinator
 * merges at join (shard.hh), so assignment follows measured progress
 * instead of a fork-time guess.
 *
 * Three mechanisms bound the makespan:
 *
 *  - Leases, not ownership. A lease is a short list of grid indices
 *    with a renew deadline. Workers report each completion (`done`),
 *    renew in the background, and come back for more when the lease
 *    drains - a fast worker simply takes more leases.
 *
 *  - Work stealing. When the pending queue is empty but leases are
 *    outstanding, an idle worker's `lease` request shrinks the lease
 *    of the slowest peer (the one with the most remaining estimated
 *    cost) and grants the stolen tail, so no worker idles while
 *    another still holds more than one key.
 *
 *  - Crash-safe expiry. A worker that misses its renew deadline
 *    (SIGKILL, hang, dropped socket) has its remaining keys silently
 *    requeued. Its finished rows are already checkpointed in its
 *    `.shard<i>` cache, and re-execution of an unreported key is
 *    byte-identical (the run-identity contract), so the coordinator
 *    merge dedupes any overlap - a killed worker costs only its
 *    unleased tail.
 *
 * FleetQueue is the deterministic core: no clock, no socket, no
 * thread - every call takes `now` in milliseconds, so unit tests
 * replay lease/steal/expiry schedules exactly. FleetServer wraps it
 * in a socket front end (serve_protocol verbs `lease`/`done`/
 * `renew`/`stats`, plus `push`/`fetch` when a shard store is
 * attached); FleetClient is the worker side used by
 * SweepEngine::runFleet.
 *
 * Multi-host fleets need two more things than the single-host
 * original: a TCP endpoint (`tcp:<host>:<port>` instead of a socket
 * path - both sides parse the spec through serve/transport.hh) and a
 * way to move shard cache files without a shared filesystem. The
 * `push` verb uploads a worker's whole `.shard<i>` file to the
 * coordinator (cache_v4-checksummed; the coordinator stores it
 * tmp+rename at the canonical shardCachePath, so the drain-time
 * merge and `--resume` see exactly the files a local fleet would
 * have written), and `fetch` streams a stored copy back so a
 * restarted worker resumes from its own pre-crash checkpoint.
 * Workers push *before* each `done` - the same checkpoint-before-
 * report ordering that makes local crashes safe extends verbatim to
 * the no-shared-FS case.
 *
 * FleetClient treats the connection as disposable: any transport
 * error, torn frame, or reply that fails validation drops the
 * socket, reconnects, and retransmits (bounded; then fatal with the
 * last error). Every verb is idempotent under retry - a duplicated
 * `done` is counted stale, a re-pushed file overwrites byte-identical
 * content, an orphaned lease expires - which is what the
 * fault-injection suite (tests/test_fleet_faults.cc) leans on.
 *
 * The pure makespan-model functions at the bottom replay measured
 * per-run costs through static-vs-stealing fleets;
 * bench/micro_substrate records them (fleet_steal_makespan) and CI
 * gates the ratio.
 */

#ifndef MIGC_CORE_FLEET_HH
#define MIGC_CORE_FLEET_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/transport.hh"

namespace migc
{

struct ServeRequest; // serve/serve_protocol.hh

/** Tuning for a fleet sweep; the coordinator's flags land here. */
struct FleetConfig
{
    /** Keys granted per lease. Small leases keep the steal
     *  granularity fine; the per-lease round trip is microseconds
     *  against multi-millisecond runs. */
    std::size_t leaseSize = 2;

    /** Renew deadline in ms. A lease not renewed (or advanced by a
     *  `done`) within this window is presumed dead and requeued.
     *  Workers renew every renewMs/3 from a background thread, so
     *  the deadline only fires for crashed or wedged workers. */
    std::uint64_t renewMs = 10000;
};

/** What one `lease` request came back with. */
struct FleetGrant
{
    enum class Kind
    {
        work,    ///< keys granted (possibly stolen from a peer)
        wait,    ///< nothing grantable now; retry after waitMs
        drained, ///< every key is complete; the worker may exit
    };

    Kind kind = Kind::wait;
    std::uint64_t id = 0;      ///< lease id (work only)
    std::uint64_t renewMs = 0; ///< renew deadline for this lease
    std::uint64_t waitMs = 0;  ///< retry hint (wait only)
    bool stolen = false;       ///< carved from a peer's lease
    std::vector<std::uint32_t> keys; ///< grid indices, cost-desc
};

/** Per-worker accounting surfaced in the join summary. */
struct FleetWorkerStats
{
    std::uint64_t runs = 0;      ///< keys this worker completed
    std::uint64_t leases = 0;    ///< leases granted to it
    std::uint64_t steals = 0;    ///< ...of which were stolen tails
    std::uint64_t expired = 0;   ///< leases it lost to the deadline
    std::uint64_t staleDones = 0; ///< completions another worker beat
    std::uint64_t firstMs = 0;   ///< first contact (coordinator clock)
    std::uint64_t lastMs = 0;    ///< last contact

    double wallSeconds() const
    {
        return lastMs > firstMs ? (lastMs - firstMs) / 1000.0 : 0.0;
    }
};

/**
 * The deterministic lease queue. Not internally synchronized and
 * clockless: callers pass `now` (milliseconds on any monotonic
 * clock) into every operation, so FleetServer can wrap it in one
 * mutex and tests can replay any schedule bit-exactly.
 */
class FleetQueue
{
  public:
    /**
     * @p costs holds the scheduler estimate for every grid index
     * (size = grid size); @p pending lists the indices that still
     * need simulating (the plan step already dropped cached keys).
     * Pending keys are served longest-estimate-first, ties by index.
     */
    FleetQueue(std::vector<double> costs,
               std::vector<std::uint32_t> pending, FleetConfig cfg);

    /**
     * Grant work to @p worker: pending keys if any remain, else a
     * tail stolen from the outstanding lease with the most remaining
     * estimated cost (when it still holds >1 key), else `wait`;
     * `drained` once every key is complete.
     */
    FleetGrant lease(unsigned worker, std::uint64_t now);

    /**
     * Worker @p worker finished grid index @p key under lease @p id.
     * A completion is accepted even when the lease has expired or
     * the key was stolen and re-leased elsewhere - the row is
     * already checkpointed in the worker's shard cache and
     * re-execution is byte-identical, so the first completion wins
     * and later ones are counted stale. @return true when this call
     * retired the key.
     */
    bool done(unsigned worker, std::uint64_t id, std::uint32_t key,
              std::uint64_t now);

    struct Renewal
    {
        /** False when the lease no longer exists (expired or fully
         *  consumed); the worker should discard its remaining keys
         *  and request a fresh lease. */
        bool ok = false;

        /** The authoritative remaining key set: anything the worker
         *  holds that is absent here was stolen. */
        std::vector<std::uint32_t> keys;
    };

    /** Extend lease @p id's deadline to now + renewMs. */
    Renewal renew(unsigned worker, std::uint64_t id, std::uint64_t now);

    /** Requeue every lease whose deadline passed. Called internally
     *  by lease/done/renew; public so a coordinator can tick it. */
    void expire(std::uint64_t now);

    /** True once every key has been completed. */
    bool drained() const { return completedCount_ == totalKeys_; }

    std::size_t totalKeys() const { return totalKeys_; }
    std::size_t completedCount() const { return completedCount_; }
    std::size_t pendingCount() const { return pending_.size(); }
    std::size_t activeLeases() const { return leases_.size(); }
    std::uint64_t expiredLeases() const { return expired_; }

    const std::map<unsigned, FleetWorkerStats> &workerStats() const
    {
        return stats_;
    }

    /** Who first completed each key, in completion order - the
     *  deterministic record the accounting and tests read. */
    struct Completion
    {
        std::uint32_t key;
        unsigned worker;
        std::uint64_t lease;
    };

    const std::vector<Completion> &completions() const
    {
        return completions_;
    }

  private:
    struct Lease
    {
        unsigned worker;
        std::uint64_t deadline;
        std::vector<std::uint32_t> keys; ///< grant order (cost desc)
    };

    /** Insert @p key into pending_, keeping cost-desc order. */
    void requeue(std::uint32_t key);

    /** Keys-before ordering: higher estimate first, index breaks
     *  ties so the schedule is reproducible. */
    bool keyBefore(std::uint32_t a, std::uint32_t b) const;

    void markCompleted(std::uint32_t key, unsigned worker,
                       std::uint64_t lease_id);

    FleetWorkerStats &touch(unsigned worker, std::uint64_t now);

    FleetConfig cfg_;
    std::vector<double> costs_;
    std::vector<std::uint32_t> pending_;
    std::vector<bool> completed_;
    std::size_t totalKeys_ = 0;
    std::size_t completedCount_ = 0;
    std::map<std::uint64_t, Lease> leases_;
    std::uint64_t nextLease_ = 1;
    std::uint64_t expired_ = 0;
    std::map<unsigned, FleetWorkerStats> stats_;
    std::vector<Completion> completions_;
};

/** Milliseconds on the process-wide monotonic clock (the `now` the
 *  socket layer feeds FleetQueue). */
std::uint64_t fleetNowMs();

/**
 * Socket front end over one FleetQueue: binds a stream socket
 * (unix:<path>, tcp:<host>:<port>, or a bare AF_UNIX path - see
 * serve/transport.hh), accepts any number of workers, and answers
 * the `lease`/`done`/`renew`/`stats` verbs of the serve protocol
 * (serve_protocol.hh), one request line per response. With a shard
 * store attached (setShardStore) it also answers `push` (store a
 * checksummed shard cache upload at the canonical shardCachePath)
 * and `fetch` (stream a stored file back). All queue access is
 * serialized on one mutex; `handleLine` is also public so tests can
 * drive the line protocol without a socket.
 */
class FleetServer
{
  public:
    /** @p grid_hash fingerprints the coordinator's request grid
     *  (gridFingerprint in sweep_engine.hh); a worker whose `lease`
     *  carries a different hash built a different grid and is
     *  refused rather than handed meaningless indices. */
    FleetServer(std::string endpoint_spec, FleetQueue queue,
                std::uint64_t grid_hash);

    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /**
     * Accept `push` uploads and answer `fetch` downloads, storing
     * shard files at shardCachePath(@p cache_base, worker) with the
     * same tmp+rename discipline the workers themselves use - so
     * the drain-time merge and a later `--resume` find exactly the
     * files a shared-filesystem fleet would have left. Call before
     * start().
     */
    void setShardStore(std::string cache_base);

    /** Bind, listen, and start the accept thread. Fatal on socket
     *  errors (an unreachable coordinator is never worth a silent
     *  single-process fallback). */
    void start();

    /** Close the listener and every connection; join all threads.
     *  Idempotent; the destructor calls it. */
    void stop();

    /** Answer one protocol line (thread-safe). push/fetch are
     *  refused here - their framing needs the connection stream. */
    std::string handleLine(const std::string &line);

    bool drained() const;
    std::map<unsigned, FleetWorkerStats> workerStats() const;
    std::vector<FleetQueue::Completion> completions() const;
    std::size_t pendingCount() const;
    std::uint64_t expiredLeases() const;
    const std::string &socketPath() const { return path_; }

    /** The endpoint actually bound (tcp port 0 resolved); valid
     *  after start(). */
    const Endpoint &boundEndpoint() const { return listener_.bound(); }

    /** Shard files stored via `push` (accounting for the join). */
    std::uint64_t pushesStored() const;

    /** Connections currently being served. A drained coordinator
     *  lingers until this hits zero (bounded) so every worker's
     *  final lease request gets its `# drained` answer instead of a
     *  torn connection. */
    std::size_t liveConnections() const
    {
        return liveConns_.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    void serveConnection(std::shared_ptr<Stream> stream);

    /** Consume the push payload from @p buf + @p stream, verify,
     *  store. False when the connection died mid-payload. */
    bool handlePush(const ServeRequest &req, std::string &buf,
                    Stream &stream, std::string &reply);
    std::string handleFetch(const ServeRequest &req);

    std::string path_;
    mutable std::mutex mu_;
    FleetQueue queue_;
    std::uint64_t gridHash_;

    std::string storeBase_; ///< shard-store cache base ("" = off)
    mutable std::mutex storeMu_;
    std::uint64_t pushesStored_ = 0;

    Listener listener_;
    std::atomic<std::size_t> liveConns_{0};
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<std::shared_ptr<Stream>> connStreams_;
    std::vector<std::thread> connThreads_;
};

/** Knobs for a FleetClient beyond the identity triple. */
struct FleetClientOptions
{
    /** Grid size for reply validation: a lease reply granting a key
     *  at or past this bound is treated as a torn frame and resynced
     *  rather than handed to the engine (0 = no bound known). */
    std::size_t gridSize = 0;

    /** Upload the shard cache (`push`) before each `done`, and let
     *  the engine fetch a stored copy back at startup - the
     *  no-shared-filesystem mode. */
    bool push = false;

    /** Wraps every connected stream; the fault-injection tests
     *  inject FaultyStream here. Identity when empty. */
    StreamWrapper wrap;

    /** Connect retry budget: attempts x delay is how long a worker
     *  waits for the coordinator to bind before giving up. */
    unsigned connectAttempts = 100;
    unsigned connectDelayMs = 100;

    /** Transactions retried across reconnects before fatal. */
    unsigned maxRetries = 8;
};

/**
 * Worker-side protocol client used by SweepEngine::runFleet. One
 * active lease at a time; a background thread renews it every
 * renewMs/3 and refreshes the owned-key set from the reply, so a
 * steal observed at renew time stops the worker before it simulates
 * a stolen key (a missed steal is only wasted work, never a wrong
 * result). All socket transactions are serialized internally.
 *
 * The connection is disposable: any read/write error or reply that
 * fails validation drops it, reconnects, and retransmits the request
 * (every verb is idempotent under retry; see the file comment).
 */
class FleetClient
{
  public:
    /** Connects to @p endpoint_spec (unix:<path>, tcp:<host>:<port>,
     *  or a bare path), retrying for a few seconds so workers may
     *  start before the coordinator binds. Fatal when the
     *  coordinator never appears, naming the last OS error. */
    FleetClient(std::string endpoint_spec, unsigned worker,
                std::uint64_t grid_hash,
                FleetClientOptions opts = FleetClientOptions());

    ~FleetClient();

    FleetClient(const FleetClient &) = delete;
    FleetClient &operator=(const FleetClient &) = delete;

    /** Request work, sleeping through `wait` replies; returns a
     *  `work` or `drained` grant and starts renewing a work grant. */
    FleetGrant lease();

    /** Report a completion. @return false when the coordinator
     *  already counted the key (stale). */
    bool done(std::uint64_t id, std::uint32_t key);

    /** Upload @p bytes (the worker's current shard cache file) under
     *  lease @p id; the coordinator stores it at the canonical
     *  shardCachePath. Retries like every other verb; fatal when the
     *  coordinator repeatedly refuses the frame. */
    void pushShard(std::uint64_t id, const std::string &bytes);

    /** Download the coordinator's stored copy of shard @p shard into
     *  @p dest (tmp+rename). @return false when the coordinator has
     *  no stored file for that shard. */
    bool fetchShard(unsigned shard, const std::string &dest);

    /** Push-before-done mode is on (FleetClientOptions::push). */
    bool pushEnabled() const { return opts_.push; }

    /** Is @p key still this worker's to run under lease @p id? False
     *  once the key was completed, stolen, or the lease went stale. */
    bool ownedNow(std::uint64_t id, std::uint32_t key) const;

    /** Stop renewing the current lease (it is fully processed). */
    void finishLease();

    /** Leases this client was granted (worker-side accounting). */
    std::uint64_t leasesTaken() const { return leasesTaken_; }

  private:
    /** One request line out, one response line back; txnMu_ held. */
    std::string transact(const std::string &line);

    /** transact, then re-transact (reconnect first) until @p valid
     *  accepts the reply or retries run out (fatal). Guards against
     *  torn/duplicated frames desynchronizing request/reply pairing:
     *  an invalid reply means this connection's framing can no
     *  longer be trusted, so resync = new connection. */
    std::string transactValidated(
        const std::string &line,
        const std::function<bool(const std::string &)> &valid);

    /** transact body under txnMu_ with bounded reconnect. */
    std::string transactLocked(const std::string &line);

    /** Read one '\n'-terminated line from stream_ into rxBuf_;
     *  empty on connection loss. txnMu_ held. */
    bool readLineLocked(std::string &line);

    /** Read exactly @p n payload bytes (rxBuf_ first). txnMu_
     *  held. */
    bool readExactLocked(std::string &out, std::size_t n);

    void dropConnectionLocked();
    bool reconnectLocked(std::string *error);

    void renewLoop();

    Endpoint ep_;
    unsigned worker_;
    std::uint64_t gridHash_;
    FleetClientOptions opts_;
    std::uint64_t leasesTaken_ = 0;

    mutable std::mutex txnMu_; ///< serializes socket transactions
    std::unique_ptr<Stream> stream_;
    std::string rxBuf_;

    mutable std::mutex leaseMu_; ///< guards the active-lease state
    std::condition_variable leaseCv_;
    std::uint64_t activeLease_ = 0;
    std::uint64_t renewMs_ = 0;
    std::set<std::uint32_t> owned_;
    bool leaseStale_ = false;
    bool stopRenewer_ = false;
    std::thread renewer_;
};

// ---------------------------------------------------------------------
// Deterministic fleet makespan models
// ---------------------------------------------------------------------

/**
 * Makespan of a static partition: key i runs on worker
 * owners[i]; worker w processes its whole slice at speeds[w] relative
 * speed. Assignment is fixed at fork time, so the makespan is the
 * slowest worker's slice time - the straggler problem the fleet
 * removes.
 */
double fleetStaticMakespan(const std::vector<double> &costs,
                           const std::vector<unsigned> &owners,
                           const std::vector<double> &speeds);

/**
 * Makespan of the work-stealing fleet on the same jobs and speeds:
 * jobs dispatch longest-first, each to the worker that would finish
 * it earliest (the greedy schedule an idle-worker lease/steal loop
 * converges to). Deterministic given (costs, speeds).
 */
double fleetStealMakespan(std::vector<double> costs,
                          const std::vector<double> &speeds);

} // namespace migc

#endif // MIGC_CORE_FLEET_HH
