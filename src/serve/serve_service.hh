/**
 * @file
 * ServeService: the warm-cache query service behind bench/migc_serve.
 *
 * The service wraps one SweepEngine and serves its results to any
 * number of concurrent clients:
 *
 *  - Reads are lock-free: clients query an immutable CacheSnapshot
 *    (cache_snapshot.hh) loaded from one atomic shared_ptr. A
 *    snapshot is never mutated; queries touch no engine lock.
 *
 *  - Cold points fall through to simulate-on-miss: the first `get`
 *    of an uncached grid point enqueues exactly one simulation job
 *    and returns immediately ('# miss ... simulation enqueued'); a
 *    single background worker runs jobs through SweepEngine::get,
 *    then publishes a new snapshot and swaps the atomic pointer, so
 *    the next query is a warm hit. `wait` blocks until the queue
 *    drains.
 *
 *  - The served set is the start image plus this service's own
 *    fills. The start image is the mapped cache file, or the
 *    engine's canonical image when the file is not mappable; each
 *    publish layers one delta image, rebuilt from the fills, over it
 *    (the start image wins a shared key), so a publish costs
 *    O(fills), never O(cache). Every served row is byte-identical to
 *    the csv export line of the same row; rows another writer adds
 *    to the cache file after startup are not served.
 *
 * handleLine() is safe to call from any number of threads (the
 * socket front end runs one thread per connection).
 */

#ifndef MIGC_SERVE_SERVE_SERVICE_HH
#define MIGC_SERVE_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "core/cache_snapshot.hh"
#include "core/sweep_engine.hh"
#include "serve/serve_protocol.hh"

namespace migc
{

class ServeService
{
  public:
    struct Options
    {
        /** When false, cold points answer '# miss' without ever
         *  enqueueing a simulation (pure warm-cache mode). */
        bool simulate = true;

        /**
         * The cache file backing @p engine. When set and the file is
         * a clean single-segment v4 cache, the service starts on the
         * mapped file (cache_v4.hh): serving begins after a map +
         * checksum pass instead of a full parse, and the engine's
         * own loader runs only if a cold miss needs a simulation.
         * Unset - or any non-mappable file - starts on
         * engine.snapshot(), which parses the cache.
         */
        std::string cachePath;
    };

    /** Serve @p engine's results. The engine must outlive the
     *  service. */
    explicit ServeService(SweepEngine &engine);
    ServeService(SweepEngine &engine, Options opts);

    /** Drains nothing: pending misses are abandoned (their rows are
     *  still cached by the engine if they finished). */
    ~ServeService();

    ServeService(const ServeService &) = delete;
    ServeService &operator=(const ServeService &) = delete;

    /**
     * Answer one protocol line (serve_protocol.hh). Returns the full
     * response, every line '\n'-terminated; empty for blank/comment
     * input. Thread-safe; `wait` blocks the calling client only.
     */
    std::string handleLine(const std::string &line);

    /** Block until every enqueued miss has simulated + published. */
    void drain();

    /** Result rows returned to clients (hits, not misses). */
    std::uint64_t served() const { return served_.load(); }

    /** Simulation jobs enqueued by cold `get`s (each cold grid
     *  point counts exactly once; repeats join the pending job). */
    std::uint64_t missEnqueues() const { return enqueued_.load(); }

    /** How the initial serving snapshot came to be: "v4-mmap" for a
     *  zero-copy mapped start, else the cache file's parsed format
     *  ("v4", or "none" for a missing/empty file; a non-v4 file is
     *  refused at startup). */
    const std::string &snapshotFormat() const { return format_; }

    /** Wall time the initial snapshot took (map+checksum or full
     *  parse), in milliseconds. */
    double loadMs() const { return loadMs_; }

    /** Rows in the currently served snapshot. */
    std::size_t snapshotRows() const { return snapshot_.load()->rows(); }

  private:
    /** (sig, workload, policy) - one grid point. */
    using PointKey = std::tuple<std::string, std::string, std::string>;

    /** A pending simulate-on-miss job. */
    struct MissJob
    {
        SimConfig cfg;
        std::string workload;
        std::string policy;
        PointKey key;
    };

    std::string handleGet(const ServeRequest &req);
    std::string handleMatch(const ServeRequest &req);
    std::string handleStats();

    /** Resolve a config token: preset name or exact signature with a
     *  known preset config. Returns nullptr when no SimConfig is
     *  known for it (still serveable from the snapshot by sig). */
    const SimConfig *configFor(const std::string &token,
                               std::string &sig_out) const;

    /** The background simulate-on-miss worker loop. */
    void missWorker();

    SweepEngine &engine_;
    Options opts_;

    /** See snapshotFormat() / loadMs(). Set once in the ctor. */
    std::string format_;
    double loadMs_ = 0.0;

    /** Preset configs by name and by signature. */
    std::map<std::string, SimConfig> presets_;
    std::map<std::string, std::string> sigToPreset_;

    /** The snapshot the service started on; every publish layers
     *  the fills over its images. Set once in the ctor. */
    std::shared_ptr<const CacheSnapshot> start_;

    /** This service's own simulate-on-miss results (memory-only);
     *  its snapshot() is the delta image of each publish. Touched
     *  only by the miss worker. */
    RunCache fills_{std::string()};

    /** The serving surface; load() to query, store() to publish. */
    std::atomic<std::shared_ptr<const CacheSnapshot>> snapshot_;

    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> enqueued_{0};

    /** Miss queue state, all guarded by missMu_. */
    std::mutex missMu_;
    std::condition_variable missCv_;  ///< signals the worker
    std::condition_variable drainCv_; ///< signals drain() waiters
    std::deque<MissJob> queue_;
    std::set<PointKey> pending_; ///< queued or in flight
    bool stop_ = false;

    /** Snapshot publications by the miss worker and the wall time of
     *  the latest one (guarded by missMu_; stats reporting). */
    std::uint64_t publishes_ = 0;
    double lastPublishMs_ = 0.0;

    std::thread worker_;
};

} // namespace migc

#endif // MIGC_SERVE_SERVE_SERVICE_HH
