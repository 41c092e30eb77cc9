/**
 * @file
 * The process-wide sweep engine: every bench/figure/ablation binary
 * submits (SimConfig, workload, policy) run requests here instead of
 * rolling its own parallelFor loop.
 *
 * Three mechanisms make multi-config grids cheap:
 *
 *  - RunCache: one on-disk namespace holds results for *many*
 *    configurations at once, keyed by (cfg.signature(), workload,
 *    policy). Ablation grids and the paper-scale sweep coexist in
 *    one file, a config change no longer discards foreign results,
 *    and checkpoints are amortized (every K completions + on flush)
 *    instead of rewriting the whole file after every run.
 *
 *  - Cost-model scheduler: missing runs are dispatched longest-job-
 *    first, using simulator event counts from prior cached runs of
 *    the same (workload, policy) - falling back to a workload-size
 *    heuristic - which removes the FIFO tail-straggler problem.
 *    Scheduling only reorders execution; results depend solely on
 *    (cfg, workload, policy) (see runNamedWorkload), so any
 *    MIGC_JOBS value is bit-identical.
 *
 *  - System reuse: each worker keeps its System alive between runs
 *    and re-runs on it via System::reset() whenever the next run's
 *    config is structurally equal, so PacketPool chunks, the event
 *    heap, tag/DBI storage, and DRAM bank state stay warm instead of
 *    being reconstructed per run.
 *
 * A fourth mechanism scales past one process: a fleet-worker engine
 * (FleetWorkerSpec) simulates the grid points a coordinator leases it
 * (runFleet, fleet.hh), writing them to a private per-shard cache
 * file; the coordinator (bench/migc_sweep) merges the shard files
 * into the canonical cache at join, byte-identical to a
 * single-process sweep (shard.hh).
 */

#ifndef MIGC_CORE_SWEEP_ENGINE_HH
#define MIGC_CORE_SWEEP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/metrics.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"

namespace migc
{

class System;
class FleetClient;

/**
 * The canonical cache path a default-constructed engine uses:
 * empty when MIGC_NO_CACHE=1, else MIGC_SWEEP_CACHE, else
 * "mi_sweep_cache.csv". The single source of truth for tools (like
 * bench/migc_sweep) that must agree with the figure binaries on
 * where the cache lives.
 */
std::string sweepCachePathFromEnv();

/**
 * The two serializations of a row set. RunCache reads, writes,
 * appends and merges only v4; csv exists solely as an exportFile()
 * target.
 *
 *  - v4: binary columnar segments (cache_v4.hh) - interned sorted
 *    keys, fixed-width metric columns, checksummed footers, mmap'd
 *    zero-copy serving, O(fresh) checkpoint appends.
 *  - csv: the v3 text format, byte-identical to what pre-v4 builds
 *    wrote - for diffing, grep, and foreign tooling
 *    (`migc_sweep --export`).
 */
enum class CacheFormat
{
    v4,
    csv,
};

/** One grid point: run @p workload under @p policy on @p cfg. */
struct RunRequest
{
    SimConfig cfg;
    std::string workload;
    std::string policy;
};

/**
 * Stable fingerprint of a request grid: a hash over every run key in
 * order, plus the count. A fleet coordinator and its workers build
 * the grid independently from identical flags; leases then carry
 * plain indices into that vector, and this fingerprint (sent with
 * every `lease` request) is what catches a worker whose flags built
 * a different grid before it misinterprets a single index.
 */
std::uint64_t gridFingerprint(const std::vector<RunRequest> &requests);

/**
 * Tag selecting SweepEngine's fleet-worker constructor: the engine's
 * one cache is the private shardCachePath(cache, index) file, and the
 * coordinator's leases decide what it runs. The worker never reads
 * the canonical file - the coordinator's plan leases only keys it
 * lacks.
 */
struct FleetWorkerSpec
{
    /** This worker's index: names its shard cache file and
     *  identifies it in the coordinator's accounting. */
    unsigned index = 0;
};

/**
 * Multi-config on-disk result store.
 *
 * On disk the cache is a v4 binary columnar file (cache_v4.hh)
 * holding rows for any number of configuration signatures. Rows of
 * signatures that belong to some other configuration are preserved
 * across save cycles, so binaries with different configs can share
 * one cache path without clobbering each other. v4 is the only
 * format a RunCache reads: a non-empty file that is not v4 (a v3/v2
 * text cache from an older build, or anything unrecognized) is
 * refused with a fatal error naming `migc_sweep --convert`, the
 * one-shot text import (importTextCache), and is left untouched. A
 * missing or zero-length file is an empty cache.
 *
 * Durability is two-tier. checkpoint() appends only the rows
 * inserted since the last durable write - one small segment at the
 * end of the file, O(fresh) bytes, which is what the amortized
 * insert checkpointing and the fleet's checkpoint-before-done
 * contract use; a sweep writing N rows costs O(N) total bytes
 * instead of the O(N^2) of rewriting the file at every checkpoint.
 * flush()/saveNow() compact: one canonical sorted rewrite via
 * tmp+rename, so the *final* file bytes are a pure function of the
 * row set - identical across job counts, steal schedules, and
 * crash/resume histories - and a once-appended file never stays
 * fragmented past the next flush. A torn append (crash mid-write)
 * is detected on load by the footer checksum, costs only the torn
 * rows, and is cleaned up by the next compaction.
 *
 * An empty path disables disk I/O; results are then memoized in
 * memory only (the MIGC_NO_CACHE=1 behavior).
 *
 * Internally the cache is a row log plus one sorted index: rows land
 * in a deque whose elements never move, so row pointers handed out by
 * find()/insert() stay valid for the cache's lifetime, and the index
 * keeps them in canonical (signature, workload, policy) order - the
 * order save(), exportFile() and snapshot() serialize. snapshot()
 * returns the canonical single-segment v4 image of the rows, the
 * same bytes a compacting save writes, as an immutable CacheSnapshot
 * that any number of threads can query with no locking (see
 * cache_snapshot.hh and docs/SERVE.md).
 *
 * The mutating API is not internally synchronized: the owning engine
 * serializes writers. Published snapshots are safe to read from
 * anywhere.
 */
class RunCache
{
  public:
    explicit RunCache(std::string path,
                      std::size_t checkpoint_interval = 8);

    /** Same as the two-argument form; @p format must be v4 (fatal
     *  otherwise). Kept only for existing callers that still name
     *  the format. */
    RunCache(std::string path, std::size_t checkpoint_interval,
             CacheFormat format);

    /** Flushes pending results (best effort). */
    ~RunCache();

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    bool enabled() const { return !path_.empty(); }

    /** What the initial load found on disk: "v4", or "none" for a
     *  missing/empty file (any other file was refused). Operator-
     *  facing (migc_serve stats). */
    const char *loadedFormatName() const;

    /** What one mergeFile() call found in its input. */
    struct MergeStats
    {
        /** Rows merged in under keys not previously held. */
        std::size_t rows = 0;

        /** Rows identical to one already held (deduplicated). */
        std::size_t duplicates = 0;

        /** Rows differing from the held row for the same key. The
         *  held row wins; the caller decides how loud to be. */
        std::size_t conflicts = 0;

        /** Damaged input this cache had not seen before: a v4
         *  segment that fails validation (remembered per file and
         *  offset, so re-reading the same damaged file - e.g. at a
         *  checkpoint save - counts each loss once), or one
         *  unparseable importTextCache() line. */
        std::size_t parseErrors = 0;
    };

    /**
     * Union another v4 cache file into memory without writing
     * anything; rows already held win. This is how the fleet
     * coordinator's plan reads the canonical cache and, on resume,
     * the partial shard files (shard.hh). A missing or zero-length
     * file merges zero rows; a non-v4 file is fatal, like a non-v4
     * file at this cache's own path.
     */
    MergeStats mergeFile(const std::string &path);

    /**
     * Distinct damaged segments seen across the initial load, every
     * explicit mergeFile(), and the pre-write merge of each save -
     * corrupted or torn cache bytes whose results were lost.
     * Surfaced in the sweep summary line so a truncated cache
     * cannot silently masquerade as a cold one.
     */
    std::size_t parseErrors() const { return parseErrors_; }

    /**
     * Compact the file now even if nothing is pending (merge join).
     * @return false when the file could not be written or moved
     * into place (callers that consume other files on the strength
     * of this write - the coordinator merge - must check).
     */
    bool saveNow();

    /**
     * Write the current contents to @p path in @p format (tmp +
     * rename; this cache's own file and state are untouched unless
     * @p path aliases it, which only a v4 write may - csv text at
     * the cache's own path is fatal, since no RunCache could load
     * it back). The CSV export is byte-identical to the v3 file a
     * pure-text pipeline would have written for the same rows.
     */
    bool exportFile(const std::string &path, CacheFormat format);

    /** Result for (sig, workload, policy), or nullptr. Stable. */
    const RunMetrics *find(const std::string &sig,
                           const std::string &workload,
                           const std::string &policy) const;

    /**
     * Record a completed run under @p sig (first write wins). The
     * file is checkpointed (appended to) after every
     * checkpoint_interval inserts; call flush() when a sweep
     * finishes. Fatal on rows the cache cannot round-trip:
     * workload/policy names containing v3 metacharacters (',', line
     * breaks, leading '#' - they would reload as parse errors and
     * the result would be silently lost; see sim/names.hh).
     * @return the stored row (stable reference).
     */
    const RunMetrics &insert(const std::string &sig, RunMetrics m);

    /**
     * Make every in-memory row durable cheaply: append the rows
     * inserted since the last durable write to the end of the file
     * as one v4 segment (O(fresh) bytes), falling back to a full
     * compacting save when the file cannot take an append (torn
     * tail, first write). This is the fleet worker's
     * checkpoint-before-done primitive; the file stays fragmented
     * until the next flush()/saveNow() compacts it.
     */
    void checkpoint();

    /**
     * The current contents as an immutable snapshot: one in-memory
     * image holding the canonical v4 segment of every row, the bytes
     * a compacting save would write. Safe for concurrent lock-free
     * reads and independent of this cache's later inserts or
     * destruction. O(rows) to build; cheap when nothing was added
     * since the last call (returns the held snapshot).
     */
    std::shared_ptr<const CacheSnapshot> snapshot();

    /**
     * Scheduler cost estimate for (workload, policy): the largest
     * sim_events recorded for the pair under *any* signature (a run
     * of the same pair on a nearby config is the best predictor of
     * length). 0 when the pair has never been seen.
     */
    double estimateEvents(const std::string &workload,
                          const std::string &policy) const;

    /** Compact the file now if any unpersisted rows or un-compacted
     *  appends exist, so a finished sweep always leaves the one
     *  canonical byte representation of its row set. */
    void flush();

    /** Total rows across all sections (tests / introspection). */
    std::size_t size() const;

  private:
    /** (workload, policy) as views into the indexed row's own
     *  names, which never move (see log_). */
    using RowKey = std::pair<std::string_view, std::string_view>;

    /** One config section: its rows, sorted by (workload, policy). */
    using Section = std::map<RowKey, const RunMetrics *>;

    /** Sections by config signature, sorted. */
    using Index = std::map<std::string, Section, std::less<>>;

    /** What the on-disk file currently is, as far as appends care:
     *  only a clean file takes appends; a damaged one forces the
     *  next durable write to compact. */
    enum class FileState
    {
        absent,  ///< missing or empty
        clean,   ///< v4, no damaged tail seen
        damaged, ///< torn v4 tail, or an append failed partway
    };

    void load();

    /**
     * Union the v4 file @p path into memory; rows already held in
     * memory win. Fatal on a non-empty file that is not v4. Shared
     * by load(), mergeFile(), and save()'s pre-write merge -
     * the latter is what lets concurrently running binaries share
     * one cache path: each writer unions the other's finished
     * sections instead of clobbering them with its own load-time
     * snapshot. @p classify_collisions distinguishes duplicates
     * from conflicts by re-serializing both rows; save()'s
     * self-merge turns it off because there nearly every row
     * collides (with this process's own prior checkpoint) and the
     * classification would dominate checkpoint cost.
     */
    MergeStats mergeFromFile(const std::string &path,
                             bool classify_collisions = true);

    /** Merge one parsed v4 segment. @p durable marks rows already in
     *  this cache's own file. */
    void mergeV4Segment(const struct V4SegmentView &seg,
                        bool classify_collisions, bool durable,
                        MergeStats &stats);

    /** Shared warning text for merge problems found in @p path. */
    static void warnMergeProblems(const std::string &path,
                                  const MergeStats &stats);

    /** Compacting rewrite: pre-merge the file, then write every row
     *  via tmp+rename. @return true when the file reached disk (or
     *  I/O is off). */
    bool save();

    /** Every row in canonical order as @p format: one v4 segment,
     *  or v3 csv text. */
    std::string serialize(CacheFormat format) const;

    /** Write serialize(@p format) to @p path via tmp+rename. */
    bool writeTo(const std::string &path, CacheFormat format) const;

    /** Append pendingAppend_ as one v4 segment at the end of the
     *  file. @return false when the write failed (the
     *  caller falls back to save()). */
    bool appendPending();

    /** Where (workload, policy) sits in @p section: the held entry,
     *  or the insertion hint. Keys arriving in canonical order hit
     *  the end of the section without a search. */
    static Section::iterator locate(Section &section,
                                    const RowKey &key);

    /** Append @p m to the row log and index it in @p section at
     *  @p hint (from locate(); the key must be absent). @p durable
     *  marks rows that are already bytes in this cache's own file
     *  (initial load / pre-write merge) and therefore never need
     *  appending. @return the stored row. */
    const RunMetrics *appendRow(Index::iterator section,
                                Section::iterator hint, RunMetrics m,
                                bool durable);

    std::string path_;
    std::size_t checkpointInterval_;
    std::size_t unsaved_ = 0;
    std::size_t parseErrors_ = 0;

    /** See FileState. */
    FileState fileState_ = FileState::absent;

    /** True when the initial load found a v4 file (loadedFormatName). */
    bool loadedFile_ = false;

    /** Rows inserted/merged since the last durable write of this
     *  file, in arrival order: exactly what checkpoint() appends.
     *  Signatures view index_ keys. */
    std::vector<std::pair<std::string_view, const RunMetrics *>>
        pendingAppend_;

    /** True when checkpoint() appended since the last compaction,
     *  so flush() knows the file needs its canonical rewrite even
     *  if nothing is pending. */
    bool appendedSinceCompact_ = false;

    /** (source path, segment offset, reason) triples already counted
     *  as parse errors: re-reading the same damaged file dedupes,
     *  while the same damage in two different shard files still
     *  counts twice. */
    std::set<std::string> badLines_;

    /** Every row this cache ever learned (from disk or insert()),
     *  in arrival order. A deque never relocates elements, so row
     *  pointers - and the index's views of row names - stay valid. */
    std::deque<RunMetrics> log_;

    /** The one index over log_. */
    Index index_;

    /** snapshot()'s image of the current rows; reset by every
     *  appendRow(). */
    std::shared_ptr<const CacheSnapshot> snapshot_;
};

/**
 * The one-shot text import behind `migc_sweep --cache X --convert`:
 * union the v3 text cache (or legacy single-config v2 file) at
 * @p path into @p into, rows already held winning, so the caller
 * can write it back out as v4 (RunCache::exportFile). Meant for a
 * memory-only @p into. Nothing else reads text; a RunCache refuses
 * it.
 *
 * A v3 file is one section per configuration signature:
 *
 *   # migc-sweep-v3
 *   # config <signature>
 *   <csv header>
 *   <RunMetrics rows>
 *   # config <signature'>
 *   ...
 *
 * A v2 file imports as one section under the old-format signature
 * on its tag line: its rows are preserved, but never served, because
 * the old signature format aliased structurally different configs
 * (see kCacheTagV2 in sweep_engine.cc). Each line that does not
 * parse as a row counts as one parse error; an empty file imports
 * zero rows. Fatal when @p path cannot be read, is already v4, or
 * carries no v3/v2 tag.
 */
RunCache::MergeStats importTextCache(const std::string &path,
                                     RunCache &into);

/**
 * Shared run scheduler + cache. Construct once per process (the
 * default constructor reads MIGC_SWEEP_CACHE / MIGC_NO_CACHE) and
 * route every simulation request through it.
 */
class SweepEngine
{
  public:
    /** Cache path from the environment, like the figure binaries:
     *  MIGC_SWEEP_CACHE / MIGC_NO_CACHE (sweepCachePathFromEnv). */
    SweepEngine();

    /** Explicit cache path (empty disables the on-disk cache). Tests
     *  and library users get hermetic behavior. */
    explicit SweepEngine(std::string cache_path);

    /**
     * Fleet-worker engine (see FleetWorkerSpec): its one cache is the
     * private shard cache of @p fleet.index - the canonical file at
     * @p cache_path is never read - so the shard file holds only this
     * worker's own rows, and runFleet() simulates exactly what the
     * coordinator leases.
     */
    SweepEngine(std::string cache_path, FleetWorkerSpec fleet);

    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /**
     * Result for one grid point; simulates on first use. The
     * reference stays valid for the engine's lifetime.
     */
    const RunMetrics &get(const SimConfig &cfg,
                          const std::string &workload,
                          const std::string &policy);

    /**
     * Ensure every request is available, simulating the missing ones
     * across the worker pool (@p jobs threads; 0 = MIGC_JOBS /
     * hardware default), longest-estimated-job-first.
     * @return metrics in request order.
     */
    std::vector<RunMetrics> run(const std::vector<RunRequest> &requests,
                                unsigned jobs = 0);

    /** What one runFleet() session amounted to (worker side). */
    struct FleetRunStats
    {
        std::uint64_t runs = 0;     ///< keys simulated here
        std::uint64_t hits = 0;     ///< keys answered from cache
        std::uint64_t stale = 0;    ///< completions a peer beat
        std::uint64_t leases = 0;   ///< leases taken
    };

    /**
     * Fleet-worker main loop: lease run-key ranges from @p client
     * until the coordinator reports the grid drained, simulating
     * each leased index of @p requests on up to @p jobs threads
     * (0 = MIGC_JOBS / hardware default). Every completed run is
     * checkpointed to the shard cache *before* it is reported done,
     * so a worker killed at any instant leaves every reported key on
     * disk - the crash-safety half of the lease protocol. Keys the
     * coordinator stole (observed at renew) are skipped without
     * simulating.
     */
    FleetRunStats runFleet(const std::vector<RunRequest> &requests,
                           FleetClient &client, unsigned jobs = 0);

    /**
     * Testing/CI knob: sleep this long after every simulated run,
     * making this worker an artificial straggler so steal/expiry
     * paths trigger deterministically on fast grids. Sleeping never
     * changes metrics - only wall clock.
     */
    void setInjectedRunDelayMs(unsigned ms) { slowMs_ = ms; }

    /** Persist any un-checkpointed results now. */
    void flush();

    /**
     * Immutable snapshot of the engine's cache (RunCache::snapshot):
     * its canonical v4 image, safe for concurrent lock-free queries
     * and valid independent of later engine activity. migc_serve
     * (src/serve/) starts from this image when its cache file cannot
     * be mapped.
     */
    std::shared_ptr<const CacheSnapshot> snapshot();

    /** The cache's on-disk format at load ("v4", or "none"
     *  for a missing/empty file; any other file is refused); loads
     *  the cache if this engine has not touched it yet. Operator-
     *  facing (migc_serve stats). */
    const char *cacheFileFormat() const;

    /** Simulations actually executed (cache misses). */
    std::uint64_t simulationsPerformed() const { return sims_.load(); }

    /** Requests answered from the cache without simulating. */
    std::uint64_t cacheHits() const { return hits_.load(); }

    /** Unparseable cache rows seen by the underlying RunCache. */
    std::size_t cacheParseErrors() const;

  private:
    struct Job
    {
        const RunRequest *req;
        std::string sig;
        double estimate;
        std::size_t submitOrder;
    };

    /**
     * Execute one job on @p sys, reusing it via System::reset() when
     * its structure key matches, rebuilding it otherwise.
     */
    RunMetrics runJob(const Job &job, std::unique_ptr<System> &sys,
                      std::string &sys_structure);

    /**
     * The engine's one cache, constructed (and its file loaded) on
     * first touch. The laziness is what lets migc_serve answer its
     * first queries from an mmap'd snapshot without this engine
     * ever parsing the file - the cache materializes only when the
     * first cold miss needs it. Caller holds mu_ (or is a
     * constructor/destructor).
     */
    RunCache &cache() const;

    mutable std::mutex mu_;

    /** Resolved path cache() opens (fleet workers: their private
     *  shard file). */
    std::string cachePath_;

    /** See cache(). */
    mutable std::unique_ptr<RunCache> cachePtr_;

    /** Injected per-run straggler delay (setInjectedRunDelayMs). */
    unsigned slowMs_ = 0;

    std::atomic<std::uint64_t> sims_{0};
    std::atomic<std::uint64_t> hits_{0};
};

} // namespace migc

#endif // MIGC_CORE_SWEEP_ENGINE_HH
