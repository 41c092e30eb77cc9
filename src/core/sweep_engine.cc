#include "core/sweep_engine.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>

#include <chrono>
#include <condition_variable>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/names.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace migc
{

namespace
{

/** v3: multi-config sections, one per signature. */
constexpr const char *kCacheTagV3 = "# migc-sweep-v3";

/** Section separator inside a v3 file. */
constexpr const char *kSectionTag = "# config ";

/**
 * v2: single-config files written before the multi-config cache; the
 * signature follows the tag on the same line. v2 rows are PRESERVED
 * (imported as a section keyed by that old-format signature, carried
 * across rewrites like any foreign section) but never served:
 * current lookups use the new signature format, which embeds a hash
 * of every structural parameter precisely because the old format
 * aliased structurally different configs (it ignored ablation axes
 * like L1 associativity and DBI rows) - serving an old row could
 * return a different machine's result. Nothing is silently lost;
 * stale-but-inspectable beats wrong.
 */
constexpr const char *kCacheTagV2 = "# migc-sweep-v2 ";

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

std::string
sweepCachePathFromEnv()
{
    const char *no_cache = std::getenv("MIGC_NO_CACHE");
    if (no_cache && no_cache[0] == '1')
        return "";
    const char *path = std::getenv("MIGC_SWEEP_CACHE");
    return path ? path : "mi_sweep_cache.csv";
}

// ---------------------------------------------------------------------
// RunCache
// ---------------------------------------------------------------------

RunCache::RunCache(std::string path, std::size_t checkpoint_interval)
    : path_(std::move(path)),
      checkpointInterval_(checkpoint_interval > 0 ? checkpoint_interval
                                                  : 1)
{
    if (enabled())
        load();
}

RunCache::RunCache(std::string path, std::size_t checkpoint_interval,
                   CacheFormat format)
    : RunCache(std::move(path), checkpoint_interval)
{
    fatal_if(format != CacheFormat::v4,
             "a RunCache reads and writes only v4; csv is an "
             "exportFile() target");
}

RunCache::~RunCache()
{
    flush();
}

const char *
RunCache::loadedFormatName() const
{
    return loadedFile_ ? "v4" : "none";
}

RunCache::MergeStats
RunCache::mergeFromFile(const std::string &path,
                        bool classify_collisions)
{
    MergeStats stats;
    const bool own = path == path_;
    const V4SegmentFile file(path);
    for (const V4SegmentView &seg : file.segments())
        mergeV4Segment(seg, classify_collisions, /*durable=*/own, stats);
    if (!file.damage().empty()) {
        // The damaged tail counts as one parse error, deduped per
        // (file, offset, reason) so a checkpoint's re-read does not
        // recount it.
        const std::string key =
            path + '\n' + csprintf("segment@%zu:%s", file.damagedAt(),
                                   file.damage().c_str());
        if (badLines_.insert(key).second) {
            ++stats.parseErrors;
            ++parseErrors_;
        }
        warn("sweep cache %s: damaged v4 segment at byte %zu "
             "(%s); keeping only its earlier segments",
             path.c_str(), file.damagedAt(), file.damage().c_str());
    }
    if (own) {
        // A damaged tail must not take appends: a fresh segment
        // after garbage would be unreachable (readers stop at the
        // first damaged segment), so the next durable write compacts
        // instead.
        fileState_ = file.bytes() == 0           ? FileState::absent
                     : !file.damage().empty() ? FileState::damaged
                                              : FileState::clean;
    }
    return stats;
}

void
RunCache::mergeV4Segment(const V4SegmentView &seg,
                         bool classify_collisions, bool durable,
                         MergeStats &stats)
{
    // A segment is sorted by (sig, workload, policy): consecutive rows
    // share a section and, loading into an empty cache, land at its
    // end - so a compacted file's one big segment indexes without a
    // single per-row search, and lookups use the segment's own views
    // without copying a name.
    Index::iterator section = index_.end();
    std::uint32_t section_sig = 0;
    for (std::uint64_t i = 0; i < seg.rowCount; ++i) {
        const V4Key &k = seg.keys[i];
        if (section == index_.end() || k.sig != section_sig) {
            const std::string_view sig = seg.str(k.sig);
            section = index_.find(sig);
            if (section == index_.end())
                section = index_.emplace(std::string(sig), Section{}).first;
            section_sig = k.sig;
        }
        const RowKey key{seg.str(k.workload), seg.str(k.policy)};
        const Section::iterator pos = locate(section->second, key);
        const bool held =
            pos != section->second.end() && pos->first == key;
        if (held && !classify_collisions) {
            ++stats.duplicates;
            continue;
        }
        const V4Row &row = seg.rows[i];
        if (!held) {
            appendRow(section, pos,
                      RunMetrics{row, std::string(key.first),
                                 std::string(key.second)},
                      durable);
            ++stats.rows;
        } else if (pos->second->toCsv() ==
                   csvRow(key.first, key.second, row)) {
            // The serialized forms decide, the same dup/conflict test
            // as the text import and the k-way shard merge.
            ++stats.duplicates;
        } else {
            ++stats.conflicts;
        }
    }
}

void
RunCache::warnMergeProblems(const std::string &path,
                            const MergeStats &stats)
{
    if (stats.parseErrors > 0) {
        warn("sweep cache %s: ignored %zu unparseable row%s "
             "(corrupted file or stale schema?)",
             path.c_str(), stats.parseErrors,
             stats.parseErrors == 1 ? "" : "s");
    }
    if (stats.conflicts > 0) {
        warn("sweep cache %s: %zu row%s conflict with rows already "
             "in memory for the same key (kept the in-memory rows)",
             path.c_str(), stats.conflicts,
             stats.conflicts == 1 ? "" : "s");
    }
}

RunCache::MergeStats
RunCache::mergeFile(const std::string &path)
{
    MergeStats stats = mergeFromFile(path);
    warnMergeProblems(path, stats);
    return stats;
}

void
RunCache::load()
{
    mergeFile(path_);
    loadedFile_ = fileState_ != FileState::absent;
}

bool
RunCache::save()
{
    if (!enabled())
        return true;
    // Union the file's current state first so two binaries sweeping
    // different configs against one cache path preserve each other's
    // freshly finished sections instead of racing whole-file
    // snapshots (a write between our merge and rename can still
    // lose, but the next writer's merge re-converges). Rows another
    // writer corrupted in the meantime are about to be dropped by
    // the rewrite, so they must be counted and warned about here -
    // this is the last time they are visible anywhere. Collision
    // classification is off: nearly every row in our own file
    // collides with the copy already in memory, and in-memory wins
    // regardless.
    warnMergeProblems(path_,
                      mergeFromFile(path_,
                                    /*classify_collisions=*/false));
    if (!writeTo(path_, CacheFormat::v4))
        return false;
    pendingAppend_.clear();
    appendedSinceCompact_ = false;
    fileState_ = FileState::clean;
    return true;
}

bool
RunCache::exportFile(const std::string &path, CacheFormat format)
{
    const bool own = enabled() && path == path_;
    fatal_if(own && format != CacheFormat::v4,
             "refusing to overwrite sweep cache %s with csv text (a "
             "RunCache reads only v4); export to another path",
             path.c_str());
    if (!writeTo(path, format))
        return false;
    if (own) {
        // The export just compacted our own file.
        pendingAppend_.clear();
        appendedSinceCompact_ = false;
        fileState_ = FileState::clean;
    }
    return true;
}

std::string
RunCache::serialize(CacheFormat format) const
{
    if (format == CacheFormat::v4) {
        std::vector<V4RowRef> rows;
        rows.reserve(log_.size());
        for (const auto &[sig, section] : index_) {
            for (const auto &[key, m] : section) {
                rows.push_back(V4RowRef{sig, key.first, key.second, *m});
            }
        }
        return buildV4Segment(rows);
    }
    // v3 text, byte-identical to what the pre-v4 writer produced for
    // the same rows.
    std::string out = kCacheTagV3;
    out += '\n';
    for (const auto &[sig, section] : index_) {
        out += kSectionTag;
        out += sig;
        out += '\n';
        out += RunMetrics::csvHeader();
        out += '\n';
        for (const auto &[key, m] : section) {
            out += m->toCsv();
            out += '\n';
        }
    }
    return out;
}

bool
RunCache::writeTo(const std::string &path, CacheFormat format) const
{
    std::string error;
    if (writeFileAtomic(path, serialize(format), &error))
        return true;
    warn("could not write sweep cache %s: %s", path.c_str(),
         error.c_str());
    return false;
}

bool
RunCache::appendPending()
{
    // Canonical order *within* the segment keeps it binary-
    // searchable (buildV4Segment requires it); order across segments
    // is the file's append history, and the next compaction restores
    // the one global canonical order.
    std::vector<V4RowRef> refs;
    refs.reserve(pendingAppend_.size());
    for (const auto &[sig, row] : pendingAppend_)
        refs.push_back(
            V4RowRef{sig, row->workload, row->policy, *row});
    std::sort(refs.begin(), refs.end(),
              [](const V4RowRef &a, const V4RowRef &b) {
                  return std::tie(a.sig, a.workload, a.policy) <
                         std::tie(b.sig, b.workload, b.policy);
              });
    const std::string chunk = buildV4Segment(refs);

    std::FILE *f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr)
        return false;
    bool ok =
        std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok)
        return false;
    pendingAppend_.clear();
    appendedSinceCompact_ = true;
    return true;
}

void
RunCache::checkpoint()
{
    unsaved_ = 0;
    if (!enabled() || pendingAppend_.empty())
        return;
    const bool appendable = fileState_ == FileState::clean;
    if (appendable && appendPending())
        return;
    if (appendable) {
        // The append failed partway; the tail is suspect, so only a
        // compacting rewrite may touch the file from here on.
        fileState_ = FileState::damaged;
    }
    save();
}

RunCache::Section::iterator
RunCache::locate(Section &section, const RowKey &key)
{
    if (section.empty() || std::prev(section.end())->first < key)
        return section.end();
    return section.lower_bound(key);
}

const RunMetrics *
RunCache::appendRow(Index::iterator section, Section::iterator hint,
                    RunMetrics m, bool durable)
{
    log_.push_back(std::move(m));
    const RunMetrics *row = &log_.back();
    section->second.emplace_hint(hint, RowKey{row->workload, row->policy},
                                 row);
    if (!durable && enabled())
        pendingAppend_.emplace_back(section->first, row);
    snapshot_.reset();
    return row;
}

const RunMetrics *
RunCache::find(const std::string &sig, const std::string &workload,
               const std::string &policy) const
{
    auto sit = index_.find(sig);
    if (sit == index_.end())
        return nullptr;
    auto rit = sit->second.find(RowKey{workload, policy});
    return rit == sit->second.end() ? nullptr : rit->second;
}

const RunMetrics &
RunCache::insert(const std::string &sig, RunMetrics m)
{
    checkCacheName("workload", m.workload);
    checkCacheName("policy", m.policy);
    fatal_if(m.workload == "workload",
             "workload name 'workload' cannot key the run cache: its "
             "rows would start with the CSV header prefix "
             "\"workload,\" and be skipped on reload");
    auto section = index_.find(sig);
    if (section == index_.end())
        section = index_.emplace(sig, Section{}).first;
    const RowKey key{m.workload, m.policy};
    const Section::iterator pos = locate(section->second, key);
    if (pos != section->second.end() && pos->first == key)
        return *pos->second; // first write wins
    const RunMetrics *stored =
        appendRow(section, pos, std::move(m), /*durable=*/false);
    // Amortized durability: every K inserts, append the fresh rows
    // to the file (O(fresh) bytes - NOT a whole-file rewrite, which
    // would make an N-row sweep cost O(N^2) checkpoint bytes).
    if (++unsaved_ >= checkpointInterval_)
        checkpoint();
    return *stored;
}

std::shared_ptr<const CacheSnapshot>
RunCache::snapshot()
{
    if (snapshot_ == nullptr) {
        std::string why;
        auto image = MappedCacheV4::fromBytes(
            serialize(CacheFormat::v4), &why);
        panic_if(image == nullptr, "run cache built an invalid v4 "
                 "image: %s", why.c_str());
        snapshot_ = CacheSnapshot::fromImages({std::move(image)});
    }
    return snapshot_;
}

double
RunCache::estimateEvents(const std::string &workload,
                         const std::string &policy) const
{
    double best = 0.0;
    for (const auto &[sig, section] : index_) {
        auto it = section.find(RowKey{workload, policy});
        if (it != section.end() && it->second->simEvents > best)
            best = it->second->simEvents;
    }
    return best;
}

void
RunCache::flush()
{
    // Compact when anything is pending OR the file holds appended
    // segments: the flushed file must be the one canonical byte
    // representation of the row set. A cache that only ever *read*
    // its file (warm replay) has neither and skips the rewrite.
    if (!pendingAppend_.empty() || appendedSinceCompact_) {
        save();
        unsaved_ = 0;
    }
}

bool
RunCache::saveNow()
{
    bool ok = save();
    unsaved_ = 0;
    return ok;
}

std::size_t
RunCache::size() const
{
    return log_.size();
}

RunCache::MergeStats
importTextCache(const std::string &path, RunCache &into)
{
    RunCache::MergeStats stats;
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot read text cache %s", path.c_str());
    std::string line;
    // Scan past blank lines for the format tag; running out of lines
    // first means the file is empty.
    for (;;) {
        if (!std::getline(in, line))
            return stats;
        if (!line.empty() && line != "\r")
            break;
    }

    std::string sig;
    bool in_section = false;
    if (startsWith(line, kCacheTagV2)) {
        // Whole legacy file becomes one preserved-but-unserved
        // section under its old-format signature (see kCacheTagV2).
        sig = line.substr(std::strlen(kCacheTagV2));
        in_section = true;
    } else {
        fatal_if(line.size() >= sizeof(kV4SegMagic) &&
                     isV4Magic(line.data()),
                 "%s is already a v4 cache; nothing to convert",
                 path.c_str());
        fatal_if(line != kCacheTagV3,
                 "%s is not a v3/v2 text cache (no format tag on its "
                 "first line)",
                 path.c_str());
        // Sections follow; rows before the first "# config" line
        // (there should be none) are ignored.
    }

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (startsWith(line, kSectionTag)) {
            sig = line.substr(std::strlen(kSectionTag));
            in_section = true;
            continue;
        }
        if (line[0] == '#' || startsWith(line, "workload,"))
            continue; // comment / csv header
        RunMetrics m;
        // Names the cache could not key (empty, padded) are damage
        // too: insert() would refuse them.
        if (!in_section || !RunMetrics::fromCsv(line, m) ||
            !cacheNameSafe(m.workload) || !cacheNameSafe(m.policy)) {
            ++stats.parseErrors;
            continue;
        }
        // Rows already held win; for a key both sides hold,
        // determinism says the values must be identical, so an
        // actual difference is worth counting.
        const RunMetrics *held = into.find(sig, m.workload, m.policy);
        if (held == nullptr) {
            into.insert(sig, std::move(m));
            ++stats.rows;
        } else if (held->toCsv() == m.toCsv()) {
            ++stats.duplicates;
        } else {
            ++stats.conflicts;
        }
    }
    return stats;
}

std::uint64_t
gridFingerprint(const std::vector<RunRequest> &requests)
{
    // Chain the per-key hashes so order matters: leases are indices
    // into the vector, and two grids with the same keys in a
    // different order are NOT interchangeable.
    std::uint64_t h = fnv1a("migc-fleet-grid") ^
                      splitmix64(requests.size());
    for (const RunRequest &req : requests) {
        h = splitmix64(h ^ runKeyHash(req.cfg.signature(),
                                      req.workload, req.policy));
    }
    return h;
}

// ---------------------------------------------------------------------
// SweepEngine
// ---------------------------------------------------------------------

SweepEngine::SweepEngine() : SweepEngine(sweepCachePathFromEnv()) {}

SweepEngine::SweepEngine(std::string cache_path)
    : cachePath_(std::move(cache_path))
{}

SweepEngine::SweepEngine(std::string cache_path, FleetWorkerSpec fleet)
    : cachePath_(cache_path.empty()
                     ? cache_path
                     : shardCachePath(cache_path, fleet.index))
{
    if (cache_path.empty())
        warn("fleet worker %u with the cache disabled: its results "
             "stay in memory and cannot be merged",
             fleet.index);
}

RunCache &
SweepEngine::cache() const
{
    if (cachePtr_ == nullptr)
        cachePtr_ = std::make_unique<RunCache>(cachePath_);
    return *cachePtr_;
}

const char *
SweepEngine::cacheFileFormat() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache().loadedFormatName();
}

SweepEngine::~SweepEngine() = default;

std::size_t
SweepEngine::cacheParseErrors() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache().parseErrors();
}

const RunMetrics &
SweepEngine::get(const SimConfig &cfg, const std::string &workload,
                 const std::string &policy)
{
    const std::string sig = cfg.signature();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (const RunMetrics *m = cache().find(sig, workload, policy)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return *m;
        }
    }

    inform("simulating %s under %s ...", workload.c_str(),
           policy.c_str());
    ++sims_;
    RunMetrics m = runNamedWorkload(workload, cfg, policy);

    std::lock_guard<std::mutex> lk(mu_);
    if (const RunMetrics *prior = cache().find(sig, workload, policy)) {
        // Lost a race with another thread simulating the same point;
        // both computed identical metrics, keep the first.
        return *prior;
    }
    const RunMetrics &stored = cache().insert(sig, std::move(m));
    // Interactive single runs are rare and expensive: make each one
    // durable immediately with an O(1)-row append (run()'s batch
    // path amortizes instead).
    cache().checkpoint();
    return stored;
}

RunMetrics
SweepEngine::runJob(const Job &job, std::unique_ptr<System> &sys,
                    std::string &sys_structure)
{
    const RunRequest &req = *job.req;
    const std::uint64_t run_seed =
        runSeedFor(req.cfg, req.workload, req.policy);
    const CachePolicy policy = CachePolicy::fromName(req.policy);

    std::string structure = req.cfg.structureKey();
    if (sys != nullptr && sys_structure == structure) {
        // Same machine, different run: keep every allocation warm.
        sys->reset(policy, run_seed);
    } else {
        SimConfig run_cfg = req.cfg;
        run_cfg.seed = run_seed;
        sys = std::make_unique<System>(run_cfg, policy);
        sys_structure = std::move(structure);
    }

    auto wl = makeWorkload(req.workload);
    sims_.fetch_add(1, std::memory_order_relaxed);
    RunMetrics m = runWorkloadOn(*sys, *wl);
    if (slowMs_ > 0) {
        // Straggler injection (setInjectedRunDelayMs): stretch wall
        // clock only, after the metrics are computed.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(slowMs_));
    }
    return m;
}

std::vector<RunMetrics>
SweepEngine::run(const std::vector<RunRequest> &requests, unsigned jobs)
{
    // Phase 1: split the batch into cached points and costed missing
    // jobs (the same plan a fleet coordinator leases from).
    std::vector<std::string> sigs;
    sigs.reserve(requests.size());
    for (const RunRequest &req : requests)
        sigs.push_back(req.cfg.signature());
    std::vector<Job> missing;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const FleetPlan plan = planPending(requests, sigs, cache());
        hits_.fetch_add(plan.cached, std::memory_order_relaxed);
        for (std::uint32_t i : plan.pending)
            missing.push_back(
                Job{&requests[i], sigs[i], plan.costs[i], i});
    }
    if (!missing.empty()) {
        // Longest-job-first; submission order breaks ties so the
        // schedule is reproducible.
        std::sort(missing.begin(), missing.end(),
                  [](const Job &a, const Job &b) {
                      if (a.estimate != b.estimate)
                          return a.estimate > b.estimate;
                      return a.submitOrder < b.submitOrder;
                  });

        if (jobs == 0)
            jobs = sweepJobs();
        if (static_cast<std::size_t>(jobs) > missing.size())
            jobs = static_cast<unsigned>(missing.size());
        inform("sweeping %zu (workload, policy) runs on %u worker%s "
               "(longest-first) ...",
               missing.size(), jobs, jobs == 1 ? "" : "s");

        std::atomic<std::size_t> next{0};
        std::exception_ptr error;
        std::mutex error_mu;

        auto worker = [&] {
            // Worker-local System, reused across every structurally
            // compatible run this worker executes.
            std::unique_ptr<System> sys;
            std::string sys_structure;
            for (;;) {
                std::size_t k =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (k >= missing.size())
                    return;
                const Job &job = missing[k];
                try {
                    RunMetrics m = runJob(job, sys, sys_structure);
                    std::lock_guard<std::mutex> lk(mu_);
                    cache().insert(job.sig, std::move(m));
                } catch (...) {
                    std::lock_guard<std::mutex> lk(error_mu);
                    if (!error)
                        error = std::current_exception();
                    next.store(missing.size(),
                               std::memory_order_relaxed);
                    return;
                }
            }
        };

        if (jobs <= 1) {
            worker();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(jobs);
            for (unsigned t = 0; t < jobs; ++t)
                pool.emplace_back(worker);
            for (auto &th : pool)
                th.join();
        }
        if (error)
            std::rethrow_exception(error);

        flush();

        // The batch summary: what the sweep actually cost, and - so
        // a truncated cache cannot pass for a cold one - how many
        // cache rows were lost to parse errors.
        std::lock_guard<std::mutex> lk(mu_);
        const std::size_t lost = cache().parseErrors();
        inform("sweep batch done: %zu simulated, %zu cache parse "
               "error%s",
               missing.size(), lost, lost == 1 ? "" : "s");
    }

    // Phase 2: every request is now cached; answer in request order.
    std::vector<RunMetrics> results;
    results.reserve(requests.size());
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunMetrics *m = cache().find(
            sigs[i], requests[i].workload, requests[i].policy);
        panic_if(m == nullptr, "sweep engine lost a result for %s/%s",
                 requests[i].workload.c_str(),
                 requests[i].policy.c_str());
        results.push_back(*m);
    }
    return results;
}

SweepEngine::FleetRunStats
SweepEngine::runFleet(const std::vector<RunRequest> &requests,
                      FleetClient &client, unsigned jobs)
{
    if (jobs == 0)
        jobs = sweepJobs();
    if (jobs == 0)
        jobs = 1;

    FleetRunStats stats;
    std::mutex stats_mu;

    // Leased keys flow through a small channel to a persistent
    // thread pool, so worker Systems stay warm across leases the
    // same way run()'s pool keeps them warm across jobs.
    std::mutex qmu;
    std::condition_variable qcv;   // work arrived / closed
    std::condition_variable idle;  // lease fully processed
    std::deque<std::pair<std::uint64_t, std::uint32_t>> work;
    std::size_t inflight = 0;
    bool closed = false;

    std::exception_ptr error;
    std::mutex error_mu;

    auto processKey = [&](std::uint64_t id, std::uint32_t key,
                          std::unique_ptr<System> &sys,
                          std::string &sys_structure) {
        panic_if(static_cast<std::size_t>(key) >= requests.size(),
                 "fleet lease key %u outside the %zu-point grid",
                 key, requests.size());
        if (!client.ownedNow(id, key))
            return; // stolen (or the lease went stale): not ours
        const RunRequest &req = requests[key];
        const std::string sig = req.cfg.signature();
        // A cached hit is a row already durable in this worker's own
        // shard file (a resumed or re-leased key): the push below
        // carries it like any fresh row.
        bool cached;
        {
            std::lock_guard<std::mutex> lk(mu_);
            cached = cache().find(sig, req.workload, req.policy) !=
                     nullptr;
        }
        if (cached) {
            hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
            Job job{&req, sig, 0.0, key};
            RunMetrics m = runJob(job, sys, sys_structure);
            std::lock_guard<std::mutex> lk(mu_);
            cache().insert(sig, std::move(m));
            // Checkpoint before reporting done: the coordinator
            // retires a key on `done`, so the row must already be
            // durable in the shard cache - this ordering is the
            // whole crash-safety contract. The checkpoint appends
            // the fresh rows (O(fresh) bytes); making every run
            // durable no longer costs a whole-file rewrite per run.
            cache().checkpoint();
        }
        if (client.pushEnabled()) {
            // Push-before-done extends the checkpoint-before-done
            // ordering across hosts: once the coordinator retires
            // this key, its row is already durable *there*. The
            // whole file is read under the engine lock (no
            // checkpoint can land mid-read) and pushes only ever
            // grow, so the last push stored for this shard holds
            // every row reported before it.
            std::string bytes;
            {
                std::lock_guard<std::mutex> lk(mu_);
                std::ifstream in(cachePath_, std::ios::binary);
                if (in) {
                    std::ostringstream ss;
                    ss << in.rdbuf();
                    bytes = ss.str();
                }
            }
            if (!bytes.empty())
                client.pushShard(id, bytes);
        }
        bool fresh = client.done(id, key);
        std::lock_guard<std::mutex> lk(stats_mu);
        if (cached)
            ++stats.hits;
        else
            ++stats.runs;
        if (!fresh)
            ++stats.stale;
    };

    auto workerFn = [&] {
        std::unique_ptr<System> sys;
        std::string sys_structure;
        for (;;) {
            std::pair<std::uint64_t, std::uint32_t> item;
            {
                std::unique_lock<std::mutex> lk(qmu);
                qcv.wait(lk,
                         [&] { return closed || !work.empty(); });
                if (work.empty())
                    return; // closed and drained
                item = work.front();
                work.pop_front();
                ++inflight;
            }
            try {
                processKey(item.first, item.second, sys,
                           sys_structure);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lk(error_mu);
                    if (!error)
                        error = std::current_exception();
                }
                std::lock_guard<std::mutex> lk(qmu);
                work.clear();
                closed = true;
                --inflight;
                qcv.notify_all();
                idle.notify_all();
                return;
            }
            {
                std::lock_guard<std::mutex> lk(qmu);
                --inflight;
            }
            idle.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(workerFn);

    for (;;) {
        {
            std::lock_guard<std::mutex> lk(qmu);
            if (closed)
                break; // a worker hit an error
        }
        FleetGrant grant = client.lease();
        if (grant.kind == FleetGrant::Kind::drained)
            break;
        {
            std::lock_guard<std::mutex> lk(stats_mu);
            ++stats.leases;
        }
        {
            std::lock_guard<std::mutex> lk(qmu);
            for (std::uint32_t key : grant.keys)
                work.emplace_back(grant.id, key);
        }
        qcv.notify_all();
        // One lease at a time: wait for this one to be fully
        // processed (the renewer keeps it alive throughout) before
        // asking for the next, so the coordinator's remaining-cost
        // picture stays honest for steal decisions.
        {
            std::unique_lock<std::mutex> lk(qmu);
            idle.wait(lk, [&] {
                return closed || (work.empty() && inflight == 0);
            });
        }
        client.finishLease();
    }

    {
        std::lock_guard<std::mutex> lk(qmu);
        closed = true;
    }
    qcv.notify_all();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);

    flush();
    return stats;
}

void
SweepEngine::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    // An untouched lazy cache has nothing to flush; constructing it
    // here would force the file parse that mmap-serving avoided.
    if (cachePtr_ != nullptr)
        cachePtr_->flush();
}

std::shared_ptr<const CacheSnapshot>
SweepEngine::snapshot()
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache().snapshot();
}

} // namespace migc
