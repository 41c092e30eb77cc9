#include "core/shard.hh"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include <map>
#include <tuple>

#include "core/cache_v4.hh"
#include "core/sweep_engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace migc
{

namespace
{

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

long
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return -1;
    std::fseek(f, 0, SEEK_END);
    const long n = std::ftell(f);
    std::fclose(f);
    return n;
}

/**
 * The zero-copy coordinator join: when the canonical cache and every
 * non-empty shard file are clean single-segment v4, merge them with
 * one k-way walk over the mapped, already-sorted key columns -
 * no RunCache, no per-row map inserts, no materialized RunMetrics -
 * and write the result as one canonical segment via tmp+rename.
 * Semantics match the sequential merge exactly: earlier inputs win
 * (canonical first, then shard 0..N-1), identical losing rows count
 * as duplicates, a differing row for the same key is fatal before
 * anything is written or removed.
 *
 * @return false (having written nothing) when any input disqualifies
 * the fast path - appended multi-segment files, torn tails, non-v4
 * bytes - so the caller falls back to the general RunCache merge
 * (which refuses non-v4 input loudly).
 */
bool
mergeShardCachesV4(const std::string &base, unsigned shards,
                   ShardMergeStats &stats)
{
    struct Input
    {
        std::string path;
        std::shared_ptr<const MappedCacheV4> file;
        std::size_t next = 0;
        bool shard = false; ///< counts toward stats.rows
    };
    using MergeKey = MappedCacheV4::KeyStrings;

    std::vector<Input> inputs;
    std::vector<std::string> consumed;
    if (fileSize(base) > 0) {
        std::string why;
        auto file = MappedCacheV4::map(base, &why);
        if (file == nullptr)
            return false;
        inputs.push_back(Input{base, std::move(file), 0, false});
    }
    for (unsigned i = 0; i < shards; ++i) {
        const std::string path = shardCachePath(base, i);
        const long bytes = fileSize(path);
        if (bytes < 0)
            continue;
        if (bytes == 0) {
            // A worker SIGKILL'd before its first checkpoint leaves
            // a zero-length file: a legitimate empty cache, merged
            // as zero rows and consumed like any other shard input.
            stats.files += 1;
            consumed.push_back(path);
            continue;
        }
        std::string why;
        auto file = MappedCacheV4::map(path, &why);
        if (file == nullptr)
            return false;
        stats.files += 1;
        consumed.push_back(path);
        inputs.push_back(Input{path, std::move(file), 0, true});
    }

    std::vector<V4RowRef> out;
    {
        std::size_t total = 0;
        for (const Input &in : inputs)
            total += in.file->rows();
        out.reserve(total);
    }
    for (;;) {
        // Smallest live key across the input heads; the earliest
        // input breaks ties, so canonical rows take priority over
        // shard rows - the held-rows-win rule of the sequential
        // merge.
        int winner = -1;
        MergeKey best;
        for (std::size_t j = 0; j < inputs.size(); ++j) {
            const Input &in = inputs[j];
            if (in.next >= in.file->rows())
                continue;
            MergeKey key = in.file->keyAt(in.next);
            if (winner < 0 || key < best) {
                winner = static_cast<int>(j);
                best = key;
            }
        }
        if (winner < 0)
            break;
        Input &win = inputs[winner];
        const V4Row &wrow = win.file->segment().rows[win.next];
        out.push_back(V4RowRef{std::get<0>(best), std::get<1>(best),
                               std::get<2>(best), wrow});
        if (win.shard)
            stats.rows += 1;
        ++win.next;
        // Retire every other input's copy of this key.
        for (std::size_t j = 0; j < inputs.size(); ++j) {
            Input &in = inputs[j];
            if (static_cast<int>(j) == winner ||
                in.next >= in.file->rows() ||
                in.file->keyAt(in.next) != best)
                continue;
            const V4Row &lrow = in.file->segment().rows[in.next];
            // Bitwise equality is the common deterministic case; on
            // a mismatch, fall back to the serialized comparison the
            // sequential merge uses, so a bit pattern that formats
            // identically (e.g. -0.0 vs 0.0) still counts as a
            // duplicate rather than aborting the join.
            if (std::memcmp(&lrow, &wrow, sizeof(V4Row)) == 0 ||
                csvRow(std::get<1>(best), std::get<2>(best), lrow) ==
                    csvRow(std::get<1>(best), std::get<2>(best), wrow)) {
                stats.duplicates += 1;
            } else {
                fatal("shard cache %s: row for %s/%s conflicts with "
                      "%s for the same (config, workload, policy) - "
                      "the shards did not run the same deterministic "
                      "sweep; refusing to merge (inputs left on "
                      "disk)",
                      in.path.c_str(),
                      std::string(std::get<1>(best)).c_str(),
                      std::string(std::get<2>(best)).c_str(),
                      win.path.c_str());
            }
            ++in.next;
        }
    }

    const std::string merged = buildV4Segment(out);
    const std::string tmp = csprintf("%s.%d.tmp", base.c_str(),
                                     static_cast<int>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    bool ok = f != nullptr;
    if (ok) {
        ok = std::fwrite(merged.data(), 1, merged.size(), f) ==
             merged.size();
        ok = (std::fclose(f) == 0) && ok;
    }
    if (ok && std::rename(tmp.c_str(), base.c_str()) != 0)
        ok = false;
    if (!ok) {
        std::remove(tmp.c_str());
        // Same contract as the general path: the shard inputs are
        // only consumed once the canonical file is safely on disk.
        fatal("could not write merged cache %s; shard inputs left "
              "on disk",
              base.c_str());
    }
    for (const std::string &path : consumed)
        std::remove(path.c_str());
    return true;
}

} // namespace

std::uint64_t
runKeyHash(const std::string &sig, const std::string &workload,
           const std::string &policy)
{
    // '\n' cannot appear inside a key component (keys are one-line
    // cache fields), so the concatenation is unambiguous.
    std::string key;
    key.reserve(sig.size() + workload.size() + policy.size() + 2);
    key += sig;
    key += '\n';
    key += workload;
    key += '\n';
    key += policy;
    return fnv1a(key);
}

unsigned
shardOf(const std::string &sig, const std::string &workload,
        const std::string &policy, unsigned shards)
{
    panic_if(shards == 0, "shardOf called with zero shards");
    return static_cast<unsigned>(runKeyHash(sig, workload, policy) %
                                 shards);
}

std::string
shardCachePath(const std::string &base, unsigned index)
{
    return csprintf("%s.shard%u", base.c_str(), index);
}

ShardMergeStats
mergeShardCaches(const std::string &base, unsigned shards)
{
    fatal_if(base.empty(),
             "cannot merge shard caches without a cache path "
             "(MIGC_NO_CACHE sweeps leave nothing to merge)");
    fatal_if(shards < 1, "cannot merge zero shards");

    // Zero-copy k-way fast path: compacted inputs merge over their
    // mapped sorted key columns without parsing a row (falls through
    // to the general path on any fragmented or damaged input).
    {
        ShardMergeStats fast;
        if (mergeShardCachesV4(base, shards, fast))
            return fast;
    }

    // The canonical RunCache loads whatever the file already holds;
    // each shard file then unions in. Conflicting rows abort before
    // anything is rewritten or removed, so the inputs survive for
    // inspection.
    RunCache canonical(base);
    ShardMergeStats stats;
    std::vector<std::string> merged;
    for (unsigned i = 0; i < shards; ++i) {
        const std::string path = shardCachePath(base, i);
        if (!fileExists(path))
            continue;
        RunCache::MergeStats r = canonical.mergeFile(path);
        fatal_if(r.conflicts > 0,
                 "shard cache %s: %zu row%s conflict with rows already "
                 "merged for the same (config, workload, policy) - "
                 "the shards did not run the same deterministic sweep; "
                 "refusing to merge (inputs left on disk)",
                 path.c_str(), r.conflicts, r.conflicts == 1 ? "" : "s");
        stats.files += 1;
        stats.rows += r.rows;
        stats.duplicates += r.duplicates;
        stats.parseErrors += r.parseErrors;
        merged.push_back(path);
    }
    // The shard inputs are only consumed once the canonical file is
    // safely on disk; a failed write (full disk, unwritable
    // directory) must not cost the workers their results.
    fatal_if(!canonical.saveNow(),
             "could not write merged cache %s; shard inputs left on "
             "disk",
             base.c_str());
    for (const std::string &path : merged)
        std::remove(path.c_str());
    return stats;
}

FleetPlan
planFleetSweep(const std::vector<RunRequest> &requests,
               const std::string &cache, unsigned shards, bool resume)
{
    fatal_if(shards < 1, "cannot plan a fleet of zero workers");

    // Memory-only probe cache: union the canonical file (and, on
    // resume, the partial shard files) without ever writing - the
    // shard files must stay on disk untouched until the join merge
    // consumes them.
    RunCache probe{std::string()};
    if (!cache.empty())
        probe.mergeFile(cache);

    FleetPlan plan;
    plan.costs.assign(requests.size(), 0.0);
    if (!cache.empty() && resume) {
        std::size_t before = probe.size();
        for (unsigned i = 0; i < shards; ++i)
            probe.mergeFile(shardCachePath(cache, i));
        plan.resumedRows = probe.size() - before;
    }

    std::map<std::tuple<std::string, std::string, std::string>, bool>
        seen;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunRequest &req = requests[i];
        const std::string sig = req.cfg.signature();
        if (probe.find(sig, req.workload, req.policy) != nullptr) {
            ++plan.cached;
            continue;
        }
        // Duplicate grid points lease (and simulate) once; the
        // result answers every copy at replay time.
        if (!seen.emplace(std::make_tuple(sig, req.workload,
                                          req.policy),
                          true)
                 .second)
            continue;
        double est = probe.estimateEvents(req.workload, req.policy);
        if (est <= 0.0) {
            est = static_cast<double>(
                makeWorkload(req.workload)
                    ->footprintBytes(req.cfg.workloadScale));
        }
        plan.costs[i] = est;
        plan.pending.push_back(static_cast<std::uint32_t>(i));
    }
    return plan;
}

} // namespace migc
