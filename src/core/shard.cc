#include "core/shard.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/cache_v4.hh"
#include "core/sweep_engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace migc
{

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

    // Every input is opened (and a non-v4 one refused) before
    // anything is written or removed. Input order is priority order:
    // the canonical file, then shards 0..N-1.
    struct Input
    {
        std::string path;
        std::unique_ptr<const V4SegmentFile> file;
        bool shard; ///< counts toward the merge stats
    };
    ShardMergeStats stats;
    std::vector<Input> inputs;
    inputs.push_back(
        Input{base, std::make_unique<const V4SegmentFile>(base), false});
    for (unsigned i = 0; i < shards; ++i) {
        std::string path = shardCachePath(base, i);
        auto file = std::make_unique<const V4SegmentFile>(path);
        if (!file->exists())
            continue; // a worker whose slice was fully cached
        // A zero-length shard (a worker SIGKILLed before its first
        // checkpoint) is consumed as an empty input.
        stats.files += 1;
        inputs.push_back(Input{std::move(path), std::move(file), true});
    }

    // The runs of the k-way walk: every valid segment of every input,
    // in input order and then file order. Fragmented files (appended
    // checkpoints, pushed mid-run copies) and torn ones (a damaged
    // tail, counted and dropped) take the same walk as compacted ones.
    using MergeKey = V4SegmentView::KeyStrings;
    struct Run
    {
        const Input *input;
        const V4SegmentView *seg;
        std::uint64_t next;
        MergeKey head;
    };
    std::vector<Run> runs;
    std::size_t total = 0;
    for (const Input &in : inputs) {
        const V4SegmentFile &file = *in.file;
        if (!file.damage().empty()) {
            stats.parseErrors += in.shard ? 1 : 0;
            warn("sweep cache %s: damaged v4 segment at byte %zu (%s); "
                 "merging only its earlier segments",
                 in.path.c_str(), file.damagedAt(),
                 file.damage().c_str());
        }
        for (const V4SegmentView &seg : file.segments()) {
            if (seg.rowCount > 0)
                runs.push_back(Run{&in, &seg, 0, seg.keyAt(0)});
            total += seg.rowCount;
        }
    }

    // A min-heap of runs by (head key, run index): the top is the
    // earliest run holding the smallest key, which wins it; every
    // other run whose head is that key loses its copy.
    auto after = [&runs](std::size_t a, std::size_t b) {
        return std::tie(runs[a].head, a) > std::tie(runs[b].head, b);
    };
    std::vector<std::size_t> heap(runs.size());
    std::iota(heap.begin(), heap.end(), std::size_t{0});
    std::make_heap(heap.begin(), heap.end(), after);
    auto popRun = [&] {
        std::pop_heap(heap.begin(), heap.end(), after);
        const std::size_t r = heap.back();
        heap.pop_back();
        return r;
    };
    auto advance = [&](std::size_t r) {
        Run &run = runs[r];
        if (++run.next < run.seg->rowCount) {
            run.head = run.seg->keyAt(run.next);
            heap.push_back(r);
            std::push_heap(heap.begin(), heap.end(), after);
        }
    };

    std::vector<V4RowRef> out;
    out.reserve(total);
    std::size_t canonical_conflicts = 0;
    while (!heap.empty()) {
        const std::size_t w = popRun();
        const Run &win = runs[w];
        const MergeKey key = win.head;
        const auto &[sig, workload, policy] = key;
        const V4Row &wrow = win.seg->rows[win.next];
        out.push_back(V4RowRef{sig, workload, policy, wrow});
        stats.rows += win.input->shard ? 1 : 0;
        // Each run is sorted unique, so the winner's next key is
        // larger and cannot surface among this key's losers.
        advance(w);
        while (!heap.empty() && runs[heap.front()].head == key) {
            const std::size_t l = popRun();
            const Run &lose = runs[l];
            const V4Row &lrow = lose.seg->rows[lose.next];
            // Bitwise equality is the common deterministic case; on a
            // mismatch the serialized forms decide, so a bit pattern
            // that formats identically (e.g. -0.0 vs 0.0) still
            // counts as a duplicate.
            if (std::memcmp(&lrow, &wrow, sizeof(V4Row)) == 0 ||
                csvRow(workload, policy, lrow) ==
                    csvRow(workload, policy, wrow)) {
                stats.duplicates += lose.input->shard ? 1 : 0;
            } else if (!lose.input->shard) {
                // Only an earlier canonical segment can beat a
                // canonical row: keep the first, as a load would.
                ++canonical_conflicts;
            } else {
                fatal("shard cache %s: row for %s/%s conflicts with "
                      "%s for the same (config, workload, policy) - "
                      "the shards did not run the same deterministic "
                      "sweep; refusing to merge (inputs left on "
                      "disk)",
                      lose.input->path.c_str(),
                      std::string(workload).c_str(),
                      std::string(policy).c_str(),
                      win.input->path.c_str());
            }
            advance(l);
        }
    }
    if (canonical_conflicts > 0) {
        warn("sweep cache %s: %zu row%s conflict with earlier rows for "
             "the same key (kept the earlier rows)",
             base.c_str(), canonical_conflicts,
             canonical_conflicts == 1 ? "" : "s");
    }

    // The shard inputs are only consumed once the canonical file is
    // safely on disk; a failed write (full disk, unwritable
    // directory) must not cost the workers their results.
    std::string error;
    fatal_if(!writeFileAtomic(base, buildV4Segment(out), &error),
             "could not write merged cache %s (%s); shard inputs left "
             "on disk",
             base.c_str(), error.c_str());
    for (const Input &in : inputs) {
        if (in.shard)
            std::remove(in.path.c_str());
    }
    return stats;
}

FleetPlan
planPending(const std::vector<RunRequest> &requests,
            const std::vector<std::string> &sigs, const RunCache &cache)
{
    FleetPlan plan;
    plan.costs.assign(requests.size(), 0.0);
    std::set<std::tuple<std::string_view, std::string_view,
                        std::string_view>>
        seen;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunRequest &req = requests[i];
        if (cache.find(sigs[i], req.workload, req.policy) != nullptr) {
            ++plan.cached;
            continue;
        }
        // Duplicate grid points run (and lease) once; the result
        // answers every copy.
        if (!seen.emplace(sigs[i], req.workload, req.policy).second)
            continue;
        // A prior run of the pair is the best predictor of length;
        // failing that, the simulated footprint is a stable proxy.
        double est = cache.estimateEvents(req.workload, req.policy);
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
    std::size_t resumed = 0;
    if (!cache.empty()) {
        probe.mergeFile(cache);
        const std::size_t before = probe.size();
        for (unsigned i = 0; resume && i < shards; ++i)
            probe.mergeFile(shardCachePath(cache, i));
        resumed = probe.size() - before;
    }

    std::vector<std::string> sigs;
    sigs.reserve(requests.size());
    for (const RunRequest &req : requests)
        sigs.push_back(req.cfg.signature());
    FleetPlan plan = planPending(requests, sigs, probe);
    plan.resumedRows = resumed;
    return plan;
}

} // namespace migc
