/**
 * @file
 * Shard cache files and the coordinator join of a multi-process
 * sweep.
 *
 * A sweep grid is a set of run keys (config signature, workload,
 * policy). The elastic fleet (fleet.hh, bench/migc_sweep) splits it
 * across worker processes by lease; each worker writes its results to
 * a private per-shard cache file (shardCachePath) using the same
 * atomic tmp+rename discipline as the canonical cache. At join,
 * mergeShardCaches() unions the shard files into the canonical file
 * with one k-way walk over every valid v4 segment, deduplicating
 * identical rows and failing loudly on conflicting rows for the same
 * key (which would mean a nondeterministic simulator or mismatched
 * sweeps - never something to paper over). The merged file is one
 * canonical segment, byte-identical to the one a single-process
 * sweep would have written (pinned by tests/test_shard.cc,
 * tests/test_fleet.cc, and a CI spot-check).
 */

#ifndef MIGC_CORE_SHARD_HH
#define MIGC_CORE_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

// parseBoundedUnsigned - the shared validator behind MIGC_JOBS and
// migc_sweep's count flags - lives in sim/env.hh so the sim-layer
// thread pool can use it too; it is re-exported here for the fleet
// callers that reach it through this header.
#include "sim/env.hh"

namespace migc
{

/**
 * Stable 64-bit hash of one run key. Depends only on the three key
 * strings (FNV-1a over their concatenation), so it is identical
 * across processes, architectures of the same width, and runs.
 */
std::uint64_t runKeyHash(const std::string &sig,
                         const std::string &workload,
                         const std::string &policy);

/**
 * The key's slot in [0, shards) under a static hash partition;
 * shards must be >= 1. Only the fleetStaticMakespan replay model
 * (fleet.hh) uses it, as the static owner assignment the lease
 * schedule is compared against.
 */
unsigned shardOf(const std::string &sig, const std::string &workload,
                 const std::string &policy, unsigned shards);

/** The private cache file for shard @p index of canonical @p base. */
std::string shardCachePath(const std::string &base, unsigned index);

/** What a coordinator merge accomplished. */
struct ShardMergeStats
{
    /** Shard files found, merged, and removed. */
    std::size_t files = 0;

    /** Rows newly added to the canonical cache. */
    std::size_t rows = 0;

    /** Identical rows present in more than one input (deduplicated). */
    std::size_t duplicates = 0;

    /** Shard files whose tail was damaged (each counts once; the
     *  segments before the damage still merge). */
    std::size_t parseErrors = 0;
};

/**
 * Coordinator join step: union every existing shard file of @p base
 * (indices [0, shards)) into the canonical file at @p base, then
 * delete the merged shard files.
 *
 * One k-way walk does it, without parsing a row into a RunCache. Its
 * runs are every valid segment of every input (V4SegmentFile): the
 * canonical file first, then shards 0..N-1, each file's segments in
 * file order; the earliest run holding a key wins it. So compacted,
 * fragmented (appended checkpoints) and torn (damaged tail) shards
 * all merge the same way. Identical rows for the same key
 * deduplicate. A shard row that differs from the row it loses to is
 * fatal, before anything is written or removed; two differing rows
 * inside the canonical file warn and keep the first. A non-v4 input
 * is fatal (naming `migc_sweep --convert`) with every input left
 * untouched. Missing shard files are skipped (a shard whose slice
 * was fully cached writes nothing new); zero-length ones are
 * consumed as empty.
 */
ShardMergeStats mergeShardCaches(const std::string &base,
                                 unsigned shards);

struct RunRequest; // core/sweep_engine.hh
class RunCache;    // core/sweep_engine.hh

/**
 * What a scheduler knows before the first run: which grid indices
 * still need simulating, and what each one is expected to cost.
 * Built by planPending(); a fleet coordinator leases from it
 * (planFleetSweep) and SweepEngine::run() dispatches from it.
 */
struct FleetPlan
{
    /** Grid indices with no cached row yet (deduplicated; served
     *  longest-estimate-first). */
    std::vector<std::uint32_t> pending;

    /** Scheduler cost estimate per pending grid index (see
     *  planPending); 0 for the others. */
    std::vector<double> costs;

    /** Grid points the planned-against cache already holds (on a
     *  fleet resume, partial shard files included). */
    std::size_t cached = 0;

    /** Rows recovered from partial shard files (resume only). */
    std::size_t resumedRows = 0;
};

/**
 * The scheduler's cost ladder over one batch, shared by
 * SweepEngine::run() and planFleetSweep(). A grid point @p cache
 * holds counts as cached. Every other point is pending once (a
 * repeated point runs once, at its first index), costed at the
 * largest sim_events @p cache recorded for the same (workload,
 * policy) under any config, else at the workload-footprint
 * heuristic. Costs only ever order runs, never change them.
 * @p sigs holds the requests' config signatures, in request order.
 */
FleetPlan planPending(const std::vector<RunRequest> &requests,
                      const std::vector<std::string> &sigs,
                      const RunCache &cache);

/**
 * The coordinator's resume-aware grid scan: load the canonical cache
 * at @p cache (memory-only - nothing is written), plus, when
 * @p resume is set, every existing partial shard file of it (left on
 * disk; the join merge consumes them later), then classify each of
 * @p requests as cached or pending and estimate pending costs
 * (planPending).
 * `--resume` is exactly this with the shard files folded in: only
 * the keys a crashed fleet never checkpointed come back pending.
 */
FleetPlan planFleetSweep(const std::vector<RunRequest> &requests,
                         const std::string &cache, unsigned shards,
                         bool resume);

} // namespace migc

#endif // MIGC_CORE_SHARD_HH
