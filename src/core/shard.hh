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
 * mergeShardCaches() unions the shard files into the canonical file,
 * deduplicating identical rows and failing loudly on conflicting rows
 * for the same key (which would mean a nondeterministic simulator or
 * mismatched sweeps - never something to paper over). Because
 * RunCache serializes sections and rows in sorted order, the merged
 * file is byte-identical to the one a single-process sweep would
 * have written (pinned by tests/test_shard.cc, tests/test_fleet.cc,
 * and a CI spot-check).
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

    /** Unparseable rows skipped across all inputs. */
    std::size_t parseErrors = 0;
};

/**
 * Coordinator join step: union every existing shard file of @p base
 * (indices [0, shards)) into the canonical file at @p base, then
 * delete the merged shard files. Identical rows for the same key
 * deduplicate; conflicting rows are fatal, and the inputs are left
 * on disk for inspection. Missing shard files are skipped (a shard
 * whose slice was fully cached writes nothing new).
 */
ShardMergeStats mergeShardCaches(const std::string &base,
                                 unsigned shards);

struct RunRequest; // core/sweep_engine.hh

/**
 * What a fleet coordinator knows before the first lease: which grid
 * indices still need simulating, and what each one is expected to
 * cost. Built by planFleetSweep().
 */
struct FleetPlan
{
    /** Grid indices with no cached row yet (deduplicated; the
     *  FleetQueue serves them longest-estimate-first). */
    std::vector<std::uint32_t> pending;

    /** Scheduler cost estimate per grid index (sim_events of a prior
     *  run of the same (workload, policy), falling back to the
     *  workload-footprint heuristic - the same ladder run() uses). */
    std::vector<double> costs;

    /** Grid points already satisfied by the canonical cache (or, on
     *  resume, a partial shard cache). */
    std::size_t cached = 0;

    /** Rows recovered from partial shard files (resume only). */
    std::size_t resumedRows = 0;
};

/**
 * The coordinator's resume-aware grid scan: load the canonical cache
 * at @p cache (memory-only - nothing is written), plus, when
 * @p resume is set, every existing partial shard file of it (left on
 * disk; the join merge consumes them later), then classify each of
 * @p requests as cached or pending and estimate pending costs.
 * `--resume` is exactly this with the shard files folded in: only
 * the keys a crashed fleet never checkpointed come back pending.
 */
FleetPlan planFleetSweep(const std::vector<RunRequest> &requests,
                         const std::string &cache, unsigned shards,
                         bool resume);

} // namespace migc

#endif // MIGC_CORE_SHARD_HH
