/**
 * @file
 * The migc_serve wire protocol: newline-delimited text requests.
 *
 * One request per line, whitespace-separated tokens:
 *
 *   get <config> <workload> <policy>     exact-key lookup
 *   match <config> <workload> <policy>   glob lookup ('*', '?')
 *   stats                                one-line counters
 *   wait                                 block until misses drain
 *   help                                 protocol summary
 *
 * The elastic shard fleet (core/fleet.hh) reuses this layer for its
 * coordinator socket; its verbs parse here too, and each side
 * rejects the other's verbs at dispatch (a serve cache cannot grant
 * leases, a fleet coordinator has no rows to `get`):
 *
 *   lease <worker> <gridhash>            request a run-key range
 *   done <worker> <leaseid> <key>        report one completed key
 *   renew <worker> <leaseid>             extend the lease deadline
 *   push <worker> <leaseid> <bytes> <checksum>
 *                                        upload the worker's shard
 *                                        cache: exactly <bytes> raw
 *                                        bytes follow the newline,
 *                                        cache_v4-checksummed
 *   fetch <shard>                        download the coordinator's
 *                                        stored copy of a shard file
 *
 * Blank lines and lines starting with '#' are ignored (so a csv
 * cache export or a recorded session can be replayed as input).
 * Responses are newline-delimited too: result rows are raw
 * RunMetrics CSV (byte-identical to the cache's csv export),
 * everything else - status, errors, the `match` trailer - starts
 * with '#', so a client (or CI) separates data from status with one
 * grep.
 *
 * This header is pure parsing: text in, ServeRequest out. The
 * semantics live in serve_service.hh.
 */

#ifndef MIGC_SERVE_SERVE_PROTOCOL_HH
#define MIGC_SERVE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace migc
{

/** One parsed request line. */
struct ServeRequest
{
    enum class Kind
    {
        none,  ///< blank / comment: no response at all
        get,   ///< exact key lookup
        match, ///< glob lookup
        stats,
        wait,
        help,
        error, ///< unparseable; `error` holds the message
        lease, ///< fleet: request a run-key range
        done,  ///< fleet: report one completed key
        renew, ///< fleet: extend a lease deadline
        push,  ///< fleet: upload a shard cache file (payload follows)
        fetch, ///< fleet: download a stored shard cache file
    };

    Kind kind = Kind::none;

    /** Operands of get/match (config, workload, policy). */
    std::string config;
    std::string workload;
    std::string policy;

    /** Fleet operands (lease/done/renew/push/fetch). */
    unsigned worker = 0;        ///< worker index (fetch: shard index)
    std::uint64_t leaseId = 0;  ///< done/renew/push: which lease
    std::uint64_t gridHash = 0; ///< lease: the worker's grid print
    std::uint32_t key = 0;      ///< done: completed grid index
    std::uint64_t bytes = 0;    ///< push: payload byte count
    std::uint64_t checksum = 0; ///< push: payload v4Checksum

    /** Parse-error message for Kind::error. */
    std::string error;
};

/** The largest push payload a coordinator accepts (a shard cache is
 *  a few MB even for the full paper grid; anything near this bound
 *  is a corrupted or hostile header, not a cache file). */
constexpr std::uint64_t kServeMaxPushBytes = 1ull << 30;

/** Split @p line on runs of spaces/tabs (no quoting: cache names
 *  reject whitespace-adjacent forms anyway, see sim/names.hh). */
std::vector<std::string> serveTokens(const std::string &line);

/** Parse one request line (never throws; bad input returns
 *  Kind::error with a message naming the problem). */
ServeRequest parseServeRequest(const std::string &line);

/** The `help` response body (each line '#'-prefixed). */
std::string serveHelpText();

} // namespace migc

#endif // MIGC_SERVE_SERVE_PROTOCOL_HH
