/**
 * @file
 * The byte transport under the fleet and serve sockets.
 *
 * PR 8's fleet coordinator and migc_serve each open-coded an AF_UNIX
 * listener; this header extracts the plumbing behind three small
 * types so the same protocol code runs over a local socket or TCP:
 *
 *  - Endpoint / parseEndpoint: one spec string names the transport.
 *    `unix:<path>` is an AF_UNIX stream socket, `tcp:<host>:<port>`
 *    an IPv4/IPv6 TCP socket (port 0 asks the kernel for an
 *    ephemeral port; Listener::bound() reports the real one). A bare
 *    string with no scheme is an AF_UNIX path, so every pre-TCP
 *    command line keeps working unchanged.
 *
 *  - Stream: a connected byte stream (read / writeAll / shutdown).
 *    FdStream wraps a socket fd; tests substitute in-memory fakes.
 *
 *  - Listener: bind + accept over an Endpoint, stoppable from
 *    another thread (stop() closes the fd, which unblocks accept).
 *
 * connectTo() dials an Endpoint and, on failure, reports the
 * underlying errno string instead of swallowing it - a fleet worker
 * that cannot reach its coordinator must say *why* (wrong host,
 * refused port, missing socket file).
 *
 * The bottom half is the deterministic fault-injection shim the
 * chaos tests (tests/test_fleet_faults.cc) drive: wrapFaulty() wraps
 * any Stream in a FaultyStream that drops, truncates, duplicates,
 * delays, or bit-flips bytes at scripted offsets of the logical
 * (unfaulted) byte stream. No real clocks anywhere: "delay" is byte
 * *reordering* (hold a range until N later bytes pass, or the
 * direction stalls), "drop" and "truncate" tear the connection the
 * way a dead link would, and "corrupt" XORs with masks derived from
 * a sim/rng.hh stream, so the same seed + schedule always produces
 * the same byte trace (FaultPlan::trace(), pinned by a replay test).
 */

#ifndef MIGC_SERVE_TRANSPORT_HH
#define MIGC_SERVE_TRANSPORT_HH

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace migc
{

/** One parsed transport address. */
struct Endpoint
{
    enum class Kind
    {
        unix_, ///< AF_UNIX stream socket at `path`
        tcp,   ///< TCP stream socket at `host`:`port`
    };

    Kind kind = Kind::unix_;
    std::string path;        ///< unix: filesystem path
    std::string host;        ///< tcp: hostname or numeric address
    std::uint16_t port = 0;  ///< tcp: port (0 = ephemeral on bind)

    /** The canonical spec string ("unix:/x" / "tcp:host:port"). */
    std::string spec() const;
};

/**
 * Parse `unix:<path>`, `tcp:<host>:<port>`, or a bare AF_UNIX path
 * (anything without one of those schemes). Fatal on malformed specs
 * (empty path, missing or non-numeric port) - a mistyped endpoint
 * must never silently become a relative socket file.
 */
Endpoint parseEndpoint(const std::string &spec);

/**
 * A connected byte stream. Not internally synchronized: one reader
 * and one writer at a time (the fleet client serializes transactions
 * on its own mutex; the servers use one thread per connection).
 */
class Stream
{
  public:
    virtual ~Stream() = default;

    /** Up to @p n bytes; 0 on EOF, negative on error. Blocking. */
    virtual ssize_t read(void *buf, std::size_t n) = 0;

    /** All @p n bytes or false. */
    virtual bool writeAll(const void *buf, std::size_t n) = 0;

    bool writeAll(const std::string &s)
    {
        return writeAll(s.data(), s.size());
    }

    /** Tear both directions; unblocks a concurrent read(). Safe to
     *  call from another thread (that is its whole purpose). */
    virtual void shutdown() {}
};

/** Stream over a connected socket fd (owned; closed on destroy). */
class FdStream : public Stream
{
  public:
    explicit FdStream(int fd) : fd_(fd) {}
    ~FdStream() override;

    FdStream(const FdStream &) = delete;
    FdStream &operator=(const FdStream &) = delete;

    ssize_t read(void *buf, std::size_t n) override;
    bool writeAll(const void *buf, std::size_t n) override;
    void shutdown() override;

  private:
    int fd_;
};

/** Bind + accept over an Endpoint. */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind and listen. Fatal on errors (an unreachable coordinator
     *  is never worth a silent single-process fallback). For
     *  tcp:*:0 the kernel picks the port; bound() has the real one.
     *  For unix endpoints a stale socket file is unlinked first. */
    void bind(const Endpoint &ep);

    /** One accepted connection, or nullptr once stop() was called
     *  (or on a non-transient accept error). Blocking. */
    std::unique_ptr<Stream> accept();

    /** Close the listening socket; unblocks accept(). Idempotent.
     *  Unix endpoints also unlink their socket file. */
    void stop();

    /** The endpoint actually bound (tcp port resolved). */
    const Endpoint &bound() const { return ep_; }

  private:
    /** Atomic: stop() runs on another thread than a blocked accept(). */
    std::atomic<int> fd_{-1};
    std::atomic<bool> stopped_{false};
    Endpoint ep_;
};

/**
 * Dial @p ep once. nullptr on failure with the underlying errno
 * string (plus the failing step) in @p error - the caller decides
 * whether to retry, and its final fatal can say what actually went
 * wrong instead of "could not reach".
 */
std::unique_ptr<Stream> connectTo(const Endpoint &ep,
                                  std::string *error);

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/**
 * One scripted fault. Offsets index the *logical* byte stream of one
 * direction of one connection - the bytes as the faulted side wrote
 * (tx) or the peer sent (rx) them, before any fault applied - so a
 * schedule is reproducible no matter how the kernel chunks reads.
 * When @p match is set, the trigger is `offset` bytes past the start
 * of the @p matchNth occurrence of the pattern in that stream (so a
 * test can say "the 2nd `done` line" without counting bytes).
 *
 * Faults on one channel fire in list order, one at a time.
 */
struct StreamFault
{
    enum class Op
    {
        drop,      ///< swallow the range, then tear the connection
        truncate,  ///< deliver up to the trigger, then tear it
        duplicate, ///< deliver the range twice
        delay,     ///< reorder: hold the range behind holdBytes
                   ///< later bytes (released at EOF / stall)
        corrupt,   ///< XOR the range with seeded nonzero masks
    };

    enum class Dir
    {
        tx, ///< bytes the wrapped side writes
        rx, ///< bytes the wrapped side reads
    };

    Op op = Op::drop;
    Dir dir = Dir::tx;
    unsigned conn = 0;          ///< which connection (0 = first)
    std::uint64_t offset = 0;   ///< absolute, or relative to match
    std::uint64_t len = 1;      ///< bytes in the range
    std::string match;          ///< optional pattern trigger
    std::size_t matchNth = 1;   ///< 1-based occurrence of match
    std::uint64_t holdBytes = 0; ///< delay: later bytes to let pass
};

/**
 * A fault schedule shared across a client's reconnects: each
 * StreamFault names the connection it applies to, wrapFaulty()
 * counts connections, and the trace records every fault firing plus
 * a per-connection digest of the bytes each direction delivered.
 * Same seed + same schedule + same scripted input = same trace
 * (asserted by the replay test).
 */
struct FaultPlan
{
    std::vector<StreamFault> faults;
    std::uint64_t seed = 1; ///< corrupt-mask RNG stream

    /** The deterministic event log ("\n"-joined). */
    std::string trace() const;

    /** Append one trace line (internal; locked). */
    void note(const std::string &line);

    /** Next connection index (internal; locked). */
    unsigned nextConn();

  private:
    mutable std::mutex mu_;
    std::string trace_;
    unsigned conns_ = 0;
};

/** Applied to every (re)connected stream of a FleetClient; tests
 *  install wrapFaulty() here, production leaves it empty. */
using StreamWrapper = std::function<std::unique_ptr<Stream>(
    std::unique_ptr<Stream>)>;

/** Wrap @p inner in the fault shim for the plan's next connection. */
std::unique_ptr<Stream> wrapFaulty(std::unique_ptr<Stream> inner,
                                   std::shared_ptr<FaultPlan> plan);

} // namespace migc

#endif // MIGC_SERVE_TRANSPORT_HH
