/**
 * @file
 * Helpers shared by the perfbench workloads: clocks and summary
 * statistics, reply framing for the serve line protocol, child
 * process spawning with per-process peak RSS, the span tracer, and
 * the result record every workload fills in.
 *
 * Spans are recorded only here, around the benchmark's own calls into
 * the library's public functions; nothing inside the library is
 * instrumented. With tracing off, every span call is a branch on a
 * bool.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hh"
#include "serve/transport.hh"

namespace perfbench
{

/** Microseconds on the system-wide monotonic clock (comparable across
 *  the benchmark's processes). */
double nowUs();

/** q-quantile (0..1) by linear interpolation between order
 *  statistics; 0 for an empty set. */
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

/**
 * The tail a timing is reported at: the highest percentile of the
 * ladder p50, p90, p99, p99.9, ... that still has at least ten
 * samples beyond it (nearest-rank), or the maximum when even p50 does
 * not (fewer than 20 samples).
 */
struct Tail
{
    std::string label; ///< "p99", "p99.9", ... or "max"
    double value = 0.0;
    std::size_t n = 0; ///< sample count
};

Tail tailPercentile(std::vector<double> v);

/** Splits a byte stream of serve replies back into whole replies. */
class ReplyFramer
{
  public:
    void feed(const char *data, std::size_t n) { buf_.append(data, n); }

    /**
     * Take one complete reply off the front of the buffer. A single
     * reply (`get`, `wait`, `stats`) is one line; a multi-line reply
     * (`match`) is data lines up to and including the first line that
     * starts with '#' (the `# matched N rows` trailer, or an error).
     * @return false when the buffer does not hold a whole reply yet.
     */
    bool take(bool multi_line, std::string &reply);

    std::size_t buffered() const { return buf_.size(); }

  private:
    std::string buf_;
    std::size_t scanned_ = 0; ///< bytes already known to lack a trailer
};

/** N from a `# matched N rows` trailer at the end of @p reply, or -1. */
long matchedCount(const std::string &reply);

/** Blocking request/reply client over one serve connection. */
class LineClient
{
  public:
    /** Connects once; check connected(). */
    explicit LineClient(const std::string &endpoint_spec);

    bool connected() const { return stream_ != nullptr; }

    /** Send @p line (newline appended) and read one whole reply.
     *  Empty on a broken connection. */
    std::string request(const std::string &line, bool multi_line);

  private:
    std::unique_ptr<migc::Stream> stream_;
    ReplyFramer framer_;
};

/** Peak RSS of this process so far, in MB. */
double selfPeakRssMb();

/**
 * fork+exec @p argv with stdout and stderr sent to @p log_path (when not
 * empty). Returns once the exec has happened (a close-on-exec pipe
 * reports it), or -1 when it failed.
 */
pid_t spawnProcess(const std::vector<std::string> &argv,
                   const std::string &log_path = "");

/** How a child ended, with its own peak RSS (wait4 rusage - per
 *  process, not the max over every child ever reaped). */
struct ChildExit
{
    bool exitedCleanly = false; ///< exit status 0
    int status = 0;
    double maxRssMb = 0.0;
};

ChildExit waitChild(pid_t pid);

/**
 * Keeps every CPU busy at SCHED_IDLE priority while in scope, so no
 * CPU halts between two requests. On a virtual machine, waking a
 * halted vCPU goes through the hypervisor and costs anything from
 * microseconds to milliseconds depending on what the neighbours run;
 * with the spinners, a woken thread preempts a spinner at once
 * instead (SCHED_IDLE yields to every normal thread).
 */
class IdleSpinners
{
  public:
    explicit IdleSpinners(unsigned threads);
    ~IdleSpinners() { stop(); }

    /** Stop and join the spinners (idempotent). */
    void stop();

    IdleSpinners(const IdleSpinners &) = delete;
    IdleSpinners &operator=(const IdleSpinners &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** One traced interval. */
struct Span
{
    std::string name; ///< "<layer>.<what>"
    double startUs = 0.0;
    double endUs = 0.0;
    std::int64_t id = -1;
    std::int64_t parent = -1;
    std::uint64_t request = 0; ///< grid index or query number
    int pid = 0;
    int tid = 0;
};

/** In-memory span recorder; written out once, at exit. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span; the parent defaults to the innermost open span
     *  on this thread. Returns -1 when tracing is off. */
    std::int64_t begin(const std::string &name, std::uint64_t request = 0);

    void end(std::int64_t id);

    /** Import spans recorded by another process. */
    void add(std::vector<Span> spans);

    std::vector<Span> spans() const;

    /** Chrome trace-event JSON ("X" events, µs). */
    bool writeChromeJson(const std::string &path) const;

    /** One span per line, for handing spans to a parent process. */
    bool writeLines(const std::string &path) const;
    static std::vector<Span> readLines(const std::string &path);

    /**
     * Self time per layer (the span-name prefix before the first
     * '.'), in ms: each span's duration minus the part of it its
     * child spans cover.
     */
    std::map<std::string, double> selfMsByLayer() const;

  private:
    bool on_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::int64_t, std::size_t> open_; ///< id -> index
    std::int64_t nextId_ = 0;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const std::string &name, std::uint64_t request = 0)
        : t_(t), id_(t.begin(name, request))
    {
    }
    ~SpanScope() { t_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t_;
    std::int64_t id_;
};

/** The innermost span open on this thread, or -1. */
std::int64_t currentSpan();

/** Parents the spans this thread opens, while in scope, under a span
 *  of another thread (worker pools). */
class ParentScope
{
  public:
    explicit ParentScope(std::int64_t parent);
    ~ParentScope();

    ParentScope(const ParentScope &) = delete;
    ParentScope &operator=(const ParentScope &) = delete;

  private:
    bool pushed_;
};

/** A metric value with its unit. */
struct Value
{
    double value = 0.0;
    std::string unit;
};

/** A user-facing metric as printed in the report, with its count. */
struct ReportLine
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t n = 0;
    std::string note;
};

/** What one workload run produced. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr

    /** Every user-facing metric that applies to the workload (printed
     *  as report lines, gated or not). */
    std::vector<ReportLine> report;

    /** The gated end-to-end metrics (BENCHMARK.json end_to_end). */
    std::map<std::string, Value> endToEnd;

    /** Per-layer metrics (BENCHMARK.json per_layer). */
    std::map<std::string, Value> layers;

    void fail(const std::string &why);
    void line(const std::string &name, const std::string &unit,
              double value, std::size_t n, const std::string &note = "");
    void layer(const std::string &name, const std::string &unit,
               double value)
    {
        layers[name] = Value{value, unit};
    }
};

/** Command-line inputs of one workload run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin;  ///< migc_serve built from this tree
    std::string selfExe;   ///< this driver (fleet workers re-exec it)
    unsigned cpus = 1;
};

/** Bitwise equality of every metric field (not just the CSV text,
 *  which rounds). */
bool sameMetrics(const migc::RunMetrics &a, const migc::RunMetrics &b);

/** splitmix64: the benchmark's only random source, so a seed names
 *  the same inputs on every platform. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n), n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** 64-bit FNV-1a over @p s. */
std::uint64_t hashBytes(const std::string &s);

/** @p s as a JSON string literal, quotes included. */
std::string jsonQuote(const std::string &s);

std::size_t fileSize(const std::string &path);

// The workloads (grid.cc, serve.cc).
Result runGridCold(const RunArgs &args, Tracer &tracer);
Result runGridFleet(const RunArgs &args, Tracer &tracer);
Result runServeRead(const RunArgs &args, Tracer &tracer);
Result runServeMixed(const RunArgs &args, Tracer &tracer);

/** Entry point of a forked grid_fleet worker process. */
int fleetWorkerMain(const std::vector<std::string> &args);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
