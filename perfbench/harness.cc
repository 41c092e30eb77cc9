#include "harness.hh"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench
{

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

Tail
tailPercentile(std::vector<double> v)
{
    static const struct
    {
        const char *label;
        double beyond; ///< share of samples above the percentile
    } kLadder[] = {{"p50", 0.5},       {"p90", 0.1},
                   {"p99", 1e-2},      {"p99.9", 1e-3},
                   {"p99.99", 1e-4},   {"p99.999", 1e-5},
                   {"p99.9999", 1e-6}};
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    t.label = "max";
    t.value = v.back();
    const double n = static_cast<double>(t.n);
    for (const auto &step : kLadder) {
        // Nearest rank (1-based) of the percentile.
        const std::size_t rank = static_cast<std::size_t>(
            std::max(1.0, std::ceil(n * (1.0 - step.beyond) - 1e-9)));
        if (t.n - rank < 10)
            break;
        t.label = step.label;
        t.value = v[rank - 1];
    }
    return t;
}

bool
ReplyFramer::take(bool multi_line, std::string &reply)
{
    std::size_t pos = multi_line ? scanned_ : 0;
    for (;;) {
        const std::size_t nl = buf_.find('\n', pos);
        if (nl == std::string::npos) {
            if (multi_line)
                scanned_ = pos;
            return false;
        }
        if (!multi_line || buf_[pos] == '#') {
            reply.assign(buf_, 0, nl + 1);
            buf_.erase(0, nl + 1);
            scanned_ = 0;
            return true;
        }
        pos = nl + 1;
    }
}

long
matchedCount(const std::string &reply)
{
    static const char kTrailer[] = "# matched ";
    std::size_t start = reply.rfind('\n', reply.size() >= 2
                                              ? reply.size() - 2
                                              : std::string::npos);
    start = start == std::string::npos ? 0 : start + 1;
    if (reply.compare(start, sizeof(kTrailer) - 1, kTrailer) != 0)
        return -1;
    const char *p = reply.c_str() + start + sizeof(kTrailer) - 1;
    char *end = nullptr;
    errno = 0;
    const long n = std::strtol(p, &end, 10);
    if (end == p || errno != 0 || n < 0 || *end != ' ')
        return -1;
    return n;
}

LineClient::LineClient(const std::string &endpoint_spec)
{
    std::string error;
    stream_ = migc::connectTo(migc::parseEndpoint(endpoint_spec), &error);
}

std::string
LineClient::request(const std::string &line, bool multi_line)
{
    std::string reply;
    if (stream_ == nullptr || !stream_->writeAll(line + "\n"))
        return reply;
    char chunk[16384];
    while (!framer_.take(multi_line, reply)) {
        const ssize_t n = stream_->read(chunk, sizeof(chunk));
        if (n <= 0) {
            stream_.reset();
            return std::string();
        }
        framer_.feed(chunk, static_cast<std::size_t>(n));
    }
    return reply;
}

double
selfPeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

pid_t
spawnProcess(const std::vector<std::string> &argv,
             const std::string &log_path)
{
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0)
        return -1;
    std::vector<std::string> args = argv;
    std::vector<char *> cargs;
    for (std::string &a : args)
        cargs.push_back(a.data());
    cargs.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        return -1;
    }
    if (pid == 0) {
        ::close(pipefd[0]);
        if (!log_path.empty()) {
            const int fd = ::open(log_path.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
                ::close(fd);
            }
        }
        ::execv(cargs[0], cargs.data());
        const int err = errno;
        ssize_t ignored = ::write(pipefd[1], &err, sizeof(err));
        (void)ignored;
        ::_exit(127);
    }
    ::close(pipefd[1]);
    int err = 0;
    ssize_t n;
    do {
        n = ::read(pipefd[0], &err, sizeof(err));
    } while (n < 0 && errno == EINTR);
    ::close(pipefd[0]);
    if (n > 0) { // exec failed; reap the child
        int status = 0;
        ::waitpid(pid, &status, 0);
        return -1;
    }
    return pid;
}

ChildExit
waitChild(pid_t pid)
{
    ChildExit out;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    int status = 0;
    pid_t r;
    do {
        r = ::wait4(pid, &status, 0, &ru);
    } while (r < 0 && errno == EINTR);
    if (r != pid)
        return out;
    out.status = status;
    out.exitedCleanly = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    out.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return out;
}

IdleSpinners::IdleSpinners(unsigned threads)
{
    for (unsigned i = 0; i < threads; ++i) {
        threads_.emplace_back([this] {
            struct sched_param sp;
            std::memset(&sp, 0, sizeof(sp));
            if (::sched_setscheduler(0, SCHED_IDLE, &sp) != 0)
                return; // not permitted: run without the spinner
            while (!stop_.load(std::memory_order_relaxed)) {
            }
        });
    }
}

void
IdleSpinners::stop()
{
    stop_.store(true);
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
}

namespace
{

thread_local std::vector<std::int64_t> tlsOpen;

int
threadId()
{
    return static_cast<int>(::syscall(SYS_gettid));
}

std::string
layerOf(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}


} // namespace

std::int64_t
currentSpan()
{
    return tlsOpen.empty() ? -1 : tlsOpen.back();
}

ParentScope::ParentScope(std::int64_t parent) : pushed_(parent >= 0)
{
    if (pushed_)
        tlsOpen.push_back(parent);
}

ParentScope::~ParentScope()
{
    if (pushed_)
        tlsOpen.pop_back();
}

std::int64_t
Tracer::begin(const std::string &name, std::uint64_t request)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    s.pid = static_cast<int>(::getpid());
    s.tid = threadId();
    s.startUs = nowUs();
    std::lock_guard<std::mutex> lk(mu_);
    s.id = nextId_++;
    open_[s.id] = spans_.size();
    spans_.push_back(std::move(s));
    tlsOpen.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::end(std::int64_t id)
{
    if (!on_ || id < 0)
        return;
    const double t = nowUs();
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
    std::lock_guard<std::mutex> lk(mu_);
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    spans_[it->second].endUs = t;
    open_.erase(it);
}

void
Tracer::add(std::vector<Span> spans)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Re-number imported spans so ids stay unique in this tracer.
    std::map<std::int64_t, std::int64_t> remap;
    for (Span &s : spans)
        remap[s.id] = nextId_++;
    for (Span &s : spans) {
        s.id = remap[s.id];
        auto it = remap.find(s.parent);
        s.parent = it == remap.end() ? -1 : it->second;
        spans_.push_back(std::move(s));
    }
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::vector<Span> all = spans();
    double t0 = 0.0;
    for (const Span &s : all)
        t0 = t0 == 0.0 ? s.startUs : std::min(t0, s.startUs);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const Span &s : all) {
        if (s.endUs < s.startUs)
            continue;
        out << (first ? "\n" : ",\n");
        first = false;
        out << "{\"name\":" << jsonQuote(s.name)
            << ",\"cat\":" << jsonQuote(layerOf(s.name)) << ",\"ph\":\"X\"";
        std::snprintf(buf, sizeof(buf), "%.3f", s.startUs - t0);
        out << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof(buf), "%.3f", s.endUs - s.startUs);
        out << ",\"dur\":" << buf << ",\"pid\":" << s.pid
            << ",\"tid\":" << s.tid << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

bool
Tracer::writeLines(const std::string &path) const
{
    std::ofstream out(path);
    char buf[64];
    for (const Span &s : spans()) {
        out << s.name;
        std::snprintf(buf, sizeof(buf), "\t%.3f\t%.3f", s.startUs,
                      s.endUs);
        out << buf << '\t' << s.id << '\t' << s.parent << '\t'
            << s.request << '\t' << s.pid << '\t' << s.tid << '\n';
    }
    return static_cast<bool>(out);
}

std::vector<Span>
Tracer::readLines(const std::string &path)
{
    std::vector<Span> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        Span s;
        if (std::getline(ls, s.name, '\t') &&
            (ls >> s.startUs >> s.endUs >> s.id >> s.parent >>
             s.request >> s.pid >> s.tid)) {
            out.push_back(std::move(s));
        }
    }
    return out;
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::vector<Span> all = spans();
    std::map<std::int64_t, std::vector<std::size_t>> children;
    std::map<std::int64_t, std::size_t> byId;
    for (std::size_t i = 0; i < all.size(); ++i) {
        byId[all[i].id] = i;
        if (all[i].parent >= 0)
            children[all[i].parent].push_back(i);
    }
    std::map<std::string, double> out;
    for (const Span &s : all) {
        if (s.endUs < s.startUs)
            continue;
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[s.id]) {
            const double a = std::max(all[c].startUs, s.startUs);
            const double b = std::min(all[c].endUs, s.endUs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;
        out[layerOf(s.name)] += (s.endUs - s.startUs - covered) / 1000.0;
    }
    return out;
}

void
Result::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
Result::line(const std::string &name, const std::string &unit,
             double value, std::size_t n, const std::string &note)
{
    report.push_back(ReportLine{name, unit, value, n, note});
}

bool
sameMetrics(const migc::RunMetrics &a, const migc::RunMetrics &b)
{
    auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    return a.workload == b.workload && a.policy == b.policy &&
           a.execTicks == b.execTicks && same(a.execSeconds, b.execSeconds) &&
           same(a.gpuMemRequests, b.gpuMemRequests) &&
           same(a.dramReads, b.dramReads) &&
           same(a.dramWrites, b.dramWrites) &&
           same(a.dramAccesses, b.dramAccesses) &&
           same(a.dramRowHitRate, b.dramRowHitRate) &&
           same(a.cacheStallCycles, b.cacheStallCycles) &&
           same(a.stallsPerRequest, b.stallsPerRequest) &&
           same(a.vops, b.vops) && same(a.gvops, b.gvops) &&
           same(a.gmrps, b.gmrps) && same(a.l1Hits, b.l1Hits) &&
           same(a.l1Misses, b.l1Misses) && same(a.l2Hits, b.l2Hits) &&
           same(a.l2Misses, b.l2Misses) &&
           same(a.l2Writebacks, b.l2Writebacks) &&
           same(a.rinseWritebacks, b.rinseWritebacks) &&
           same(a.allocBypassed, b.allocBypassed) &&
           same(a.predictorBypasses, b.predictorBypasses) &&
           same(a.kernels, b.kernels) && same(a.simEvents, b.simEvents) &&
           a.toCsv() == b.toCsv();
}

std::uint64_t
hashBytes(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::size_t
fileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::size_t>(st.st_size);
}

} // namespace perfbench
