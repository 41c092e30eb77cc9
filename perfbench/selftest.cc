/**
 * @file
 * Self-tests for the benchmark's own helpers: the percentile rule,
 * framing of multi-line `match` replies, per-process peak RSS of child
 * processes, and span self time. Run: perfbench_selftest (exit 0 =
 * pass), or `python3 perfbench/run.py --self-test`.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

std::vector<double>
ranks(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

void
testPercentileRule()
{
    Tail t = tailPercentile(ranks(19));
    check(t.label == "max" && t.value == 19 && t.n == 19,
          "19 samples: too few for p50 beyond ten, report the max");
    t = tailPercentile(ranks(20));
    check(t.label == "p50" && t.value == 10, "20 samples: p50");
    t = tailPercentile(ranks(99));
    check(t.label == "p50" && t.value == 50,
          "99 samples: p90 has only 9 beyond it");
    t = tailPercentile(ranks(100));
    check(t.label == "p90" && t.value == 90, "100 samples: p90");
    t = tailPercentile(ranks(1000));
    check(t.label == "p99" && t.value == 990, "1000 samples: p99");
    t = tailPercentile(ranks(9999));
    check(t.label == "p99" && t.value == 9900,
          "9999 samples: p99.9 has only 9 beyond it");
    t = tailPercentile(ranks(10000));
    check(t.label == "p99.9" && t.value == 9990 && t.n == 10000,
          "10000 samples: p99.9");
    check(tailPercentile({}).n == 0, "no samples");
    check(median({3, 1, 2}) == 2 && median({1, 2, 3, 4}) == 2.5,
          "median");
}

void
testFraming()
{
    const std::string rows = "a,b,1\nc,d,2\n";
    const std::string reply = rows + "# matched 2 rows\n";
    ReplyFramer f;
    std::string out;
    // Byte by byte: never a whole reply before the trailer's newline.
    bool early = false;
    for (std::size_t i = 0; i + 1 < reply.size(); ++i) {
        f.feed(&reply[i], 1);
        early = early || f.take(true, out);
    }
    check(!early, "match reply incomplete until the trailer ends");
    f.feed(&reply.back(), 1);
    check(f.take(true, out) && out == reply && f.buffered() == 0,
          "match reply framed whole, trailer included");
    check(matchedCount(out) == 2, "trailer count parsed");

    // Two replies in one read, then a single-line reply.
    const std::string two = reply + "# matched 0 rows\n" + "x,y,3\n";
    f.feed(two.data(), two.size());
    check(f.take(true, out) && out == reply, "first of two match replies");
    check(f.take(true, out) && out == "# matched 0 rows\n" &&
              matchedCount(out) == 0,
          "empty match reply is just the trailer");
    check(f.take(false, out) && out == "x,y,3\n" && f.buffered() == 0,
          "single-line get reply");

    const std::string err = "# error: bad glob\n";
    f.feed(err.data(), err.size());
    check(f.take(true, out) && out == err && matchedCount(out) == -1,
          "an error line ends a match reply");
    check(matchedCount("# matched 1 row\n") == 1, "singular trailer");
    check(matchedCount("# matched x rows\n") == -1 &&
              matchedCount("a,b\n") == -1,
          "malformed trailers rejected");
}

void
testChildRss(const std::string &self)
{
    const pid_t big = spawnProcess({self, "--alloc", "96"});
    const ChildExit big_ex = waitChild(big);
    const pid_t small = spawnProcess({self, "--alloc", "4"});
    const ChildExit small_ex = waitChild(small);
    std::printf("      child peak RSS: %.1f MB (96 MB touched), %.1f MB "
                "(4 MB touched)\n",
                big_ex.maxRssMb, small_ex.maxRssMb);
    check(big > 0 && big_ex.exitedCleanly && big_ex.maxRssMb >= 96,
          "peak RSS of a child that touched 96 MB");
    // Relative, so sanitizer shadow memory does not break it.
    check(small > 0 && small_ex.exitedCleanly &&
              small_ex.maxRssMb + 80 <= big_ex.maxRssMb,
          "a later small child is not charged the earlier child's peak");
    check(spawnProcess({"/nonexistent/perfbench-child"}) == -1,
          "failed exec reported, not a ghost pid");
}

void
testSelfTime()
{
    Tracer t(true);
    auto span = [](const char *name, double a, double b, int id,
                   int parent) {
        Span s;
        s.name = name;
        s.startUs = a;
        s.endUs = b;
        s.id = id;
        s.parent = parent;
        return s;
    };
    // Children overlap each other and one sticks out past the parent.
    t.add({span("sweep.run", 0, 1000, 1, -1),
           span("run.workload", 100, 300, 2, 1),
           span("run.workload", 200, 500, 3, 1),
           span("system.reset", 900, 1200, 4, 1)});
    const auto self = t.selfMsByLayer();
    check(std::abs(self.at("sweep") - 0.5) < 1e-9,
          "parent self time excludes the union of its children");
    check(std::abs(self.at("run") - 0.5) < 1e-9 &&
              std::abs(self.at("system") - 0.3) < 1e-9,
          "child self time by layer");
    Tracer off(false);
    check(off.begin("x") == -1 && off.spans().empty(),
          "tracing off records nothing");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--alloc") == 0) {
        const std::size_t bytes =
            static_cast<std::size_t>(std::atoi(argv[2])) << 20;
        char *p = static_cast<char *>(std::malloc(bytes));
        if (p == nullptr)
            return 1;
        std::memset(p, 1, bytes);
        const int sum = p[bytes / 2];
        std::free(p);
        return sum == 1 ? 0 : 1;
    }
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0)
        return 2;
    testPercentileRule();
    testFraming();
    testChildRss(std::string(self, static_cast<std::size_t>(n)));
    testSelfTime();
    std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                      : "SELF-TESTS FAILED");
    return failures == 0 ? 0 : 1;
}
