/**
 * @file
 * perfbench driver: runs one workload and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --serve-bin PATH [--trace-out PATH] [--commit ID]
 *
 * Works in the current directory (perfbench/run.py gives it a scratch
 * directory). Prints the host fingerprint, one line per metric with
 * its unit and sample count, and as the last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"} - the gated end-to-end
 * metrics untraced, the per-layer metrics traced. Exits 1 when a
 * correctness check failed.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "sim/logging.hh"

namespace
{

using namespace perfbench;

/** Every per-layer metric; a traced run prints each, 0 where the
 *  workload does not reach the layer. Must match BENCHMARK.json. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.events.gpu", "count"},
    {"sim.events.mem", "count"},
    {"sim.events.cache", "count"},
    {"sim.events.dram", "count"},
    {"sim.ns_per_event", "ns"},
    {"gpu.sim_cycles", "count"},
    {"gpu.mem_requests", "count"},
    {"gpu.vops", "count"},
    {"workloads.kernel_build_ms", "ms"},
    {"cache.l1_hit_ratio", "ratio"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.stall_cycles", "count"},
    {"cache.l2_writebacks", "count"},
    {"dram.accesses", "count"},
    {"dram.row_hit_rate", "ratio"},
    {"policy.alloc_bypassed", "count"},
    {"policy.predictor_bypasses", "count"},
    {"policy.rinse_writebacks", "count"},
    {"system.build_ms", "ms"},
    {"system.reset_us", "us"},
    {"run.wall_ms_p50", "ms"},
    {"run.wall_ms_max", "ms"},
    {"sweep.busy_frac", "ratio"},
    {"sweep.simulations", "count"},
    {"sweep.cache_hits", "count"},
    {"runcache.checkpoint_ms", "ms"},
    {"runcache.bytes", "bytes"},
    {"runcache.load_ms", "ms"},
    {"snapshot.map_ms", "ms"},
    {"snapshot.find_us", "us"},
    {"snapshot.match_us", "us"},
    {"snapshot.publish_ms", "ms"},
    {"serve.handle_us", "us"},
    {"serve.publishes", "count"},
    {"serve.miss_enqueues", "count"},
    {"transport.rtt_overhead_us", "us"},
    {"transport.push_ms", "ms"},
    {"transport.push_bytes", "bytes"},
    {"fleet.plan_ms", "ms"},
    {"fleet.leases", "count"},
    {"fleet.steals", "count"},
    {"fleet.expired", "count"},
    {"fleet.stale_frac", "ratio"},
    {"fleet.idle_frac", "ratio"},
    {"fleet.merge_ms", "ms"},
};

/** Span layers whose self time a traced run reports. */
const char *const kTraceLayers[] = {
    "bench", "sweep",    "system",   "workloads", "run",
    "runcache", "snapshot", "serve", "transport", "fleet"};

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0 ||
            line.rfind("Model", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

/** The tag-scan ISA path the library was built with (cache/simd.hh
 *  selects on the same predefines; the ISA flags are PUBLIC on the
 *  library, so this translation unit sees them too). */
const char *
isaPath()
{
#if defined(MIGC_NO_SIMD)
    return "scalar (MIGC_NO_SIMD)";
#elif defined(__AVX2__)
    return "AVX2";
#elif defined(__SSE2__)
    return "SSE2";
#elif defined(__ARM_NEON)
    return "NEON";
#else
    return "scalar";
#endif
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload grid_cold|grid_fleet|"
                 "serve_read|serve_mixed --seed N --seconds S --trace 0|1"
                 " --serve-bin PATH [--trace-out PATH] [--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    migc::setInformStream(stderr);
    if (!args.empty() && args[0] == "--fleet-worker")
        return fleetWorkerMain(args);

    RunArgs ra;
    std::string trace_out, commit = "unknown";
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
        const std::string &k = args[i];
        const std::string &v = args[i + 1];
        if (k == "--workload") {
            ra.workload = v;
        } else if (k == "--seed") {
            ra.seed = std::stoull(v);
        } else if (k == "--seconds") {
            ra.seconds = std::stod(v);
        } else if (k == "--trace") {
            ra.trace = v == "1";
        } else if (k == "--serve-bin") {
            ra.serveBin = v;
        } else if (k == "--trace-out") {
            trace_out = v;
        } else if (k == "--commit") {
            commit = v;
        } else {
            return usage();
        }
    }
    if (args.size() % 2 != 0 || ra.serveBin.empty() || !(ra.seconds > 0))
        return usage();
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0)
        return 2;
    ra.selfExe.assign(self, static_cast<std::size_t>(n));
    ra.cpus = std::max(1u, std::thread::hardware_concurrency());

    std::string governor = readFirstLine(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    std::printf("# host {\"cpu\": %s, \"isa\": %s, \"nproc\": %u, "
                "\"governor\": %s, \"build_type\": %s, \"commit\": %s}\n",
                jsonQuote(cpuModel()).c_str(),
                jsonQuote(isaPath()).c_str(), ra.cpus,
                jsonQuote(governor.empty() ? "unreadable" : governor)
                    .c_str(),
                jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
                jsonQuote(commit).c_str());

    Tracer tracer(ra.trace);
    Result res;
    const double t0 = nowUs();
    {
        SpanScope span(tracer, "bench." + ra.workload, ra.seed);
        if (ra.workload == "grid_cold")
            res = runGridCold(ra, tracer);
        else if (ra.workload == "grid_fleet")
            res = runGridFleet(ra, tracer);
        else if (ra.workload == "serve_read")
            res = runServeRead(ra, tracer);
        else if (ra.workload == "serve_mixed")
            res = runServeMixed(ra, tracer);
        else
            return usage();
    }
    const double run_s = (nowUs() - t0) / 1e6;
    res.line("fail_frac", "ratio",
             static_cast<double>(res.failed) /
                 static_cast<double>(std::max<std::uint64_t>(res.attempted,
                                                             1)),
             res.attempted);

    for (const ReportLine &l : res.report) {
        std::printf("# metric %-18s %14.6g %-10s n=%zu%s%s\n", l.name.c_str(),
                    l.value, l.unit.c_str(), l.n, l.note.empty() ? "" : "  ",
                    l.note.c_str());
    }
    std::printf("# run_s %.3f\n", run_s);

    std::map<std::string, Value> out = res.endToEnd;
    if (ra.trace) {
        out.clear();
        for (const auto &[name, unit] : kLayerMetrics) {
            auto it = res.layers.find(name);
            out[name] = Value{it == res.layers.end() ? 0.0 : it->second.value,
                              unit};
        }
        const auto self_ms = tracer.selfMsByLayer();
        for (const char *layer : kTraceLayers) {
            auto it = self_ms.find(layer);
            out[std::string("trace.self_ms.") + layer] =
                Value{it == self_ms.end() ? 0.0 : it->second, "ms"};
        }
        for (const auto &[name, v] : out) {
            std::printf("# layer %-28s %14.6g %s\n", name.c_str(), v.value,
                        v.unit.c_str());
        }
        if (!trace_out.empty()) {
            if (tracer.writeChromeJson(trace_out))
                std::printf("# trace %s\n", trace_out.c_str());
            else
                res.fail("cannot write " + trace_out);
        }
    }
    for (auto &[name, v] : out) {
        if (!std::isfinite(v.value)) {
            res.fail(name + " is not a finite number");
            v.value = 0.0;
        }
    }
    for (const std::string &f : res.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());

    const bool correct = res.failed == 0 && res.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      res.attempted, 1));
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : out) {
        json += first ? "" : ", ";
        first = false;
        json += jsonQuote(name) + ": {\"value\": " + jsonNumber(v.value) +
                ", \"unit\": " + jsonQuote(v.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
