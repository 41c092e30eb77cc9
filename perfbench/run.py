#!/usr/bin/env python3
"""End-to-end benchmark of the migc simulator, sweep, fleet and serve tiers.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py --workload all          # every workload, untraced
                                                   # then traced, with overhead
  python3 perfbench/run.py --self-test             # the driver's own helpers

Builds perfbench/ (which pulls in the library from the enclosing tree) into
$CARGO_TARGET_DIR or .bench_build/, runs the C++ driver in a scratch
directory under it, and prints the driver's report. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). A traced run also writes a Chrome
trace-event file under <build>/traces/. Exits non-zero when the build
fails, a correctness check fails, or the output does not match
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grid_cold", "grid_fleet", "serve_read", "serve_mixed"]
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then an incremental build of the three targets."""
    for need in ("CMakeLists.txt", "src", os.path.join("bench", "migc_serve.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no migc source tree here (missing %s)" % need)
    out = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest", "migc_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return out


def source_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(bin_dir, workload, seed, seconds, trace):
    """One driver run in its own scratch directory and process group.

    Returns (report lines, result dict or None, exit code)."""
    work = os.path.join(build_root(), "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--serve-bin", os.path.join(bin_dir, "migc_serve"),
           "--commit", source_id()]
    if trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", 124
        print("perfbench: %s timed out" % workload, file=sys.stderr)
    finally:
        # The driver stops its servers and workers itself; this only
        # catches what a crash or a timeout left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    return lines, result, code


def validate(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    want = declared_metrics(trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, unit in want.items():
        v = got[name].get("value")
        if got[name].get("unit") != unit or not isinstance(v, (int, float)):
            return "metric %s malformed: %r" % (name, got[name])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    return None


def run_all(bin_dir, seed, seconds):
    """Every workload untraced then traced; prints the tracing overhead."""
    ok = True
    for w in WORKLOADS:
        print("== %s" % w)
        plain = None
        for trace in (False, True):
            lines, result, code = run_driver(bin_dir, w, seed, seconds, trace)
            print("\n".join(lines))
            if result is None or code != 0 or validate(result, trace):
                ok = False
                print("# %s trace=%d FAILED (exit %d)" % (w, trace, code))
                continue
            wall = next((float(l.split()[2]) for l in lines
                         if l.startswith("# run_s")), None)
            work = next((float(l.split()[3]) for l in lines
                         if l.startswith("# metric") and l.split()[2] in
                         ("runs_per_s", "qps")), None)
            if not trace:
                plain = (wall, work)
            elif plain and plain[0] and wall and plain[1] and work:
                print("# trace_overhead %s run_wall %+.1f%%  throughput %+.1f%%"
                      % (w, 100 * (wall / plain[0] - 1),
                         100 * (work / plain[1] - 1)))
            print(json.dumps(result))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")

    bin_dir = build()
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.self_test:
        return subprocess.run([os.path.join(bin_dir, "perfbench_selftest")]).returncode
    if args.workload == "all":
        return run_all(bin_dir, args.seed, args.seconds)

    lines, result, code = run_driver(bin_dir, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    print("\n".join(lines))
    if result is None:
        die("%s produced no result (exit %d)" % (args.workload, code))
    problem = validate(result, bool(args.trace))
    if problem:
        die(problem)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
