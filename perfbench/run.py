#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the harness (perfbench/CMakeLists.txt) from the library sources in
the checkout, runs one workload and passes its output through; the last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}.

    python3 perfbench/run.py --workload fig10_sync --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Build output goes to stderr and into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout. Without the library sources the
script exits 2 without printing a result.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig10_sync", "fig10_async", "fault_sweep", "rt_mutex")
# Every run must end within 180 s; the harness watchdog fires a little
# earlier, and this script kills the harness as a last resort.
DEADLINE_S = 170.0
KILL_S = 176.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "experiment.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_harness")


def run_harness(cmd, budget_s):
    """Run the harness, echo its output, return (exit code, stdout lines)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget_s)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stdout.write(out)
        print(f"perfbench: harness killed after {budget_s:.0f} s", file=sys.stderr)
        return None, out.splitlines()
    sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.splitlines()


def selftest(exe):
    code, lines = run_harness([exe, "--selftest"], KILL_S)
    ok = code == 0 and lines and lines[-1] == "selftest: ok"
    t0 = time.monotonic()
    code, lines = run_harness([exe, "--selftest-watchdog", "--deadline", "3"], 60)
    took = time.monotonic() - t0
    cut = code == 1 and lines and lines[-1].startswith('{"correct": false')
    print(f"selftest: watchdog cut off the livelock reproducer in {took:.1f} s: "
          f"{'ok' if cut else 'FAILED'}")
    return 0 if ok and cut else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    exe = build()
    if args.selftest:
        sys.exit(selftest(exe))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--deadline", f"{DEADLINE_S:.0f}"]
    code, lines = run_harness(cmd, KILL_S)
    if code == 0:
        return
    if not (lines and lines[-1].startswith("{")):
        # Crashed or killed before reporting: still a failed run, not a hang.
        print(f"perfbench: harness ended without a result (exit {code})", file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
    sys.exit(1)


if __name__ == "__main__":
    main()
