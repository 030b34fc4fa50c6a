#!/usr/bin/env python3
"""A/B the repository benchmark between two git revisions.

Usage: perfbench_ab.py BASE [HEAD] [--pairs 5] [--seconds 10]
                       [--workload W ...] [--seed S ...]

Checks BASE and HEAD (default: HEAD) out into two fresh `git worktree`s and
runs perfbench/run.py, unchanged, from each checkout, each side building
into its own CARGO_TARGET_DIR. For every workload and seed it runs N pairs
and flips the order inside each pair, so slow drift on the machine hits
both sides alike. For each end-to-end metric BENCHMARK.json declares it
prints the median of either side, the HEAD/BASE ratio, the spread between
the quartiles of BASE's runs, and in how many pairs HEAD came out better.

No threshold is applied. The exit code is 1 when any run did not end in a
result line with "correct": true, 2 on bad arguments or a failed checkout,
and 0 otherwise.

    scripts/perfbench_ab.py HEAD~1 --pairs 5 --seconds 10 --workload fault_sweep --seed 1 --seed 7
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run_once(checkout, target_dir, workload, seed, seconds, log):
    """One perfbench run from `checkout`; returns its result object or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=log,
                          text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") is True and proc.returncode == 0 else None


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def report(workload, seed, pairs, metrics):
    """Print one table; `pairs` holds {"base": result, "head": result} dicts."""
    n = len(pairs)
    print(f"\n{workload} seed {seed} ({n} pair{'s' if n != 1 else ''})")
    print(f"  {'metric':<18} {'base median':>14} {'head median':>14} {'head/base':>10} "
          f"{'base IQR':>12} {'head wins':>10}")
    for m in metrics:
        name = m["name"]
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        lower = m["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        mb, mh = statistics.median(base), statistics.median(head)
        ratio = f"{mh / mb:.3f}x" if mb else "n/a"
        print(f"  {name:<18} {mb:>14.6g} {mh:>14.6g} {ratio:>10} {quartile_spread(base):>12.4g} "
              f"{wins:>6}/{n}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default="HEAD")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [1]
    try:
        revs = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
                "head": git("rev-parse", "--verify", args.head + "^{commit}")}
    except subprocess.CalledProcessError:
        print("perfbench_ab: cannot resolve the revisions", file=sys.stderr)
        return 2
    print(f"base {args.base} = {revs['base']}\nhead {args.head} = {revs['head']}")

    work = tempfile.mkdtemp(prefix="perfbench_ab_")
    checkouts = {}
    try:
        for side, rev in revs.items():
            checkouts[side] = os.path.join(work, side)
            git("worktree", "add", "--detach", "--quiet", checkouts[side], rev)
        failed = 0
        log_path = os.path.join(work, "run.log")
        with open(log_path, "w") as log:
            for workload in workloads:
                for seed in seeds:
                    pairs = []
                    for i in range(args.pairs):
                        order = ("base", "head") if i % 2 == 0 else ("head", "base")
                        got = {}
                        for side in order:
                            got[side] = run_once(checkouts[side],
                                                 os.path.join(work, "target-" + side), workload,
                                                 seed, args.seconds, log)
                            if got[side] is None:
                                print(f"FAILED: {side} run, {workload} seed {seed} pair {i + 1}",
                                      file=sys.stderr)
                                failed += 1
                        if all(got.values()):
                            pairs.append(got)
                    if pairs:
                        report(workload, seed, pairs, metrics)
        if failed:
            with open(log_path) as log:
                tail = log.readlines()[-40:]
            print(f"\n{failed} run(s) not correct; last build and harness stderr:\n"
                  + "".join(tail), file=sys.stderr)
            return 1
        return 0
    except subprocess.CalledProcessError as e:
        print(f"perfbench_ab: {' '.join(e.cmd)} failed", file=sys.stderr)
        return 2
    finally:
        for path in checkouts.values():
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(work, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main())
