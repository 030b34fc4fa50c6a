#!/usr/bin/env python3
"""Perf regression gate: compare a fresh BENCH_throughput.json against the
committed baseline and fail on real regressions.

Usage: bench_gate.py BASELINE.json FRESH.json [--tolerance 0.20]
       bench_gate.py --validate-sweep SWEEP.json

The second form validates the JSON a `sweep_main --json` run emits (the CI
perf-smoke job feeds it `sweep_main --smoke`): schema only — every scenario
row must carry the uniform metric keys with sane types and the declared
scenario count must match — no performance thresholds.

Every gated metric is a throughput number *normalized by a reference
measured in the same run*, so the comparison is a ratio and machine
differences between the baseline host and the CI runner largely cancel out
(see RATIOS for where they do not).
A ratio gate needs one reference that does not change with src/: the bench
keeps the pre-rewrite priority_queue + std::function core
(bench/legacy_sim.hpp) for that, and the tiny-pooled-vs-tiny-legacy row is
the only row that catches a uniform event-core slowdown. Every other row
divides two src/ measurements, so such a slowdown cancels out of it. Those
rows normalize by the tiny *pooled bucketed* run (STEADY_REF) — the fully
allocation-free path, the steadiest loop in the binary — or, for the
sweep, the scale tier and the sharded K=1 lane, by the Figure-10 closed
loop they build on. The
40-byte event-core row runs at a tightened 15% tolerance (per-row, see
RATIOS); the others at the default 20%. Every RATIOS row must be computable
in *both* files: a missing metric or reference fails the gate, so a
mistyped path or a dropped JSON key cannot silently switch a row off. A
metric fails when its fresh ratio drops below (1 - tolerance) x its
baseline ratio.

When both files carry a fig10_scale section (the implicit-topology scale
tier), the fresh one is additionally schema-checked and each cell's
bytes_per_node is gated against the recorded memory_budget_bytes_per_node.
A fig10_parallel section (the sharded conservative engine) is likewise
schema-checked, and — only when the fresh run recorded
hardware_concurrency >= 2 — the K=2 lane must clear a 1.3x speedup over
K=1. On a 1-core runner the lanes are time-sliced and can only lose, so
the speedup gate is skipped there (the schema + bit-identity flag still
apply).

A bench_runtime section (the real-thread arrow runtime, src/rt/) is
schema-checked the same way: every t_<threads> cell must carry positive
ops_per_sec and checker_passed: true — the linearizability checker, not any
golden, is the runtime's correctness oracle — and the T=2 speedup bar
applies only on a recorded hardware_concurrency >= 2.
"""
import argparse
import json
import sys

# The frozen reference: the pre-rewrite event core with 8-byte captures,
# which fit std::function's inline buffer, so the run never touches the
# allocator. It is the only reference that does not change with src/, so
# the one row normalized by it is the only row that catches a uniform
# event-core slowdown.
TINY_REF = "event_core_tiny.legacy_priority_queue.events_per_sec"

# Steadier event-core reference: the tiny pooled-bucketed run is the
# default engine path — no allocation, no std::function dispatch, a pure
# arena + bucket loop. Measured cross-run drift is roughly half the tiny
# legacy reference's (the virtual call per event is branch-predictor
# sensitive). It changes with src/, so a row normalized by it gates the
# layer above the event core, not the core itself.
STEADY_REF = "event_core_tiny.pooled_bucketed.events_per_sec"

# The Figure-10 closed loop at n=1024: the reference for the rows that run
# the same driver at other shapes (the sweep, the implicit scale tier and
# the sharded engine's K=1 lane).
FIG10_REF = "closed_loop_fig10.static.requests_per_sec"

# (metric path, same-run reference path, human label, tolerance override).
# Each metric is normalized by a reference measured in the same run —
# numerator and denominator then see the same machine and the same load, so
# transient contention cancels. Host differences cancel only as far as the
# two respond alike to the hardware: the macro rows normalized by the tiny
# micro loop (network, Figure 10) shift between hosts with different cache
# and memory behaviour, so the committed baseline should come from the
# runner's hardware class. Units differ across rows — irrelevant, the gate
# compares fresh *ratio* vs baseline *ratio*. A None tolerance uses
# --tolerance.
RATIOS = [
    ("event_core.pooled_bucketed.events_per_sec", STEADY_REF,
     "event core (bucketed, default)", 0.15),
    ("event_core_tiny.pooled_bucketed.events_per_sec", TINY_REF,
     "tiny event core (bucketed vs frozen legacy)", None),
    ("event_core_compact.slot_32b_compact.events_per_sec",
     "event_core_compact.slot_64b_default.events_per_sec",
     "compact event core (32B vs 64B slots)", None),
    ("network.static.messages_per_sec", STEADY_REF,
     "network static dispatch", None),
    (FIG10_REF, STEADY_REF, "Figure 10 macro (static, default)", None),
    ("sweep_scaling.threads_1.requests_per_sec", FIG10_REF,
     "sweep @1 thread", None),
    ("fig10_scale.n_1048576.requests_per_sec", FIG10_REF,
     "Figure 10 scale (n=2^20 implicit)", None),
    ("fig10_parallel.k_1.events_per_sec", FIG10_REF,
     "Figure 10 parallel (K=1 window/merge overhead)", None),
]

# Every fig10_scale cell must carry exactly these numeric keys.
SCALE_CELL_KEYS = ["nodes", "rounds", "seconds", "requests_per_sec",
                   "peak_rss_bytes", "bytes_per_node"]

# Every fig10_parallel k_<shards> cell must carry these numeric keys.
PARALLEL_CELL_KEYS = ["shards", "seconds", "events_per_sec", "windows",
                      "merged_entries", "speedup_vs_k1"]

# K=2 must beat K=1 by this much on a genuinely multi-core runner. The bar
# is deliberately below the 2x ideal: the barrier merge is serial and the
# synchronous-latency workload gives the smallest safe windows the engine
# ever sees, so 1.3x there is real parallel payoff.
PARALLEL_MIN_K2_SPEEDUP = 1.3

# Every bench_runtime t_<threads> cell must carry these keys (checker_passed
# is checked separately — it is a bool, not a number).
RUNTIME_CELL_KEYS = ["threads", "seconds", "ops_per_sec", "queue_messages",
                     "rt_hops_per_op", "hops_ratio", "speedup_vs_t1"]

# T=2 must beat T=1 by this much on a genuinely multi-core runner. The bar
# is modest: the runtime's token is a single serialization point (mutual
# exclusion is the workload), so multi-thread payoff comes only from
# overlapping queue-message routing with critical sections.
RUNTIME_MIN_T2_SPEEDUP = 1.05


def lookup(doc, dotted):
    cur = doc
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur if isinstance(cur, (int, float)) else None


def speedup(doc, metric, reference):
    value = lookup(doc, metric)
    ref = lookup(doc, reference)
    if value is None or ref is None or value <= 0 or ref <= 0:
        return None
    return value / ref


def check_fig10_scale(doc):
    """Schema- and budget-check a fresh run's fig10_scale section.

    Returns a list of error strings (empty when the section is absent: the
    scale tier is optional so older baselines keep gating).
    """
    section = doc.get("fig10_scale")
    if section is None:
        return []
    errors = []
    if not isinstance(section, dict):
        return ["fig10_scale is not an object"]
    budget = section.get("memory_budget_bytes_per_node")
    if not isinstance(budget, (int, float)) or isinstance(budget, bool) or budget <= 0:
        errors.append("fig10_scale.memory_budget_bytes_per_node missing or non-positive")
        budget = None
    cells = {k: v for k, v in section.items() if k.startswith("n_")}
    if not cells:
        errors.append("fig10_scale carries no n_<nodes> cells")
    for name, cell in sorted(cells.items()):
        if not isinstance(cell, dict):
            errors.append(f"fig10_scale.{name} is not an object")
            continue
        bad = [k for k in SCALE_CELL_KEYS
               if not isinstance(cell.get(k), (int, float))
               or isinstance(cell.get(k), bool)]
        if bad:
            errors.append(f"fig10_scale.{name} missing numeric {'/'.join(bad)}")
            continue
        if cell["nodes"] < 1 << 20:
            errors.append(f"fig10_scale.{name}.nodes={cell['nodes']} below the "
                          "2^20 scale floor")
        # peak_rss_bytes is 0 on platforms without getrusage — only gate the
        # budget where a real reading exists.
        if budget is not None and cell["peak_rss_bytes"] > 0 \
                and cell["bytes_per_node"] > budget:
            errors.append(f"fig10_scale.{name}: {cell['bytes_per_node']:.1f} "
                          f"bytes/node exceeds the {budget:.0f} B/node budget")
    return errors


def check_fig10_parallel(doc):
    """Schema- and speedup-check a fresh run's fig10_parallel section.

    Returns a list of error strings (empty when the section is absent, so
    baselines predating the sharded engine keep gating). The K=2 >= 1.3x
    speedup bar applies only when the run itself recorded
    hardware_concurrency >= 2 — a 1-core runner time-slices the lanes and
    can only lose, which says nothing about the engine.
    """
    section = doc.get("fig10_parallel")
    if section is None:
        return []
    if not isinstance(section, dict):
        return ["fig10_parallel is not an object"]
    errors = []
    for key in ("nodes", "rounds", "hardware_concurrency", "lookahead_ticks"):
        value = section.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            errors.append(f"fig10_parallel.{key} missing or non-positive")
    if section.get("results_identical_across_k") is not True:
        errors.append("fig10_parallel.results_identical_across_k is not true "
                      "(the bench asserts bit-identity in-process and emits the flag)")
    cells = {k: v for k, v in section.items() if k.startswith("k_")}
    for name in ("k_1", "k_2", "k_4"):
        if name not in cells:
            errors.append(f"fig10_parallel.{name} cell missing")
    for name, cell in sorted(cells.items()):
        if not isinstance(cell, dict):
            errors.append(f"fig10_parallel.{name} is not an object")
            continue
        bad = [k for k in PARALLEL_CELL_KEYS
               if not isinstance(cell.get(k), (int, float))
               or isinstance(cell.get(k), bool)]
        if bad:
            errors.append(f"fig10_parallel.{name} missing numeric {'/'.join(bad)}")
    if errors:
        return errors
    hw = section["hardware_concurrency"]
    k2 = section["k_2"]["speedup_vs_k1"]
    if hw >= 2 and k2 < PARALLEL_MIN_K2_SPEEDUP:
        errors.append(f"fig10_parallel: K=2 speedup {k2:.2f}x below the "
                      f"{PARALLEL_MIN_K2_SPEEDUP}x bar on a {hw:.0f}-core runner")
    return errors


def check_bench_runtime(doc):
    """Schema-check a fresh run's bench_runtime section (src/rt/).

    Returns a list of error strings (empty when the section is absent, so
    baselines predating the runtime tier keep gating). Hard requirements:
    checker_passed must be true in every cell — the history checker, not a
    golden, is the runtime's correctness oracle — and ops_per_sec must be
    positive. The T=2 speedup bar applies only when the run recorded
    hardware_concurrency >= 2 (a 1-core runner time-slices the workers and
    can only lose, which says nothing about the runtime).
    """
    section = doc.get("bench_runtime")
    if section is None:
        return []
    if not isinstance(section, dict):
        return ["bench_runtime is not an object"]
    errors = []
    # sim_hops_zero (emitted since the flag landed; absent in older runs
    # means false) marks a sim twin that predicted zero hops per op. The
    # hop-ratio columns are then 0-by-convention noise, not a comparison, so
    # the sim_hops_per_op positivity requirement is waived for such runs.
    sim_hops_zero = section.get("sim_hops_zero") is True
    required_positive = ["nodes", "rounds", "hardware_concurrency"]
    if not sim_hops_zero:
        required_positive.append("sim_hops_per_op")
    for key in required_positive:
        value = section.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            errors.append(f"bench_runtime.{key} missing or non-positive")
    if not isinstance(section.get("app"), str) or not section.get("app"):
        errors.append("bench_runtime.app missing")
    cells = {k: v for k, v in section.items() if k.startswith("t_")}
    for name in ("t_1", "t_2", "t_4"):
        if name not in cells:
            errors.append(f"bench_runtime.{name} cell missing")
    for name, cell in sorted(cells.items()):
        if not isinstance(cell, dict):
            errors.append(f"bench_runtime.{name} is not an object")
            continue
        bad = [k for k in RUNTIME_CELL_KEYS
               if not isinstance(cell.get(k), (int, float))
               or isinstance(cell.get(k), bool)]
        if bad:
            errors.append(f"bench_runtime.{name} missing numeric {'/'.join(bad)}")
            continue
        if cell["ops_per_sec"] <= 0:
            errors.append(f"bench_runtime.{name}.ops_per_sec is not positive")
        if cell.get("checker_passed") is not True:
            errors.append(f"bench_runtime.{name}.checker_passed is not true "
                          "(the history checker is the runtime's correctness oracle)")
    if errors:
        return errors
    hw = section["hardware_concurrency"]
    t2 = section["t_2"]["speedup_vs_t1"]
    if hw >= 2 and t2 < RUNTIME_MIN_T2_SPEEDUP:
        errors.append(f"bench_runtime: T=2 speedup {t2:.2f}x below the "
                      f"{RUNTIME_MIN_T2_SPEEDUP}x bar on a {hw:.0f}-core runner")
    return errors


SWEEP_PROTOCOLS = {"arrow", "arrow-loop", "centralized", "forwarding", "token"}

SWEEP_FAULTS = {"none", "loss", "dup", "jitter", "spike", "crash", "partition",
                "churn", "chaos"}

# Keys a scenario row carries exactly when it injects faults ("fault" is the
# sentinel). recovery_delta_units may be negative: it is the makespan delta
# against the cell's fault-free twin, and faults can reshuffle interleavings
# into a faster schedule.
SWEEP_FAULT_KEYS = [
    ("messages_dropped", int, False),
    ("messages_duplicated", int, False),
    ("crashes", int, False),
    ("stabilize_rounds", int, False),
    ("recovery_delta_units", (int, float), True),
]

# Fault tokens whose rows must additionally carry the partition/churn metric
# block (chaos schedules both axes). partition_delta_units mirrors
# recovery_delta_units' sign freedom.
SWEEP_PARTITION_FAULTS = {"partition", "churn", "chaos"}

SWEEP_PARTITION_KEYS = [
    ("partitions", int, False),
    ("partition_backlog_drained", int, False),
    ("partition_delta_units", (int, float), True),
    ("reselections", int, False),
]

# Numeric keys of a scenario's optional "runtime" block (--rt cross-
# validation). checker_passed and sim_hops_zero are bools, checked apart.
SWEEP_RUNTIME_KEYS = ["threads", "ops", "ops_per_sec", "queue_messages",
                      "rt_hops_per_op", "sim_hops_per_op", "hops_ratio"]

# (key, allowed types, allow negative). Every scenario row of an
# experiment-sweep JSON must carry all of them.
SWEEP_SCENARIO_KEYS = [
    ("label", str, False),
    ("protocol", str, False),
    ("topology", str, False),
    ("nodes", int, False),
    ("latency", str, False),
    ("workload", str, False),
    ("rounds", int, False),
    ("makespan_units", (int, float), False),
    ("total_requests", int, False),
    ("messages", int, False),
    ("total_hops", int, False),
    ("avg_hops_per_request", (int, float), False),
    ("avg_round_latency_units", (int, float), False),
    ("total_latency_units", (int, float), False),
    ("seconds", (int, float), False),
]

# Per-metric statistics inside a scenario's "replication" block; every metric
# object must carry all of them, numerically consistent (min <= mean <= max,
# ci_lo <= mean <= ci_hi, stddev >= 0).
REPLICATION_METRICS = [
    "makespan_units",
    "total_requests",
    "messages",
    "total_hops",
    "avg_hops_per_request",
    "avg_round_latency_units",
    "total_latency_units",
]
REPLICATION_STAT_KEYS = ["mean", "stddev", "min", "max", "ci_lo", "ci_hi"]


def check_replication(i, rep, declared_replicas, errors):
    """Schema-check one scenario's replication block."""
    if not isinstance(rep, dict):
        errors.append(f"scenario[{i}].replication is not an object")
        return
    replicas = rep.get("replicas")
    if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 2:
        errors.append(f"scenario[{i}].replication.replicas must be an int >= 2")
    elif declared_replicas is not None and replicas != declared_replicas:
        errors.append(f"scenario[{i}].replication.replicas={replicas} but top-level "
                      f"replicas={declared_replicas}")
    confidence = rep.get("confidence")
    if not isinstance(confidence, (int, float)) or not 0.0 < confidence < 1.0:
        errors.append(f"scenario[{i}].replication.confidence must be in (0, 1)")
    for metric in REPLICATION_METRICS:
        stats = rep.get(metric)
        if not isinstance(stats, dict):
            errors.append(f"scenario[{i}].replication.{metric} missing or not an object")
            continue
        bad = [k for k in REPLICATION_STAT_KEYS
               if not isinstance(stats.get(k), (int, float))
               or isinstance(stats.get(k), bool)]
        if bad:
            errors.append(f"scenario[{i}].replication.{metric} missing numeric "
                          f"{'/'.join(bad)}")
            continue
        if stats["stddev"] < 0:
            errors.append(f"scenario[{i}].replication.{metric}.stddev is negative")
        eps = 1e-9 + 1e-9 * abs(stats["mean"])
        if not stats["min"] - eps <= stats["mean"] <= stats["max"] + eps:
            errors.append(f"scenario[{i}].replication.{metric}: mean outside [min, max]")
        if not stats["ci_lo"] - eps <= stats["mean"] <= stats["ci_hi"] + eps:
            errors.append(f"scenario[{i}].replication.{metric}: mean outside [ci_lo, ci_hi]")


def validate_sweep(path):
    with open(path) as f:
        doc = json.load(f)
    errors = []
    if doc.get("bench") != "experiment_sweep":
        errors.append(f'bench must be "experiment_sweep", got {doc.get("bench")!r}')
    for key in ("threads", "seed", "scenario_count", "total_requests", "wall_seconds"):
        if not isinstance(doc.get(key), (int, float)):
            errors.append(f"missing or non-numeric top-level key {key!r}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("scenarios must be a non-empty array")
        scenarios = []
    if isinstance(doc.get("scenario_count"), int) and len(scenarios) != doc["scenario_count"]:
        errors.append(f"scenario_count={doc['scenario_count']} but "
                      f"{len(scenarios)} scenario rows")
    # Older sweep JSONs predate the replicas key; when present and >= 2,
    # every scenario row must carry a replication block.
    declared_replicas = doc.get("replicas")
    if declared_replicas is not None and (not isinstance(declared_replicas, int)
                                          or isinstance(declared_replicas, bool)
                                          or declared_replicas < 1):
        errors.append(f"top-level replicas must be an int >= 1, got {declared_replicas!r}")
        declared_replicas = None
    replicated_rows = 0
    fault_rows = 0
    protocols_seen = set()
    for i, row in enumerate(scenarios):
        if not isinstance(row, dict):
            errors.append(f"scenario[{i}] is not an object")
            continue
        for key, types, _ in SWEEP_SCENARIO_KEYS:
            value = row.get(key)
            if not isinstance(value, types) or isinstance(value, bool):
                errors.append(f"scenario[{i}].{key} missing or wrong type "
                              f"({type(value).__name__})")
            elif isinstance(value, (int, float)) and value < 0:
                errors.append(f"scenario[{i}].{key} is negative ({value})")
        proto = row.get("protocol")
        if isinstance(proto, str):
            protocols_seen.add(proto)
            if proto not in SWEEP_PROTOCOLS:
                errors.append(f"scenario[{i}].protocol {proto!r} not one of "
                              f"{sorted(SWEEP_PROTOCOLS)}")
        fault = row.get("fault")
        if fault is not None:
            fault_rows += 1
            if not isinstance(fault, str) or fault not in SWEEP_FAULTS:
                errors.append(f"scenario[{i}].fault {fault!r} not one of "
                              f"{sorted(SWEEP_FAULTS)}")
            for key, types, allow_negative in SWEEP_FAULT_KEYS:
                value = row.get(key)
                if not isinstance(value, types) or isinstance(value, bool):
                    errors.append(f"scenario[{i}].{key} missing or wrong type "
                                  f"({type(value).__name__})")
                elif not allow_negative and value < 0:
                    errors.append(f"scenario[{i}].{key} is negative ({value})")
            if fault in SWEEP_PARTITION_FAULTS:
                for key, types, allow_negative in SWEEP_PARTITION_KEYS:
                    value = row.get(key)
                    if not isinstance(value, types) or isinstance(value, bool):
                        errors.append(f"scenario[{i}].{key} missing or wrong type "
                                      f"({type(value).__name__})")
                    elif not allow_negative and value < 0:
                        errors.append(f"scenario[{i}].{key} is negative ({value})")
            elif "partitions" in row:
                errors.append(f"scenario[{i}] carries partition metrics but fault "
                              f"{fault!r} schedules no partitions or churn")
        elif "partitions" in row:
            errors.append(f"scenario[{i}] carries partition metrics without a fault")
        rt = row.get("runtime")
        if rt is not None:
            if not isinstance(rt, dict):
                errors.append(f"scenario[{i}].runtime is not an object")
            else:
                bad = [k for k in SWEEP_RUNTIME_KEYS
                       if not isinstance(rt.get(k), (int, float))
                       or isinstance(rt.get(k), bool)]
                if bad:
                    errors.append(f"scenario[{i}].runtime missing numeric "
                                  f"{'/'.join(bad)}")
                if rt.get("checker_passed") is not True:
                    errors.append(f"scenario[{i}].runtime.checker_passed is not true")
                if not isinstance(rt.get("sim_hops_zero"), bool):
                    errors.append(f"scenario[{i}].runtime.sim_hops_zero missing or "
                                  "not a bool")
                # sim_hops_zero marks the sim/runtime hop comparison as
                # not-comparable (the sim twin predicted zero hops); only a
                # comparable cell must carry a positive ratio.
                elif not rt["sim_hops_zero"] \
                        and isinstance(rt.get("hops_ratio"), (int, float)) \
                        and rt.get("hops_ratio") <= 0:
                    errors.append(f"scenario[{i}].runtime.hops_ratio is not positive "
                                  "on a comparable cell")
        rep = row.get("replication")
        if rep is not None:
            replicated_rows += 1
            check_replication(i, rep, declared_replicas, errors)
        elif isinstance(declared_replicas, int) and declared_replicas >= 2:
            errors.append(f"scenario[{i}] missing replication block despite "
                          f"top-level replicas={declared_replicas}")
    if errors:
        for e in errors[:20]:
            print(f"bench_gate: sweep schema error: {e}", file=sys.stderr)
        if len(errors) > 20:
            print(f"bench_gate: ... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    rep_note = (f", {replicated_rows} with replication stats"
                if replicated_rows else "")
    fault_note = f", {fault_rows} with fault injection" if fault_rows else ""
    print(f"bench_gate: sweep JSON OK — {len(scenarios)} scenarios across "
          f"{len(protocols_seen)} protocol(s): {', '.join(sorted(protocols_seen))}"
          f"{rep_note}{fault_note}")
    return 0


# Keys that legitimately differ between two runs of the same scenarios:
# wall-clock timings, and the shard count itself (the whole point of the
# comparison is that K must not change anything else).
COMPARE_VOLATILE_KEYS = {"seconds", "wall_seconds", "shards"}


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in COMPARE_VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def compare_sweeps(path_a, path_b):
    """Bit-identity check between two sweep JSONs modulo timing/shard keys.

    The CI perf-smoke job runs the same Figure-10 cell serial (K=1) and
    sharded (K=2) and feeds both here: every simulation observable —
    makespans, message counts, hop totals, replication statistics, fault
    metrics — must match exactly, or the sharded engine's determinism
    guarantee is broken.
    """
    with open(path_a) as f:
        a = _strip_volatile(json.load(f))
    with open(path_b) as f:
        b = _strip_volatile(json.load(f))
    if a != b:
        keys = sorted(set(a) | set(b))
        for k in keys:
            if a.get(k) != b.get(k):
                print(f"bench_gate: sweep outputs differ at top-level key {k!r}",
                      file=sys.stderr)
        print(f"bench_gate: {path_a} and {path_b} are NOT identical modulo "
              f"{sorted(COMPARE_VOLATILE_KEYS)}", file=sys.stderr)
        return 1
    print(f"bench_gate: {path_a} and {path_b} identical modulo "
          f"{sorted(COMPARE_VOLATILE_KEYS)}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.20)
    ap.add_argument("--validate-sweep", metavar="SWEEP_JSON",
                    help="schema-check a sweep_main --json output instead of gating")
    ap.add_argument("--compare-sweeps", nargs=2, metavar=("A_JSON", "B_JSON"),
                    help="require two sweep_main --json outputs to be identical "
                         "modulo timing keys (the sharded-determinism smoke)")
    args = ap.parse_args()

    if args.compare_sweeps:
        return compare_sweeps(*args.compare_sweeps)
    if args.validate_sweep:
        return validate_sweep(args.validate_sweep)
    if args.baseline is None or args.fresh is None:
        ap.error("baseline and fresh JSON paths are required unless --validate-sweep is used")

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    if baseline.get("mode") != fresh.get("mode"):
        print(f"bench_gate: WARNING comparing mode={baseline.get('mode')} baseline "
              f"against mode={fresh.get('mode')} fresh run — shapes differ, "
              "expect extra variance", file=sys.stderr)

    compared = 0
    failures = []
    for metric, reference, label, row_tol in RATIOS:
        base_s = speedup(baseline, metric, reference)
        fresh_s = speedup(fresh, metric, reference)
        if base_s is None or fresh_s is None:
            missing = [name for name, s in (("baseline", base_s), ("fresh", fresh_s))
                       if s is None]
            print(f"  [FAIL] {label:44s} {metric} / {reference} missing or "
                  f"non-positive in the {' and '.join(missing)} JSON")
            failures.append(label)
            continue
        compared += 1
        tol = args.tolerance if row_tol is None else row_tol
        ratio = fresh_s / base_s
        status = "OK "
        if ratio < 1.0 - tol:
            status = "FAIL"
            failures.append(label)
        print(f"  [{status}] {label:44s} speedup {base_s:6.2f}x -> "
              f"{fresh_s:6.2f}x  ({ratio:5.2f} of baseline, tol {tol:.0%})")

    scale_errors = check_fig10_scale(fresh)
    for e in scale_errors:
        print(f"  [FAIL] {e}")
        failures.append("fig10_scale")
    if not scale_errors and "fig10_scale" in fresh:
        print("  [OK ] fig10_scale schema + memory budget")

    parallel_errors = check_fig10_parallel(fresh)
    for e in parallel_errors:
        print(f"  [FAIL] {e}")
        failures.append("fig10_parallel")
    if not parallel_errors and "fig10_parallel" in fresh:
        hw = fresh["fig10_parallel"].get("hardware_concurrency", 0)
        note = ("schema + K=2 speedup bar" if hw >= 2
                else "schema only (1-core runner, speedup bar skipped)")
        print(f"  [OK ] fig10_parallel {note}")

    runtime_errors = check_bench_runtime(fresh)
    for e in runtime_errors:
        print(f"  [FAIL] {e}")
        failures.append("bench_runtime")
    if not runtime_errors and "bench_runtime" in fresh:
        hw = fresh["bench_runtime"].get("hardware_concurrency", 0)
        note = ("schema + checker + T=2 speedup bar" if hw >= 2
                else "schema + checker (1-core runner, speedup bar skipped)")
        print(f"  [OK ] bench_runtime {note}")

    if failures:
        print(f"bench_gate: {len(failures)} check(s) failed: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"bench_gate: {compared} metric(s) within {args.tolerance:.0%} of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
