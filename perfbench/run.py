#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

The first form builds the benchmark program (bench.exe) and the daemon with
dune, runs one workload in parts, and prints the run record and then, as the
last line of standard output, the result object.  The second form runs every
workload for a few requests, checks that every metric BENCHMARK.json names is
emitted with its unit, and that a deliberately wrong expected verdict is
counted as failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
SOURCES = ("dune-project", "lib", "bin", "perfbench")
PART_SLACK_S = 15


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# Each process of an untraced run runs on one CPU, and every worker count
# (campaign jobs, shard workers, daemon workers and handlers) is sized to it.
# On a shared virtual machine, threads that wait on each other across CPUs
# wait for as long as the hypervisor steals the other CPU, which made those
# figures swing by 2x within minutes.  The speed of a single CPU also differs
# from one CPU to the next, so a run alternates its parts between the first
# and the last CPU it may use.  A traced run, whose figures have no bound,
# runs on all of them, so that the pool and the shard crew run in parallel
# (see README.md).
ALL_CPUS = os.sched_getaffinity(0)
CPUS = sorted({min(ALL_CPUS), max(ALL_CPUS)})


def source_id():
    """The git commit when there is one, else a digest of the built sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base]
        if os.path.isdir(base):
            paths = sorted(os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    for needed in ("dune-project", "lib", "bin", "test/campaign_seed.canonical"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/mechaverify.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        fail("build failed")


# A run is split into parts, each a process set up on its own, PARTS_PER_CPU
# on every CPU of CPUS: process-to-process and CPU-to-CPU differences then
# average out within a run instead of between runs.  A part may take its
# share of the run's seconds plus PART_SLACK_S for set-up.
PARTS_PER_CPU = 5

# A traced run has no bound to meet and runs each part on all CPUs, so two
# parts are enough; its explore requests take about a second each.
TRACED_PARTS = 2

# A run's 90th percentile needs at least ten requests above it.
MIN_REQUESTS = 100

# The time the probe of bench.ml takes on an uncontended CPU of the 2-vCPU
# Xeon virtual machine the benchmark was tuned on: the end-to-end times are
# given at the CPU speed at which the probe takes this long (see README.md).
PROBE_REF_MS = 0.32

END_TO_END = [("setup_s", "s"), ("verdicts_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mib", "MiB")]

# Every per-layer metric with its unit; a layer a workload does not load
# reports 0.  README.md says how each is measured.
PER_LAYER = [
    ("closure.busy_ms", "ms"), ("closure.states", "count"), ("closure.delta_edges", "count"),
    ("closure.alloc_mib", "MiB"), ("product.busy_ms", "ms"), ("product.states", "count"),
    ("product.reused_frac", "ratio"), ("fixpoint.busy_ms", "ms"), ("check.busy_ms", "ms"),
    ("check.warm_frac", "ratio"), ("test.busy_ms", "ms"), ("test.runs", "count"),
    ("test.steps", "count"), ("loop.other_ms", "ms"), ("loop.iterations", "count"),
    ("cache.lookups", "count"), ("cache.hit_frac", "ratio"), ("pool.busy_frac", "ratio"),
    ("pool.idle_ms", "ms"), ("shard.narrow.build_ms", "ms"), ("shard.wide.build_ms", "ms"),
    ("shard.states_per_s", "1/s"), ("shard.workers", "count"), ("shard.spills", "count"),
    ("shardsat.narrow.busy_ms", "ms"), ("shardsat.wide.busy_ms", "ms"),
    ("serve.accept_ms", "ms"), ("serve.first_verdict_ms", "ms"), ("serve.tail_ms", "ms"),
    ("serve.rejects", "count"), ("unaccounted_ms", "ms"), ("trace.verdicts_per_s", "1/s"),
    ("untraced.verdicts_per_s", "1/s"), ("trace.overhead_ratio", "ratio"),
    ("run.nproc", "count"), ("run.jobs", "count"), ("run.workers", "count"),
    ("run.shards", "count"), ("run.requests", "count"),
]


def quantile(values, q):
    """Linear interpolation between closest ranks; 0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    i = int(pos)
    if i + 1 >= len(v):
        return v[i]
    return v[i] + (pos - i) * (v[i + 1] - v[i])


def ratio(a, b):
    return a / b if b > 0 else 0.0


def run_bench(args, cpus, timeout):
    cmd = [BENCH_EXE, "--root", ROOT, "--commit", source_id()] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        fail("bench.exe overran its time limit")
    if done.returncode != 0:
        fail(f"bench.exe exited with status {done.returncode}")
    return done.stdout


def run_parts(workload, seed, seconds, trace, parts_per_cpu, extra=()):
    """Runs the parts of one run, alternating CPUs; returns each part's run
    record, request lines and summary, tagged with its CPUs."""
    if trace:
        plan = [ALL_CPUS] * TRACED_PARTS
    else:
        plan = [{CPUS[k % len(CPUS)]} for k in range(parts_per_cpu * len(CPUS))]
    parts = []
    share = seconds / len(plan)
    for k, cpus in enumerate(plan):
        out = run_bench(["--workload", workload, "--seed", str(seed),
                         "--seconds", repr(share), "--trace", str(trace),
                         "--part", str(k), *extra], cpus, share + PART_SLACK_S)
        part = {"cpus": sorted(cpus), "requests": []}
        for line in out.splitlines():
            obj = json.loads(line)
            if "request" in obj:
                part["requests"].append(obj["request"])
            else:
                part.update(obj)
        if "run" not in part or "done" not in part:
            fail("a part of the run ended without its summary")
        parts.append(part)
    return parts


def end_to_end(parts):
    """The run's figures at the reference CPU speed, and the same figures as
    timed.  A request's time is scaled by PROBE_REF_MS over the mean of the
    probes just before and after it, a part's set-up time by PROBE_REF_MS
    over the mean of its set-up probes.  Throughput and latency percentiles
    are over every timed request of every part, set-up time and peak memory
    the median over the parts, each of which set up on its own."""
    scaled, walls, setups, raw_setups, slowdowns = [], [], [], [], []
    for p in parts:
        for r in p["requests"]:
            seen = (r["probe_before_ms"] + r["probe_after_ms"]) / 2
            scaled.append((r["verdicts"], r["wall_ms"] * ratio(PROBE_REF_MS, seen)))
            walls.append(r["wall_ms"])
            slowdowns.append(ratio(seen, PROBE_REF_MS))
        setup_probes = p["done"]["setup_probes_ms"]
        raw_setups.append(p["done"]["setup_s"])
        setups.append(p["done"]["setup_s"] * ratio(PROBE_REF_MS, sum(setup_probes) / len(setup_probes)))
    if len(walls) < MIN_REQUESTS:
        print(f"perfbench: only {len(walls)} timed requests; latency_p90_ms rests on "
              f"fewer than {MIN_REQUESTS // 10} samples above it", file=sys.stderr)
    verdicts = sum(v for v, _ in scaled)
    times = [t for _, t in scaled]
    values = {
        "setup_s": quantile(setups, 0.5),
        "verdicts_per_s": ratio(verdicts, sum(times) / 1e3),
        "latency_p50_ms": quantile(times, 0.5),
        "latency_p90_ms": quantile(times, 0.9),
        "peak_rss_mib": quantile([p["done"]["peak_rss_mib"] for p in parts], 0.5),
    }
    as_timed = {
        "setup_s": quantile(raw_setups, 0.5),
        "verdicts_per_s": ratio(verdicts, sum(walls) / 1e3),
        "latency_p50_ms": quantile(walls, 0.5),
        "latency_p90_ms": quantile(walls, 0.9),
        "slowdown": sum(slowdowns) / len(slowdowns) if slowdowns else 0.0,
    }
    return values, as_timed


def per_layer(record, requests):
    traced = [r for r in requests if r["traced"]]
    untraced = [r for r in requests if not r["traced"]]

    def vps(rs):
        return ratio(sum(r["verdicts"] for r in rs), sum(r["wall_ms"] for r in rs) / 1e3)

    def median_of(name):
        return quantile([r["ledger"][name] for r in traced if name in r["ledger"]], 0.5)

    special = {
        "unaccounted_ms": lambda: quantile([r["wall_ms"] - r["accounted_ms"] for r in traced],
                                           0.5),
        "serve.rejects": lambda: sum(r["ledger"].get("serve.rejects", 0) for r in requests),
        "trace.verdicts_per_s": lambda: vps(traced),
        "untraced.verdicts_per_s": lambda: vps(untraced),
        "trace.overhead_ratio": lambda: ratio(vps(untraced), vps(traced)),
        "run.nproc": lambda: record["nproc"],
        "run.jobs": lambda: record["jobs"],
        "run.workers": lambda: record["workers"],
        "run.shards": lambda: record["shards"],
        "run.requests": lambda: len(traced),
    }
    return {name: special.get(name, lambda: median_of(name))() for name, _ in PER_LAYER}


def measure(workload, seed, seconds, trace, parts_per_cpu=PARTS_PER_CPU, extra=()):
    parts_out = run_parts(workload, seed, seconds, trace, parts_per_cpu, extra)
    requests = [r for p in parts_out for r in p["requests"]]
    record = dict(parts_out[0]["run"], seconds=seconds, parts=len(parts_out),
                  requests=len(requests),
                  cpus=sorted(ALL_CPUS) if trace else CPUS,
                  cpus_available=len(ALL_CPUS))
    record.pop("part", None)
    if trace:
        values, units = per_layer(record, requests), PER_LAYER
    else:
        values, record["as_timed"] = end_to_end(parts_out)
        units = END_TO_END
    print(json.dumps({"run": record}))
    attempted = sum(p["done"]["attempted"] for p in parts_out)
    failed = sum(p["done"]["failed"] for p in parts_out)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return result


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def result(workload, trace, *extra):
        return measure(workload, 7, 5.0, trace, parts_per_cpu=1,
                       extra=("--max-requests", "4", *extra))

    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = result(name, trace)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name} --trace {trace}: not correct")
            got = res["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{name} --trace {trace}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name} --trace {trace}: {m['name']} has unit "
                                    f"{got[m['name']]['unit']}, not {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{name} --trace {trace}: unexpected {sorted(extra)}")
        wrong = result(name, 0, "--expect-wrong")
        if wrong["correct"] or wrong["failed"] < 1:
            problems.append(f"{name}: a wrong expected verdict was not counted as failed")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print(json.dumps({"self_check": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and not a.workload:
        p.error("--workload is required")
    build()
    if a.self_check:
        return self_check()
    measure(a.workload, a.seed, a.seconds, a.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
