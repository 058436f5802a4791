#!/usr/bin/env python3
"""The repository benchmark: three closed-loop workloads against the five reclamation
schemes a user would pick (DEBRA, DEBRA+, HP, EBR, IBR).

    python3 perfbench/run.py --workload bst_update --seed 1 --seconds 30 --trace 0

Run from the repository root.  The script builds the `perfbench` package (a package of
its own under perfbench/, depending on the library crates by path) into
$CARGO_TARGET_DIR (default .bench_build), then runs every cell — one workload against
one (scheme x pool x allocator) composition — in a fresh process, one after another.
Each cell verifies its structure's final contents.

--trace 0 is the gated run: every end-to-end metric, measured with tracing off.
--trace 1 is the traced run: the per-layer metrics (spans, counters, probes and the
ladder of memory compositions), with the spans written under .bench_out/.

The last line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every cell ran and verified.
See perfbench/BENCHMARK.md for what each metric means and which layer should move it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# Library crates the benchmark builds against; without them there is nothing to measure.
REQUIRED = [MANIFEST] + [
    os.path.join("crates", c, "Cargo.toml")
    for c in ("core", "datastructures", "alloc", "baselines", "ibr", "pagepool", "queue")
]

SCHEMES = ["debra", "debra_plus", "hp", "ebr", "ibr"]
WORKLOADS = ["bst_update", "skiplist_read", "queue_stalled"]
# The gated run runs each scheme once per round, each time in a fresh process.
ROUNDS = 9
# Bump memory a never-reusing ladder rung may hand out before it stops early.
BYTE_CAP = 96 << 20
# A cell still running this long after its timed phase should have ended is killed and
# reported as hung; so is any cell still running RUN_BUDGET_S after the build.
GRACE_S = 20
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise Failure("cargo build of perfbench failed")
    return os.path.join(target_dir, "release", "perfbench")


class Runner:
    """Runs cell and probe processes, one at a time, and keeps the failure ledger."""

    def __init__(self, binary, seed, threads):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.binary = binary
        self.seed = seed
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _spawn(self, name, args, budget_s):
        timeout = min(budget_s + GRACE_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, f"{name}: not started, the run's time budget is spent"
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [self.binary] + args,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            # subprocess.run has killed and reaped the child.
            return None, f"{name}: hung, killed after {timeout:.0f} s"
        log(f"{name}: {time.monotonic() - started:.2f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"{name}: exit code {proc.returncode}: {' | '.join(tail)}"
        try:
            return json.loads(lines[-1]), None
        except json.JSONDecodeError:
            return None, f"{name}: unreadable result line {lines[-1][:200]!r}"

    def _fail(self, error, attempted):
        log(f"FAILED {error}")
        self.errors.append(error)
        self.attempted += attempted
        self.failed += attempted

    def cell(self, workload, scheme, memory, millis, traced=False, trace_out=None,
             byte_cap=None, samples_out=None):
        name = f"{workload}/{scheme}/{memory}" + ("/traced" if traced else "")
        args = [
            "cell", "--workload", workload, "--scheme", scheme, "--memory", memory,
            "--seed", str(self.seed), "--threads", str(self.threads[workload]),
            "--millis", str(millis),
        ]
        if traced:
            args.append("--traced")
        if trace_out:
            args += ["--trace-out", trace_out]
        if byte_cap:
            args += ["--byte-cap", str(byte_cap)]
        if samples_out:
            args += ["--samples-out", samples_out]
        out, error = self._spawn(name, args, millis / 1000 + 10)
        if out is None:
            # Nothing is known of a hung cell's count; one failed operation marks it.
            self._fail(error, 1)
            return None
        if not out["correct"]:
            self._fail(f"{name}: verification failed: {out['error']}", out["attempted"])
            return None
        self.attempted += out["attempted"]
        return out

    def pooled_p95(self, name, paths):
        """p95 over the latency samples of several cells together."""
        out, error = self._spawn(f"p95/{name}", ["p95"] + paths, 10)
        if out is None or out["p95_ns"] is None:
            self._fail(error or f"{name}: too few latency samples for p95", 1)
            return None
        return out

    def probe(self, scheme, millis, trace_out):
        name = f"probe/{scheme}"
        args = ["probe", "--scheme", scheme, "--threads", str(self.threads["probe"]),
                "--millis", str(millis), "--trace-out", trace_out]
        out, error = self._spawn(name, args, millis / 1000 + 10)
        if out is None:
            self._fail(error, 1)
        return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def expected_names(trace):
    """Every metric a run must report: the gated run's end-to-end metrics, or the traced
    run's per-layer metrics.  The same names on every workload."""
    if not trace:
        return {"setup_s"} | {f"{m}.{s}" for s in SCHEMES
                              for m in ("mops", "p95_ns", "limbo_mean_kib")}
    per_scheme = [
        "reclaim.pin_ns", "reclaim.protect_ns", "reclaim.retire_ns",
        "reclaim.retired_per_op", "reclaim.freed_ratio", "reclaim.epochs_per_kop",
        "reclaim.stalls_per_kop", "reclaim.limbo_peak_kib", "guard.pin_ns",
        "guard.protect_ns", "pool.hit_pct", "pool.pages_mapped", "pool.alloc_ns",
        "ds.op_p50_ns", "ds.update_p50_ns", "ladder.reclaim_ns", "ladder.pool_ns",
        "ladder.pagepool_ns",
    ]
    return {f"{m}.{s}" for s in SCHEMES for m in per_scheme} | {
        "neutralize.signals_per_kop.debra_plus", "neutralize.neutralized.debra_plus",
        "ladder.floor_ns", "trace.overhead_pct",
    }


def gated(run, workload, seconds, out_dir):
    """The end-to-end metrics, tracing off: every scheme over the page pool, in ROUNDS
    interleaved rounds (each round in its own scheme order).  Per scheme: the trimmed mean
    over rounds of throughput and limbo (a cell's speed depends on its process's placement
    and is often bimodal, where a median jumps between modes), the p95 of all rounds'
    latency samples pooled, and the median set-up time."""
    millis = seconds * 1000 // (len(SCHEMES) * ROUNDS)
    os.makedirs(out_dir, exist_ok=True)
    outs = {s: [] for s in SCHEMES}
    samples = {s: [] for s in SCHEMES}
    for r in range(ROUNDS):
        for s in SCHEMES[r:] + SCHEMES[:r]:
            path = os.path.join(out_dir, f"{s}.{r}.latency")
            out = run.cell(workload, s, "pagepool", millis, samples_out=path)
            if out is not None:
                outs[s].append(out)
                samples[s].append(path)
    metrics, setup_total, table = {}, 0.0, []
    for s in SCHEMES:
        p95 = run.pooled_p95(f"{workload}/{s}", samples[s]) if outs[s] else None
        if p95 is None:
            continue
        med = lambda key: trimmed_mean([o[key] for o in outs[s]])
        setup = statistics.median(o["setup_s"] for o in outs[s])
        setup_total += setup
        metrics[f"mops.{s}"] = metric(med("mops"), "Mops/s")
        metrics[f"p95_ns.{s}"] = metric(p95["p95_ns"], "ns")
        metrics[f"limbo_mean_kib.{s}"] = metric(med("limbo_mean_bytes") / 1024, "KiB")
        table.append(
            f"  {s:11} {med('mops'):9.4f} Mops/s   p95 {p95['p95_ns']:7.0f} ns "
            f"(n={p95['samples']})   limbo mean {med('limbo_mean_bytes') / 1024:10.1f} KiB   "
            f"setup {setup:.4f} s   ops {sum(o['attempted'] for o in outs[s])}"
        )
    metrics["setup_s"] = metric(setup_total, "s")
    return metrics, table


def trimmed_mean(values):
    """The mean without the lowest and the highest value (when there are five or more)."""
    v = sorted(values)
    if len(v) >= 5:
        v = v[1:-1]
    return statistics.fmean(v)


def ns_per_op(out, threads):
    return threads * 1e3 / out["mops"]


def traced(run, workload, seconds, out_dir):
    """The per-layer metrics: traced and untraced cells, probes, and the ladder."""
    millis = seconds * 1000 // 20
    threads = run.threads[workload]
    os.makedirs(out_dir, exist_ok=True)
    m = {}
    floor = run.cell(workload, "none", "bump", millis, byte_cap=BYTE_CAP)
    if floor is not None:
        m["ladder.floor_ns"] = metric(ns_per_op(floor, threads), "ns")
    sum_traced = sum_plain = 0.0
    for s in SCHEMES:
        plain = run.cell(workload, s, "pagepool", millis)
        tr = run.cell(workload, s, "pagepool", millis, traced=True,
                      trace_out=os.path.join(out_dir, f"{s}.cell.csv"))
        probe = run.probe(s, millis, os.path.join(out_dir, f"{s}.probe.csv"))
        bump = run.cell(workload, s, "bump", millis, byte_cap=BYTE_CAP)
        pooled = run.cell(workload, s, "bump_pool", millis, byte_cap=BYTE_CAP)
        if plain is not None:
            ops = max(plain["timed_ops"], 1)
            retired = max(plain["retired"], 1)
            m[f"reclaim.retired_per_op.{s}"] = metric(plain["retired"] / ops, "ratio")
            m[f"reclaim.freed_ratio.{s}"] = metric(plain["reclaimed"] / retired, "ratio")
            m[f"reclaim.epochs_per_kop.{s}"] = metric(plain["epochs"] * 1e3 / ops, "1/kop")
            m[f"reclaim.stalls_per_kop.{s}"] = metric(plain["stalls"] * 1e3 / ops, "1/kop")
            m[f"reclaim.limbo_peak_kib.{s}"] = metric(plain["limbo_hwm_bytes"] / 1024, "KiB")
            allocs = max(plain["pool_hits"] + plain["pool_misses"], 1)
            m[f"pool.hit_pct.{s}"] = metric(100 * plain["pool_hits"] / allocs, "%")
            m[f"pool.pages_mapped.{s}"] = metric(plain["pages_mapped"], "count")
            if s == "debra_plus":
                m["neutralize.signals_per_kop.debra_plus"] = metric(
                    plain["signals"] * 1e3 / ops, "1/kop")
                m["neutralize.neutralized.debra_plus"] = metric(plain["neutralized"], "count")
        if tr is not None:
            for key in ("op_p50_ns", "update_p50_ns"):
                if tr[key] is not None:
                    m[f"ds.{key}.{s}"] = metric(tr[key], "ns")
        if tr is not None and plain is not None:
            sum_traced += tr["mops"]
            sum_plain += plain["mops"]
        if probe is not None:
            calls = probe["ns_per_call"]
            for layer in ("reclaim.pin", "reclaim.protect", "reclaim.retire", "guard.pin",
                          "guard.protect"):
                m[f"{layer}_ns.{s}"] = metric(calls[layer], "ns")
            m[f"pool.alloc_ns.{s}"] = metric(calls["pool.alloc"], "ns")
        rungs = [floor, bump, pooled, plain]
        names = ["reclaim", "pool", "pagepool"]
        for name, lower, upper in zip(names, rungs, rungs[1:]):
            if lower is not None and upper is not None:
                m[f"ladder.{name}_ns.{s}"] = metric(
                    ns_per_op(upper, threads) - ns_per_op(lower, threads), "ns")
    if sum_plain > 0:
        m["trace.overhead_pct"] = metric(100 * (1 - sum_traced / sum_plain), "%")
    return m


def run_metadata():
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    commit = first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(ROOT, ".git")) else "unknown (not a git checkout)"
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "rustc": first_line(["rustc", "--version"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log(f"perfbench: not a repository checkout (missing {', '.join(missing)})")
        return 2
    if args.seconds < 1:
        log("perfbench: --seconds must be at least 1")
        return 2

    meta = run_metadata()
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    started = time.monotonic()
    try:
        binary = build(target_dir)
    except (Failure, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    nproc = meta["nproc"]
    # Total threads never exceed nproc: queue_stalled's laggard takes one of them.
    threads = {w: nproc for w in WORKLOADS}
    threads["queue_stalled"] = max(1, nproc - 1)
    threads["probe"] = nproc
    run = Runner(binary, args.seed, threads)

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={meta['commit']} nproc={nproc} rustc={meta['rustc']} "
          f"workers={threads[args.workload]} (build {time.monotonic() - started:.1f} s)")
    if args.trace:
        metrics = traced(run, args.workload, args.seconds,
                         os.path.join(ROOT, ".bench_out", args.workload))
        for name in sorted(metrics):
            print(f"  {name:42} {metrics[name]['value']:14.4f} {metrics[name]['unit']}")
    else:
        metrics, table = gated(run, args.workload, args.seconds,
                               os.path.join(ROOT, ".bench_out", args.workload, "gated"))
        print("\n".join(table))
        print(f"  setup_s (sum over schemes of the median of {ROUNDS} set-ups) "
              f"{metrics['setup_s']['value']:.4f} s")
    missing = sorted(expected_names(args.trace) - metrics.keys())
    if missing and not run.errors:
        run.errors.append(f"not measured: {', '.join(missing)}")
    for e in run.errors:
        print(f"FAILED {e}")
    correct = not run.errors
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
