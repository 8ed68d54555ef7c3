#!/usr/bin/env python3
"""semcom benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload semantic_snr_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing. With ``--trace 1`` it runs a fixed number of rounds (sized from
``--seconds``), each one untraced and then traced, and reports the
per-layer metrics of the traced pass and the tracing overhead. Both print a
``record`` line (output digests, counts, versions) and then the result
line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("semantic_snr_sweep", "traditional_snr_sweep", "rate_search",
             "channel_ber")

#: Fresh-interpreter set-ups timed per untraced run, spread over the run
#: between its rounds; the median is reported.
SETUP_PROBES = 10

#: Seconds one untraced round takes with one worker, measured on a 2-core
#: x86-64 VM. A traced run makes round(seconds / 2 / this) rounds, each
#: once untraced and once traced, so its counts depend only on (seed, seconds).
ROUND_SECONDS = {
    "semantic_snr_sweep": 1.3,
    "traditional_snr_sweep": 10.0,
    "rate_search": 1.2,
    "channel_ber": 0.25,
}


#: Counts of a traced pass that are exact functions of (seed, seconds).
EXACT_COUNTS = ("encoder.encode.calls", "encoder.fit_shape.round.calls",
                "phy.transmit_packet.mbit")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_semcom():
    """Put the checkout's ``src`` first on the path and import semcom from it."""
    if not (SRC / "semcom" / "__init__.py").is_file():
        raise SystemExit(f"error: no semcom sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import semcom
    if Path(semcom.__file__).resolve().parent != SRC / "semcom":
        raise SystemExit(f"error: imported semcom from {semcom.__file__}, not {SRC}")


def setup_seconds() -> float:
    """Set-up time of one fresh interpreter, in seconds."""
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "setup_probe.py"),
                          str(SRC)], capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def private_kb(pid: int) -> int:
    """Memory that process ``pid`` shares with no other process, in KiB."""
    with open(f"/proc/{pid}/smaps_rollup") as f:
        return sum(int(line.split()[1]) for line in f
                   if line.startswith(("Private_Clean:", "Private_Dirty:")))


def counting_pool_memory(pools_kb: list):
    """``harness``'s pool class, made to note its workers' memory at shutdown.

    A worker is forked from this process and shares most of its pages with
    it copy-on-write; only the pages it holds alone add to the run's
    footprint. When the pool shuts down, its work is done and its workers
    still live: the sum of their private memory is appended to ``pools_kb``.
    """
    import multiprocessing
    from semcom import harness

    class Pool(harness.ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            pools_kb.append(sum(private_kb(p.pid)
                                for p in multiprocessing.active_children()))
            super().shutdown(*args, **kwargs)

    return Pool


def environment() -> dict:
    import numpy
    import scipy
    try:
        rev = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                              "HEAD"], capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        git_rev = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_rev": git_rev}


def warm_up() -> None:
    """Fill semcom's lazy caches so that the first timed round does not."""
    from semcom import harness
    harness.run_trial("red-circle", 8, 15.0, harness.trial_rng(0, 0))


def cpu_rotation(workers: int):
    """A hook that moves this process to the next CPU in turn; it makes the first move.

    Other tenants of a shared machine slow one CPU at a time, in spells
    that can outlast a run, so a one-process workload left on one CPU took
    that CPU's spells whole: ten runs of the semantic sweep spread by a
    quarter of their median. Moving to the next CPU after each round shares
    the spells out evenly. Pool workers inherit the affinity of this
    process, so a pooled run is left to the scheduler: its workers use
    every CPU at once.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if workers > 1 or len(cpus) < 2:
        return lambda: None
    turn = itertools.count()

    def hop() -> None:
        os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})

    hop()
    return hop


def median_rate(samples, field: int) -> float:
    """Median over timed units of work ``field`` (0 trials, 1 bits) per second.

    A median over rounds (blocks on channel_ber) resists the slow spells of
    a shared machine better than one ratio pooled over the run.
    """
    return statistics.median(s[field] / s[2] for s in samples) if samples else 0.0


def untraced(name: str, seed: int, seconds: int, out_dir: str):
    from bench import workloads
    from semcom import harness
    wl = workloads.make(name, out_dir, seed)
    warm_up()
    setups, pools_kb = [], []
    next_cpu = cpu_rotation(getattr(wl, "workers", 1))

    def between_rounds(elapsed: float) -> None:
        next_cpu()
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / seconds))
        while len(setups) < due:
            setups.append(setup_seconds())

    pool_class = harness.ProcessPoolExecutor
    harness.ProcessPoolExecutor = counting_pool_memory(pools_kb)
    try:
        [tally] = workloads.run(wl, seed=seed, seconds=seconds,
                                after_round=between_rounds)
    finally:
        harness.ProcessPoolExecutor = pool_class
    while len(setups) < SETUP_PROBES:  # the last round ended short of the budget
        setups.append(setup_seconds())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(pools_kb,
                                                                        default=0)
    metrics = {
        "trials_per_s": (median_rate(tally.samples, 0), "trials/s"),
        "channel_mbit_per_s": (median_rate(tally.samples, 1) / 1e6, "Mbit/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    details = {"setup_probes_s": setups, "pool_private_kb": max(pools_kb, default=0)}
    return [tally], metrics, details


def traced(name: str, seed: int, seconds: int, out_dir: str):
    from bench import tracing, workloads
    rounds = max(1, round(seconds / 2 / ROUND_SECONDS[name]))
    warm_up()
    tracer = tracing.Tracer()
    next_cpu = cpu_rotation(1)
    plain, spanned = workloads.run(
        workloads.make(name, out_dir, seed, workers=1),
        workloads.make(name, out_dir, seed, tracer=tracer, workers=1),
        seed=seed, rounds=rounds, after_round=lambda elapsed: next_cpu())
    metrics = tracing.layer_metrics(tracer)
    # each traced round ran right after its untraced twin: compare the pairs
    ratios = [b[2] / a[2] for a, b in zip(plain.samples, spanned.samples)]
    overhead = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    if plain.digests != spanned.digests:
        spanned.run_problems.append("traced outputs differ from untraced outputs")
    counts = {k: metrics[k][0] for k in metrics
              if k.startswith("encoder.encode.degenerate") or k in EXACT_COUNTS}
    return [plain, spanned], metrics, {"counts": counts}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_semcom()
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        measure = traced if args.trace else untraced
        tallies, metrics, details = measure(args.workload, args.seed, args.seconds,
                                           out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = [p for t in tallies for p in t.problems + t.run_problems]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "rounds": [t.rounds for t in tallies],
        "trials": [t.trials for t in tallies],
        "bits": [t.bits for t in tallies],
        "timed_s": [t.timed_s for t in tallies],
        "output_sha256": [t.digests for t in tallies],
        **details,
        **environment(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(tallies, metrics)))
    return 0


def result_line(tallies, metrics) -> dict:
    """The run's result: correct only if no operation and no pooled check failed."""
    return {
        "correct": not any(t.failed or t.run_problems for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
