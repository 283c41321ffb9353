#!/usr/bin/env python3
"""Same-host benchmark of the co-design tool: one command, four workloads.

    python3 hostbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs one workload's seeded inputs through the program's public entry
points for ``--seconds`` seconds, checks the simulated outputs, and
prints a host fingerprint, an output digest, every metric by name with
its unit and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (host time, tracing off); ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics.  Exits 0
when every output check passes, 1 when one fails, 2 when the program
cannot be found.  See hostbench/README.md for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run cache directories, and the
#: spans of the last traced run of each workload and seed.
WORK = ROOT / ".hostbench_work"

WORKLOADS = ("sweep", "campaign", "experiments", "validate")
#: Workloads whose simulations run in worker processes (``jobs=2``).
PARALLEL = ("experiments",)

#: A seed no tuning may use: a claimed gain must also hold on it.
HELD_OUT_SEED = 9001

#: Set-up is measured this many times per run, in fresh processes.
SETUP_REPEATS = 5

#: Every run measures at least this many cycles, however long they take.
MIN_CYCLES = 3

#: Measuring time per run; ``run_seconds`` in BENCHMARK.json says the same.
RUN_SECONDS = 20.0

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "ops_per_s": "1/s",
    "cold_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lu_gflops_err_pct": "%",
    "fw_gflops_err_pct": "%",
}

#: The names the README's metric table uses for a metric on a workload.
ALIASES = {
    ("sweep", "ops_per_s"): "sweep.points_per_s",
    ("campaign", "ops_per_s"): "campaign.replicates_per_s",
    ("experiments", "ops_per_s"): "experiments.sim_points_per_s",
    ("experiments", "cold_s"): "experiments.cold_s",
    ("experiments", "warm_s"): "experiments.warm_s",
    ("validate", "ops_per_s"): "validate.runs_per_s",
    ("validate", "cold_s"): "validate_s",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="hostbench/run.py",
        description="Same-host benchmark of the co-design tool (host time, not simulated time).",
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="workload seed (inputs are a function of it)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    ap.add_argument("--setup-only", action="store_true",
                    help="import the program, build the inputs and exit (times set-up)")
    return ap.parse_args(argv)


def load_program():
    """Import the benchmark modules against the checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def pin_to_one_cpu() -> None:
    """Keep a serial workload on one CPU: the last one this process may use.

    Left alone, the scheduler moves the process between CPUs that other
    work loads unevenly (the first CPU usually takes the interrupts), and
    a run's speed then depends on where it landed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def fingerprint(seed: int) -> dict:
    """The host and seed a result belongs to; compare only like with like."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "held_out": seed == HELD_OUT_SEED,
    }


def measure_setup(args: argparse.Namespace) -> float:
    """Median wall time of fresh processes that only set the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process alone.

    The ``jobs=2`` workers are forked, so their peak counts the pages
    they share with this process: adding it would count those twice.
    The traced run reports it apart, as ``child_peak_rss_mb``.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Passes:
    """Times passes and keeps ``(kind, seconds, PassResult)`` for each."""

    def __init__(self) -> None:
        self.records: list = []

    def __call__(self, kind: str, fn):
        t0 = time.perf_counter()
        result = fn()
        self.records.append((kind, time.perf_counter() - t0, result))
        return result

    def seconds(self, kind: str) -> list[float]:
        return [secs for k, secs, _ in self.records if k == kind]


def floor_s(passes: Passes, kind: str) -> float:
    """A pass's time without the delay other work on the host adds.

    A pass is the same sequence of deterministic steps every time, and
    other work on a shared host only ever adds delay to a step, in
    bursts.  Each step's fastest time over the run's passes, summed,
    moves far less with that load than any statistic of whole passes.
    """
    steps = [res.step_s for k, _, res in passes.records if k == kind]
    return sum(min(times) for times in zip(*steps))


def pass_summary(kind: str, times: list[float]) -> str:
    """Whole-pass times: the median and the highest percentile with ten passes beyond it."""
    line = f"passes {kind}: n={len(times)} median={statistics.median(times):.6g} s"
    if len(times) >= 20:
        q = int(100 * (1 - 10 / len(times)))
        line += f" p{q}={statistics.quantiles(times, n=100)[q - 1]:.6g} s"
    return line


def measure(wl, seconds: float, passes: Passes, speed) -> None:
    """Untraced cycles until ``seconds`` have passed (at least MIN_CYCLES).

    The reference kernel runs after every cycle, outside the passes.
    """
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        wl.cycle(passes)
        speed.sample()
        cycles += 1


def measure_traced(wl, seconds: float, passes: Passes, layers, spans_out: Path):
    """Alternate untraced and traced cycles; per-layer metrics of the traced ones."""
    rec = layers.Recorder()
    units, untraced, traced, mismatches = [], [], [], []
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < 2 * MIN_CYCLES or time.perf_counter() < deadline:
        if cycles % 2 == 0:
            t0 = time.perf_counter()
            wl.cycle(passes)
            untraced.append(time.perf_counter() - t0)
        else:
            run = rec.begin_run()
            counts_before = Counter(rec.counts)
            reg_before = layers.registry_totals()
            caches_before = len(wl.caches)
            patches = layers.install(rec)
            try:
                t0 = time.perf_counter()
                root = rec.open("bench.cycle", "bench")
                try:
                    wl.cycle(passes)
                finally:
                    rec.close(root)
                traced.append(time.perf_counter() - t0)
            finally:
                patches.restore()
            counts = Counter(rec.counts)
            counts.subtract(counts_before)
            unit = layers.unit_metrics(rec, run, counts)
            cache_stats = Counter()
            for cache in wl.caches[caches_before:]:
                cache_stats.update(cache.stats)
            mismatches += layers.completeness(unit, reg_before, layers.registry_totals(), cache_stats)
            units.append(unit)
        cycles += 1
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(rec.to_records()), encoding="utf-8")
    metrics = layers.median_metrics(units)
    base = min(untraced)
    metrics["traced_cycle_s"] = min(traced)
    metrics["untraced_cycle_s"] = base
    metrics["tracing_overhead_s"] = metrics["traced_cycle_s"] - base
    metrics["tracing_overhead_ratio"] = metrics["tracing_overhead_s"] / base
    metrics["check.wrapper_mismatches"] = len(mismatches)
    # The largest reaped child (on experiments a forked jobs=2 worker,
    # pages shared with this process included).
    metrics["child_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return {name: metrics[name] for name in layers.per_layer_names()}, mismatches


def end_to_end(wl, passes: Passes, speed, rss_mb: float, workloads, args) -> dict[str, float]:
    """The end-to-end metrics of an untraced run (set-up measured last).

    Host times are in standard seconds: host seconds times the run's
    ``speed.scale()`` (see speed.py); the unscaled ones are printed too.
    """
    host = {
        "cold_s": floor_s(passes, wl.cold_kind),
        "warm_s": floor_s(passes, wl.warm_kind),
        "setup_s": measure_setup(args),
    }
    scale = speed.scale()
    print(f"speed reference_floor={speed.floor_s():.6g} s scale={scale:.6g} unscaled: "
          + " ".join(f"{name}={secs:.6g} s" for name, secs in host.items()))
    ops = statistics.median(res.ops for k, _, res in passes.records if k == wl.cold_kind)
    accuracy = workloads.fig9_accuracy()
    return {
        "ops_per_s": ops / (host["cold_s"] * scale),
        "cold_s": host["cold_s"] * scale,
        "warm_s": host["warm_s"] * scale,
        "setup_s": host["setup_s"] * scale,
        "peak_rss_mb": rss_mb,
        "lu_gflops_err_pct": accuracy["lu_gflops_err_pct"],
        "fw_gflops_err_pct": accuracy["fw_gflops_err_pct"],
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload not in PARALLEL:
        pin_to_one_cpu()  # before the imports, which set-up time includes
    workloads = load_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, workdir)
    if args.setup_only:
        return 0
    passes = Passes()
    try:
        if args.trace:
            import layers  # only the traced run pays for importing the wrappers

            spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, check_errors = measure_traced(wl, args.seconds, passes, layers, spans_out)
            units = layers.per_layer_units()
        else:
            import speed

            run_speed = speed.Speed()
            measure(wl, args.seconds, passes, run_speed)
            rss_mb = peak_rss_mb()  # before the checks, which run extra simulations
            check_errors = []
        check_errors += workloads.same_outputs(passes.records) + wl.check(passes.records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = end_to_end(wl, passes, run_speed, rss_mb, workloads, args)
        units = END_TO_END

    errors = [e for _, _, res in passes.records for e in res.errors] + check_errors
    attempted = sum(res.ops for _, _, res in passes.records) + 2  # + the two output checks
    failed = sum(res.failed for _, _, res in passes.records) + len(check_errors)
    print("fingerprint " + json.dumps(fingerprint(args.seed), sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} "
          f"sha256={workloads.digest(passes.records[0][2].outputs)}")
    if args.trace:
        print(f"spans {spans_out.relative_to(ROOT)}")
    for message in errors:
        print(f"FAILED {message}")
    for name, value in metrics.items():
        alias = ALIASES.get((args.workload, name))
        print(f"{args.workload}.{name} = {value:.6g} {units[name]}"
              + (f"  ({alias})" if alias else ""))
    for kind in dict.fromkeys(k for k, _, _ in passes.records):
        print(pass_summary(kind, passes.seconds(kind)))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
