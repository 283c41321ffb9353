"""Performance-regression tracker: DES, sweep, campaign, and tuner.

Times the hot paths this repo optimises -- the discrete-event simulator
core, the experiment sweep engine, and the replicated campaign harness
-- plus the guided autotuner's search efficiency, and writes the
numbers to ``BENCH_perf.json`` at the repo root so successive runs can
be compared (see docs/performance.md for reference numbers and what a
regression looks like).

Run:  python benchmarks/bench_perf_regression.py [--jobs N] [--rounds R] [--quick]

``--check-baseline`` re-times only the DES benches (instrumentation
disabled -- no monitor attached, the default) and fails if any falls
more than ``--tolerance`` (default 2%) below the recorded baseline.
This is the guard that keeps the observability layer's no-op path off
the simulator's hot loop.  ``--check-tune`` gates the guided search's
efficiency contract: within 2% of the exhaustive optimum at <= 25% of
the exhaustive full-fidelity evaluations (docs/performance.md,
"Guided search").
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.core import Simulator  # noqa: E402


# -----------------------------------------------------------------------
# DES micro-benchmarks: events/second on three scheduling patterns
# -----------------------------------------------------------------------


def bench_timeouts(nproc: int = 100, nsteps: int = 2000) -> float:
    """Pure timeout churn: the pooled-Timeout / calendar-queue fast path."""
    sim = Simulator()
    timeout = sim.timeout

    def worker():
        for _ in range(nsteps):
            yield timeout(1.0)

    for _ in range(nproc):
        sim.process(worker())
    nevents = nproc * nsteps
    t0 = time.perf_counter()
    sim.run()
    return nevents / (time.perf_counter() - t0)


def bench_mixed(nproc: int = 100, nsteps: int = 1000) -> float:
    """Alternating timeouts and already-succeeded events (zero-delay queue)."""
    sim = Simulator()
    timeout = sim.timeout
    event = sim.event

    def worker():
        for _ in range(nsteps):
            yield timeout(1.0)
            ev = event()
            ev.succeed(42)
            yield ev

    for _ in range(nproc):
        sim.process(worker())
    nevents = nproc * nsteps * 2
    t0 = time.perf_counter()
    sim.run()
    return nevents / (time.perf_counter() - t0)


def bench_fanin(nproc: int = 50, nsteps: int = 500, width: int = 4) -> float:
    """all_of() fan-in over timeout groups (the condition fast path)."""
    sim = Simulator()
    timeout = sim.timeout
    all_of = sim.all_of

    def worker():
        for _ in range(nsteps):
            yield all_of([timeout(1.0) for _ in range(width)])

    for _ in range(nproc):
        sim.process(worker())
    nevents = nproc * nsteps * (width + 1)
    t0 = time.perf_counter()
    sim.run()
    return nevents / (time.perf_counter() - t0)


DES_BENCHES = {"timeouts": bench_timeouts, "mixed": bench_mixed, "fanin": bench_fanin}


# -----------------------------------------------------------------------
# Sweep throughput: experiment points/second through the sweep engine
# -----------------------------------------------------------------------

#: Sweep-heavy experiments (figure curves, not one-shot comparisons).
SWEEP_EXPERIMENTS = ["fig5", "fig6", "fig7", "fig8"]


def bench_sweeps(jobs: int | str | None, fast_path: str | None = None) -> dict:
    """Run the sweep-heavy experiments; returns timing + throughput.

    The returned dict carries the analytic-vs-DES split for the run
    (``fast_path`` key).  In parallel mode the split covers the points
    decided in the parent process (the vectorised batch pre-pass); points
    simulated inside workers count their paths in worker registries.
    """
    from repro import experiments as E
    from repro.sim.analytic import fastpath_summary

    def _counts(summary):
        if summary is None:
            return 0, 0
        return summary.get("analytic", 0), summary.get("des", 0)

    a0, d0 = _counts(fastpath_summary())
    before = E.SIM_CALLS
    with E.configured(jobs=jobs, cache=False, fast_path=fast_path) as (executor, _):
        t0 = time.perf_counter()
        results = [E.ALL_EXPERIMENTS[name]() for name in SWEEP_EXPERIMENTS]
        elapsed = time.perf_counter() - t0
        mode = executor.last_mode
    bad = [r.id for r in results if not r.ok]
    if bad:
        raise SystemExit(f"experiment checks failed during benchmark: {bad}")
    points = E.SIM_CALLS - before if mode == "serial" else _sweep_point_count(results)
    a1, d1 = _counts(fastpath_summary())
    return {
        "experiments": SWEEP_EXPERIMENTS,
        "points": points,
        "elapsed_s": elapsed,
        "points_per_s": points / elapsed,
        "mode": mode,
        "fast_path": {"analytic": a1 - a0, "des": d1 - d0},
    }


def _sweep_point_count(results) -> int:
    """Simulation-point count of SWEEP_EXPERIMENTS: one per curve point."""
    return sum(len(r.data["series"].xs) for r in results)


#: Measured throughput this far *above* baseline flags the baseline as
#: stale -- the recorded numbers no longer describe this machine/build,
#: so the regression floor is meaninglessly low.  Non-fatal.
STALE_FACTOR = 1.25


def classify_measurement(measured: float, baseline: float, tolerance: float) -> str:
    """``ok`` / ``regression`` / ``stale-baseline`` for one DES bench."""
    if measured < baseline * (1.0 - tolerance):
        return "regression"
    if measured > baseline * STALE_FACTOR:
        return "stale-baseline"
    return "ok"


def check_baseline(
    baseline_path: Path, rounds: int, tolerance: float, ledger: Path | None = None
) -> int:
    """Assert DES throughput is within ``tolerance`` of the baseline.

    The benches run with no monitor attached, i.e. the configuration the
    zero-overhead claim is about; best-of-``rounds`` damps scheduler
    noise.  Returns 0 when every bench clears
    ``baseline * (1 - tolerance)``, 1 otherwise.  A bench landing more
    than ``STALE_FACTOR`` *above* its baseline gets a non-fatal
    stale-baseline warning (re-record with a plain run).  With
    ``ledger`` the per-bench outcomes are appended to the run ledger.
    """
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; run without --check-baseline first")
        return 2
    baseline = json.loads(baseline_path.read_text())["des_events_per_s"]
    outcomes: dict[str, dict] = {}
    for name, fn in DES_BENCHES.items():
        best = 0.0
        for _ in range(max(1, rounds)):
            best = max(best, fn())
        ref = baseline[name]
        floor = ref * (1.0 - tolerance)
        status = classify_measurement(best, ref, tolerance)
        outcomes[name] = {"measured": best, "baseline": ref, "status": status}
        tag = {"ok": "ok", "regression": "REGRESSION", "stale-baseline": "ok (stale?)"}[status]
        print(
            f"des/{name:10s} {best:>12,.0f} events/s  "
            f"(baseline {ref:,.0f}, floor {floor:,.0f}) {tag}"
        )
    failures = [n for n, o in outcomes.items() if o["status"] == "regression"]
    stale = [n for n, o in outcomes.items() if o["status"] == "stale-baseline"]
    if stale:
        print(
            f"warning: {stale} exceed baseline by > {STALE_FACTOR - 1:.0%}; the "
            f"recorded baseline looks stale -- re-record it (run without "
            f"--check-baseline)"
        )
    if ledger is not None:
        from repro.obs import RunLedger, bench_entry

        entry = RunLedger(ledger).append(bench_entry(outcomes, tolerance=tolerance))
        print(f"recorded seq {entry['seq']}: bench outcomes -> {ledger}")
    if failures:
        print(f"throughput regression (> {tolerance:.0%} below baseline): {failures}")
        return 1
    print(f"all DES benches within {tolerance:.0%} of baseline")
    return 0


#: Allowed fractional sweep-throughput shortfall for ``--check-sweep``.
#: Looser than the DES tolerance: a sweep point is milliseconds, so
#: process scheduling noise is proportionally larger.
SWEEP_TOLERANCE = 0.25


def _baseline_sweep_figure(report: dict) -> dict | None:
    """The serial sweep figure from a schema-1/2/3 report."""
    if "sweeps" in report:  # schema >= 2
        return report["sweeps"].get("serial")
    return report.get("sweep")  # schema 1


def check_sweep(baseline_path: Path, tolerance: float = SWEEP_TOLERANCE) -> int:
    """Assert serial sweep throughput is within ``tolerance`` of baseline.

    Re-times the fig5-fig8 grids serially (fast path at its default) and
    fails when points/s lands more than ``tolerance`` below the recorded
    serial figure.  Returns 0 on pass, 1 on regression, 2 when the
    baseline is missing or predates sweep recording.
    """
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; run without checks first")
        return 2
    ref_fig = _baseline_sweep_figure(json.loads(baseline_path.read_text()))
    if not ref_fig or "points_per_s" not in ref_fig:
        print(f"baseline {baseline_path} has no sweep figure; re-record it")
        return 2
    ref = ref_fig["points_per_s"]
    floor = ref * (1.0 - tolerance)
    sweep = bench_sweeps(jobs=None)
    measured = sweep["points_per_s"]
    status = classify_measurement(measured, ref, tolerance)
    tag = {"ok": "ok", "regression": "REGRESSION", "stale-baseline": "ok (stale?)"}[status]
    print(
        f"sweep/serial {measured:>10,.1f} points/s  "
        f"(baseline {ref:,.1f}, floor {floor:,.1f}) {tag} "
        f"[analytic={sweep['fast_path']['analytic']} des={sweep['fast_path']['des']}]"
    )
    if status == "stale-baseline":
        print(
            f"warning: sweep throughput exceeds baseline by > {STALE_FACTOR - 1:.0%}; "
            f"re-record the baseline (run without checks)"
        )
    if status == "regression":
        print(f"sweep throughput regression (> {tolerance:.0%} below baseline)")
        return 1
    print(f"sweep throughput within {tolerance:.0%} of baseline")
    return 0


# -----------------------------------------------------------------------
# Campaign throughput: replicate points/second through repro.campaign
# -----------------------------------------------------------------------

#: Replicates per cell for the campaign benchmark (LU + FW, one nominal
#: scenario each -> ``2 * CAMPAIGN_REPLICATES`` replicate points).
CAMPAIGN_REPLICATES = 5

#: Allowed fractional campaign-throughput shortfall before the
#: (non-fatal) warning fires.  Same rationale as SWEEP_TOLERANCE: a
#: replicate is tens of milliseconds, so scheduling noise is large.
CAMPAIGN_TOLERANCE = 0.25


def bench_campaign(replicates: int = CAMPAIGN_REPLICATES) -> dict:
    """Run a serial LU+FW campaign; returns timing + replicate throughput."""
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(apps=("lu", "fw"), replicates=replicates, seed=0)
    t0 = time.perf_counter()
    manifest = run_campaign(spec, jobs=1, cache=False)
    elapsed = time.perf_counter() - t0
    if manifest["failures"]:
        raise SystemExit(
            f"campaign benchmark had {manifest['failures']} failed replicates"
        )
    return {
        "replicates": replicates,
        "points": manifest["points"],
        "elapsed_s": elapsed,
        "points_per_s": manifest["points"] / elapsed,
    }


def check_campaign(baseline_path: Path, tolerance: float = CAMPAIGN_TOLERANCE) -> int:
    """Warn (never fail) when campaign throughput drops > ``tolerance``.

    Warn-only because the campaign figure rides on the DES and sweep
    floors already gated above; this check exists to surface drift in
    the campaign harness's own overhead (perturbation sampling,
    histogram merging, aggregation) early, not to break the build on a
    noisy box.  Returns 0 always, except 2 when there is no baseline.
    """
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; run without checks first")
        return 2
    report = json.loads(baseline_path.read_text())
    ref_fig = report.get("campaign")
    if not ref_fig or "points_per_s" not in ref_fig:
        print(
            f"baseline {baseline_path} has no campaign figure (schema "
            f"{report.get('schema')}); re-record it to enable this check"
        )
        return 0
    ref = ref_fig["points_per_s"]
    floor = ref * (1.0 - tolerance)
    figure = bench_campaign(int(ref_fig.get("replicates") or CAMPAIGN_REPLICATES))
    measured = figure["points_per_s"]
    status = classify_measurement(measured, ref, tolerance)
    tag = {"ok": "ok", "regression": "WARN", "stale-baseline": "ok (stale?)"}[status]
    print(
        f"campaign/serial {measured:>8,.1f} points/s  "
        f"(baseline {ref:,.1f}, floor {floor:,.1f}) {tag}"
    )
    if status == "regression":
        print(
            f"warning: campaign throughput dropped > {tolerance:.0%} below "
            f"baseline (non-fatal; investigate or re-record)"
        )
    elif status == "stale-baseline":
        print(
            f"warning: campaign throughput exceeds baseline by > "
            f"{STALE_FACTOR - 1:.0%}; re-record the baseline"
        )
    return 0


# -----------------------------------------------------------------------
# Tuner search efficiency: guided vs exhaustive full-fidelity evals
# -----------------------------------------------------------------------

#: Allowed incumbent shortfall vs the exhaustive full-fidelity optimum.
TUNE_GAP = 0.02

#: Maximum fraction of the exhaustive DES evaluations the guided search
#: may spend (the "<= 25% of the sweep" headline claim).
TUNE_BUDGET_FRACTION = 0.25


def bench_tune() -> dict:
    """Guided-search efficiency on the fig5 b_f grid (cold cache, serial).

    Runs the successive-halving tuner over the paper's Figure 5 (b, f)
    grid for LU block-matrix-multiply on XD1, then the exhaustive
    full-fidelity sweep of the same space, and reports how close the
    incumbent landed to the exhaustive optimum and what fraction of the
    exhaustive DES evaluations the guided search spent to get there.
    """
    from repro.tune import (
        TuneSpec,
        named_space,
        objectives_for,
        point_task,
        run_tune,
        run_tune_task,
    )

    space = named_space("fig5-bf")
    t0 = time.perf_counter()
    manifest = run_tune(TuneSpec(space=space, seed=0), jobs=1, cache=False)
    elapsed = time.perf_counter() - t0
    exhaustive_best = max(
        objectives_for(space, pt, run_tune_task(point_task(space, pt, "des")))["gflops"]
        for pt in space.points()
    )
    incumbent = manifest["incumbent"]["objectives"]["gflops"]
    return {
        "space": "fig5-bf",
        "space_size": manifest["space"]["size"],
        "des_budget": manifest["budget"]["des"],
        "des_used": manifest["budget"]["des_used"],
        "exhaustive_des": manifest["exhaustive_des"],
        "fraction_of_exhaustive": manifest["savings"]["fraction_of_exhaustive"],
        "incumbent_gflops": incumbent,
        "exhaustive_best_gflops": exhaustive_best,
        "optimality_gap": (exhaustive_best - incumbent) / exhaustive_best,
        "elapsed_s": elapsed,
    }


def check_tune() -> int:
    """Assert the guided search meets its efficiency contract.

    Unlike the throughput checks this gate is deterministic (tuner and
    DES are both seeded), so it asserts the absolute claim rather than
    drift against a recorded figure: the fig5-bf incumbent must land
    within ``TUNE_GAP`` of the exhaustive optimum while spending at
    most ``TUNE_BUDGET_FRACTION`` of the exhaustive DES evaluations.
    Returns 0 on pass, 1 when either bound is broken.
    """
    figure = bench_tune()
    gap = figure["optimality_gap"]
    frac = figure["fraction_of_exhaustive"]
    ok = gap <= TUNE_GAP and frac <= TUNE_BUDGET_FRACTION
    print(
        f"tune/{figure['space']} {figure['des_used']}/{figure['exhaustive_des']} "
        f"DES evals ({frac:.1%} of exhaustive), incumbent "
        f"{figure['incumbent_gflops']:.2f} vs exhaustive "
        f"{figure['exhaustive_best_gflops']:.2f} GFLOPS "
        f"(gap {gap:.2%}) {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        print(
            f"guided-search efficiency broken: need gap <= {TUNE_GAP:.0%} at "
            f"<= {TUNE_BUDGET_FRACTION:.0%} of exhaustive DES evals"
        )
        return 1
    print(
        f"guided search within {TUNE_GAP:.0%} of the exhaustive optimum at "
        f"{frac:.1%} of its cost"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        default=None,
        help="worker processes for the sweep benchmark (int or 'auto'; default serial)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="DES benchmark rounds (best-of); default 3"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller DES workloads (CI smoke mode)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="compare DES throughput against the recorded baseline instead "
        "of rewriting it; non-zero exit on a regression",
    )
    # argparse %-formats help strings: each percentage carries a second
    # "%" so it prints as one.
    parser.add_argument(
        "--check-sweep",
        action="store_true",
        help="compare serial sweep throughput (points/s) against the "
        f"recorded baseline; non-zero exit when > {SWEEP_TOLERANCE:.0%}% below",
    )
    parser.add_argument(
        "--check-campaign",
        action="store_true",
        help="re-time the campaign harness and warn (non-fatal) when "
        f"points/s lands > {CAMPAIGN_TOLERANCE:.0%}% below the baseline",
    )
    parser.add_argument(
        "--check-tune",
        action="store_true",
        help="assert the guided search lands within "
        f"{TUNE_GAP:.0%}% of the exhaustive optimum at <= "
        f"{TUNE_BUDGET_FRACTION:.0%}% of the exhaustive DES evals",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="allowed fractional shortfall vs baseline for --check-baseline "
        "(default 0.02 = 2%%)",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help="append the --check-baseline outcomes to this run ledger",
    )
    args = parser.parse_args(argv)

    if args.check_baseline or args.check_sweep or args.check_campaign or args.check_tune:
        rc = 0
        if args.check_baseline:
            rc = check_baseline(args.output, args.rounds, args.tolerance, ledger=args.ledger)
        if args.check_sweep:
            rc = max(rc, check_sweep(args.output))
        if args.check_campaign:
            rc = max(rc, check_campaign(args.output))
        if args.check_tune:
            rc = max(rc, check_tune())
        return rc

    scale = 10 if args.quick else 1
    des: dict[str, float] = {}
    for name, fn in DES_BENCHES.items():
        best = 0.0
        for _ in range(max(1, args.rounds)):
            kwargs = {"nproc": 100 // scale} if args.quick else {}
            best = max(best, fn(**kwargs))
        des[name] = best
        print(f"des/{name:10s} {best:>12,.0f} events/s")

    sweeps: dict[str, dict] = {"serial": bench_sweeps(jobs=None)}
    par_jobs = args.jobs if args.jobs is not None else "auto"
    parallel = bench_sweeps(par_jobs)
    if parallel["mode"] == "parallel":
        parallel["jobs"] = par_jobs
        sweeps["parallel"] = parallel
    for label, sw in sweeps.items():
        fp = sw["fast_path"]
        print(
            f"sweeps/{label} ({sw['mode']}) {sw['points']} points in "
            f"{sw['elapsed_s']:.2f}s = {sw['points_per_s']:.1f} points/s "
            f"[analytic={fp['analytic']} des={fp['des']}]"
        )

    campaign = bench_campaign(3 if args.quick else CAMPAIGN_REPLICATES)
    print(
        f"campaign/serial {campaign['points']} points "
        f"({campaign['replicates']} replicates/cell) in "
        f"{campaign['elapsed_s']:.2f}s = {campaign['points_per_s']:.1f} points/s"
    )

    tune = bench_tune()
    print(
        f"tune/{tune['space']} {tune['des_used']}/{tune['exhaustive_des']} DES evals "
        f"({tune['fraction_of_exhaustive']:.1%} of exhaustive), gap "
        f"{tune['optimality_gap']:.2%} in {tune['elapsed_s']:.2f}s"
    )

    report = {
        "schema": 4,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "des_events_per_s": des,
        "sweeps": sweeps,
        "campaign": campaign,
        "tune": tune,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
