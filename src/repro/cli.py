"""Command-line interface: ``repro-xd1``.

Runs the paper's experiments from the shell::

    repro-xd1 lu                 # headline LU comparison (Figure 9, left)
    repro-xd1 fw                 # headline FW comparison (Figure 9, right)
    repro-xd1 plan-lu --n 30000  # just the design-model decisions
    repro-xd1 plan-fw --n 92160
    repro-xd1 machines           # predicted performance across presets

Any ``lu``/``fw`` run also accepts ``--trace-out timeline.json`` (a
Chrome ``trace_event`` timeline of the simulated lanes plus harness
wall-clock spans), ``--metrics-out metrics.jsonl`` (counters, gauges,
histograms and the overlap-accounting report), and ``--cache DIR``
(replay the baseline comparison through the shared result cache).

The observatory commands sit under ``repro-xd1 obs``::

    obs summary --metrics m.jsonl      # pretty-print a metrics file
    obs check   --metrics m.jsonl      # gate on overlap_efficiency
    obs ledger record --metrics m.jsonl --trace t.json --ledger L
    obs ledger list|diff|check --ledger L
    obs dashboard --ledger L [--html dashboard.html]
    obs explain --baseline base.json --manifest cur.json [--cell KEY]

Fault injection and graceful degradation under ``repro-xd1 faults``::

    faults run   --app lu --scenario degraded-link --policy repartition
    faults sweep --apps lu,fw --scenarios degraded-link,flaky-dma --ledger L
    faults report --ledger L

Replicated statistical campaigns under ``repro-xd1 campaign``::

    campaign run   --replicates 20 --seed 7 --out campaign.json --ledger L
    campaign report --manifest campaign.json        # or --ledger L
    campaign check --baseline base.json --manifest campaign.json [--explain]
    campaign figures --manifest campaign.json       # box plots (+ timeline)

Guided design-space search under ``repro-xd1 tune``::

    tune run --space fig5-bf --out tune.json --ledger L
    tune run --kind block_mm --fixed b=3000 --axis b_f=0:3000:200 --axis k=2,4,6,8
    tune report --manifest tune.json                # or --ledger L

Schemas: docs/observability.md; fault scenarios and policies:
docs/robustness.md; the guided search: docs/performance.md ("Guided
search").  All output goes through one BrokenPipe-safe writer, so
``repro-xd1 ... | head`` never stack-traces.
"""

from __future__ import annotations

import argparse
import sys
import time

from .analysis import bar_chart, percent, table
from .apps.fw import FwDesign
from .apps.lu import LuDesign
from .hw import FloydWarshallDesign, MatrixMultiplyDesign
from .machine import ALL_PRESETS, cray_xd1
from .obs.console import safe_print as _p


def _obs_enabled(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace_out", None) or getattr(args, "metrics_out", None))


def _obs_run(args: argparse.Namespace, app: str, design) -> None:
    """The ``--trace-out`` / ``--metrics-out`` tail of an app command.

    Runs one *traced* hybrid simulation with a DES monitor attached,
    reconciles it against the plan's prediction, and writes whichever
    exports were requested.  DES wall throughput is published as the
    ``des.events_per_s`` gauge so the run ledger can record it.
    """
    from .obs import REGISTRY, get_tracer, write_chrome_trace, write_metrics_jsonl
    from .sim import SimMonitor

    tracer = get_tracer()
    monitor = SimMonitor()
    t0 = time.perf_counter()
    with tracer.span(f"{app}.traced_run", category="cli", n=args.n, p=args.p):
        result = design.simulate(trace=True, monitor=monitor)
    wall = time.perf_counter() - t0
    report = design.overlap_report(result=result)
    monitor.to_registry(REGISTRY, app=app)
    if wall > 0 and monitor.events_fired:
        REGISTRY.gauge("des.events_per_s", app=app).set(monitor.events_fired / wall)
    _p(report.summary())
    if args.trace_out:
        path = write_chrome_trace(
            args.trace_out, sim_trace=result.trace,
            spans=tracer.spans, span_epoch=tracer.epoch,
        )
        _p(f"trace written to {path} (chrome://tracing / Perfetto)")
    if args.metrics_out:
        path = write_metrics_jsonl(
            args.metrics_out, REGISTRY, overlap=[report],
            extra={
                "app": app, "n": args.n, "b": getattr(args, "b", None),
                "p": args.p, "preset": "xd1",
                "partition": design.partition_params(),
            },
        )
        _p(f"metrics written to {path}")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event timeline of a traced hybrid run",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write metrics JSON-lines (counters, histograms, overlap report)",
    )


def _compare_values(args: argparse.Namespace, design, kind: str) -> tuple[dict, str | None]:
    """The Figure 9 comparison as a plain dict, plus a cache footer.

    Without ``--cache`` the comparison simulates directly.  With it, the
    run routes through the experiment harness's cached task layer (the
    same ``lu_compare``/``fw_compare`` tasks the fig9 experiments use),
    so a warm ``.repro_cache`` replays stored values and the cache
    counters/footer cover the warm path.
    """
    if getattr(args, "cache", None):
        from .experiments import _eval_sim_point, active_cache, configured

        task: dict = {"kind": kind, "n": args.n, "b": args.b}
        if args.p != 6:
            task["p"] = args.p  # default-p tasks share keys with the fig9 sweeps
        with configured(cache=args.cache):
            values = _eval_sim_point(task)
            cache = active_cache()
            footer = cache.footer() if cache is not None else None
        return values, footer
    cmp = design.compare()
    return {
        "hybrid": cmp.hybrid.gflops,
        "cpu_only": cmp.cpu_only.gflops,
        "fpga_only": cmp.fpga_only.gflops,
        "predicted": cmp.predicted_gflops,
        "speedup_vs_cpu": cmp.speedup_vs_cpu,
        "speedup_vs_fpga": cmp.speedup_vs_fpga,
        "fraction_of_sum": cmp.fraction_of_sum,
        "fraction_of_predicted": cmp.fraction_of_predicted,
    }, None


def _build_design(cls, args: argparse.Namespace):
    """``cls`` on an XD1 of ``args.p`` nodes; None after a one-line error."""
    try:
        return cls(cray_xd1(p=args.p), n=args.n, b=args.b)
    except ValueError as exc:
        _p(f"error: {exc}")
        return None


def _cmd_lu(args: argparse.Namespace) -> int:
    design = _build_design(LuDesign, args)
    if design is None:
        return 2
    if _obs_enabled(args):
        from .obs import Tracer, set_tracer

        set_tracer(Tracer())
    plan = design.plan
    _p(f"plan: b_p={plan.partition.b_p} b_f={plan.partition.b_f} l={plan.balance.l} "
       f"predicted={plan.prediction.gflops:.2f} GFLOPS")
    cmp, footer = _compare_values(args, design, "lu_compare")
    _p(bar_chart(
        ["Hybrid", "Processor-only", "FPGA-only", "Predicted"],
        [cmp["hybrid"], cmp["cpu_only"], cmp["fpga_only"], cmp["predicted"]],
        f"LU decomposition, n={args.n}, b={args.b}, p={args.p} (GFLOPS)",
        unit=" GFLOPS",
    ))
    _p(f"speedup vs CPU-only  : {cmp['speedup_vs_cpu']:.2f}x (paper: 1.3x)")
    _p(f"speedup vs FPGA-only : {cmp['speedup_vs_fpga']:.2f}x (paper: 2x)")
    _p(f"of baseline sum      : {percent(cmp['fraction_of_sum'])} (paper: ~80%)")
    _p(f"of model prediction  : {percent(cmp['fraction_of_predicted'])} (paper: ~86%)")
    if footer:
        _p(footer)
    if _obs_enabled(args):
        _obs_run(args, "lu", design)
    return 0


def _cmd_fw(args: argparse.Namespace) -> int:
    design = _build_design(FwDesign, args)
    if design is None:
        return 2
    if _obs_enabled(args):
        from .obs import Tracer, set_tracer

        set_tracer(Tracer())
    plan = design.plan
    _p(f"plan: l1={plan.partition.l1} l2={plan.partition.l2} "
       f"predicted={plan.prediction.gflops:.2f} GFLOPS")
    cmp, footer = _compare_values(args, design, "fw_compare")
    _p(bar_chart(
        ["Hybrid", "Processor-only", "FPGA-only", "Predicted"],
        [cmp["hybrid"], cmp["cpu_only"], cmp["fpga_only"], cmp["predicted"]],
        f"Floyd-Warshall, n={args.n}, b={args.b}, p={args.p} (GFLOPS)",
        unit=" GFLOPS",
    ))
    _p(f"speedup vs CPU-only  : {cmp['speedup_vs_cpu']:.2f}x (paper: 5.8x)")
    _p(f"speedup vs FPGA-only : {cmp['speedup_vs_fpga']:.2f}x (paper: 1.15x)")
    _p(f"of baseline sum      : {percent(cmp['fraction_of_sum'])} (paper: >95%)")
    _p(f"of model prediction  : {percent(cmp['fraction_of_predicted'])} (paper: ~96%)")
    if footer:
        _p(footer)
    if _obs_enabled(args):
        _obs_run(args, "fw", design)
    return 0


def _cmd_plan_lu(args: argparse.Namespace) -> int:
    design = _build_design(LuDesign, args)
    if design is None:
        return 2
    part, bal = design.plan.partition, design.plan.balance
    rows = [
        ["b_p (CPU rows)", part.b_p],
        ["b_f (FPGA rows)", part.b_f],
        ["b_f exact (Eq. 4)", f"{part.b_f_exact:.1f}"],
        ["T_p / stripe", f"{part.t_p * 1e3:.3f} ms"],
        ["T_f / stripe", f"{part.t_f * 1e3:.3f} ms"],
        ["T_comm / stripe", f"{part.t_comm * 1e3:.3f} ms"],
        ["T_mem / stripe", f"{part.t_mem * 1e3:.3f} ms"],
        ["l (Eq. 5)", bal.l],
        ["SRAM words", part.sram_words],
        ["coordination", f"{design.plan.coordination_hz:.1f} Hz"],
        ["predicted", f"{design.plan.prediction.gflops:.2f} GFLOPS"],
    ]
    _p(table(["decision", "value"], rows, title=f"LU plan (n={args.n}, b={args.b})"))
    return 0


def _cmd_plan_fw(args: argparse.Namespace) -> int:
    design = _build_design(FwDesign, args)
    if design is None:
        return 2
    part = design.plan.partition
    rows = [
        ["l1 (CPU ops/phase)", part.l1],
        ["l2 (FPGA ops/phase)", part.l2],
        ["l1 exact (Eq. 6)", f"{part.l1_exact:.2f}"],
        ["T_p / op", f"{part.t_p * 1e3:.1f} ms"],
        ["T_f / op", f"{part.t_f * 1e3:.1f} ms"],
        ["T_comm / phase", f"{part.t_comm * 1e3:.3f} ms"],
        ["T_mem / op", f"{part.t_mem * 1e3:.3f} ms"],
        ["coordination", f"{design.plan.coordination_hz:.2f} Hz"],
        ["predicted", f"{design.plan.prediction.gflops:.2f} GFLOPS"],
    ]
    _p(table(["decision", "value"], rows, title=f"FW plan (n={args.n}, b={args.b})"))
    return 0


def _cmd_machines(args: argparse.Namespace) -> None:
    from .core import DesignModel

    rows = []
    for key, factory in ALL_PRESETS.items():
        spec = factory()
        mm = MatrixMultiplyDesign.for_device(spec.node.fpga.device)
        fwd = FloydWarshallDesign.for_device(spec.node.fpga.device)
        lu_pred = DesignModel(spec.parameters("dgemm", mm)).plan_lu(
            args.n, 3000, mm.k
        ).prediction.gflops if spec.p >= 2 else float("nan")
        fw_n = 256 * spec.p * 60
        fw_pred = DesignModel(spec.parameters("fw", fwd)).plan_fw(fw_n, 256, fwd.k).prediction.gflops
        rows.append([spec.name, spec.p, mm.k, f"{mm.freq_hz / 1e6:.0f} MHz",
                     f"{lu_pred:.1f}", f"{fw_pred:.2f}"])
    _p(table(
        ["machine", "p", "k", "F_f(MM)", "LU GFLOPS (pred)", "FW GFLOPS (pred)"],
        rows,
        title="Design-model predictions across machine presets (Section 4.5)",
    ))


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-xd1`` console script."""
    from .obs.ledger import LEDGER_SCHEMA

    parser = argparse.ArgumentParser(
        prog="repro-xd1",
        description="Reproduce Zhuo & Prasanna (IPPS 2007) experiments on a simulated Cray XD1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lu = sub.add_parser("lu", help="headline LU comparison (Fig. 9 left)")
    lu.add_argument("--n", type=int, default=30000)
    lu.add_argument("--b", type=int, default=3000)
    lu.add_argument("--p", type=int, default=6)
    lu.add_argument("--cache", default=None, metavar="DIR",
                    help="replay the comparison through this result cache")
    _add_obs_flags(lu)
    lu.set_defaults(fn=_cmd_lu)

    fw = sub.add_parser("fw", help="headline FW comparison (Fig. 9 right)")
    fw.add_argument("--n", type=int, default=92160)
    fw.add_argument("--b", type=int, default=256)
    fw.add_argument("--p", type=int, default=6)
    fw.add_argument("--cache", default=None, metavar="DIR",
                    help="replay the comparison through this result cache")
    _add_obs_flags(fw)
    fw.set_defaults(fn=_cmd_fw)

    plu = sub.add_parser("plan-lu", help="LU design-model decisions only")
    plu.add_argument("--n", type=int, default=30000)
    plu.add_argument("--b", type=int, default=3000)
    plu.add_argument("--p", type=int, default=6)
    plu.set_defaults(fn=_cmd_plan_lu)

    pfw = sub.add_parser("plan-fw", help="FW design-model decisions only")
    pfw.add_argument("--n", type=int, default=92160)
    pfw.add_argument("--b", type=int, default=256)
    pfw.add_argument("--p", type=int, default=6)
    pfw.set_defaults(fn=_cmd_plan_fw)

    mach = sub.add_parser("machines", help="predictions across machine presets")
    mach.add_argument("--n", type=int, default=30000)
    mach.set_defaults(fn=_cmd_machines)

    val = sub.add_parser("validate", help="functional validation (real numerics)")
    val.set_defaults(fn=_cmd_validate)

    exp = sub.add_parser("experiments", help="run the full table/figure harness")
    exp.add_argument("--only", help="comma-separated experiment ids", default=None)
    exp.add_argument(
        "--jobs",
        default=None,
        help="worker processes for sweep fan-out (int or 'auto'; "
        "default: $REPRO_PARALLEL or serial)",
    )
    exp.add_argument(
        "--cache",
        default=None,
        help="result-cache directory ('off' disables; "
        "default: $REPRO_CACHE or no cache)",
    )
    exp.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append an 'experiments' manifest to this run ledger",
    )
    exp.add_argument(
        "--fast-path",
        choices=("auto", "on", "off"),
        default=None,
        help="analytic no-contention fast path for sweep points "
        "(auto: use when bitwise-safe, on: require, off: always DES; "
        "default: $REPRO_FAST_PATH or auto)",
    )
    _add_obs_flags(exp)
    exp.set_defaults(fn=_cmd_experiments)

    obs = sub.add_parser("obs", help="inspect / gate metrics files and the run ledger")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    osum = obs_sub.add_parser("summary", help="pretty-print a metrics JSON-lines file")
    osum.add_argument("--metrics", required=True, metavar="PATH")
    osum.set_defaults(fn=_cmd_obs_summary)
    ochk = obs_sub.add_parser(
        "check", help="fail unless every overlap report meets the efficiency floor"
    )
    ochk.add_argument("--metrics", required=True, metavar="PATH")
    ochk.add_argument("--min", type=float, default=0.85, dest="minimum",
                      help="overlap_efficiency floor (default 0.85)")
    ochk.add_argument("--app", default=None, help="only check this app's reports")
    ochk.set_defaults(fn=_cmd_obs_check)

    led = obs_sub.add_parser(
        "ledger",
        help=f"the append-only run ledger (schema {LEDGER_SCHEMA})",
    )
    led_sub = led.add_subparsers(dest="ledger_command", required=True)

    lrec = led_sub.add_parser("record", help="append manifests for a recorded run")
    lrec.add_argument("--metrics", required=True, metavar="PATH",
                      help="metrics JSON-lines file of the run (--metrics-out)")
    lrec.add_argument("--trace", default=None, metavar="PATH",
                      help="Chrome trace of the run (--trace-out); enables "
                      "critical-path attribution in the manifest")
    lrec.add_argument("--ledger", required=True, metavar="PATH")
    lrec.add_argument("--preset", default=None, help="machine preset key (default: header)")
    lrec.add_argument("--source", default="cli", help="who recorded this (cli/ci/bench)")
    lrec.add_argument("--git-sha", default=None, dest="git_sha",
                      help="override the recorded commit SHA")
    lrec.add_argument("--note", default=None, help="free-form annotation")
    lrec.set_defaults(fn=_cmd_ledger_record)

    llist = led_sub.add_parser("list", help="tabulate ledger entries")
    llist.add_argument("--ledger", required=True, metavar="PATH")
    llist.add_argument("--app", default=None)
    llist.add_argument("--limit", type=int, default=None, help="newest N entries only")
    llist.set_defaults(fn=_cmd_ledger_list)

    ldiff = led_sub.add_parser("diff", help="per-field delta between two entries")
    ldiff.add_argument("--ledger", required=True, metavar="PATH")
    ldiff.add_argument("a", help="entry ref: seq number, negative index, or 'latest'")
    ldiff.add_argument("b", help="entry ref: seq number, negative index, or 'latest'")
    ldiff.set_defaults(fn=_cmd_ledger_diff)

    lchk = led_sub.add_parser(
        "check", help="gate on fidelity: fail when a series drops below the band"
    )
    lchk.add_argument("--ledger", required=True, metavar="PATH")
    lchk.add_argument("--band", type=float, default=0.85,
                      help="overlap_efficiency floor (default 0.85, the paper's claim)")
    lchk.add_argument("--drift", type=float, default=0.05,
                      help="non-fatal warning threshold for latest-vs-history drift")
    lchk.add_argument("--app", default=None, help="only check this app's series")
    lchk.set_defaults(fn=_cmd_ledger_check)

    dash = obs_sub.add_parser("dashboard", help="render the fidelity observatory")
    dash.add_argument("--ledger", required=True, metavar="PATH")
    dash.add_argument("--band", type=float, default=0.85)
    dash.add_argument("--html", default=None, metavar="PATH",
                      help="also write a self-contained HTML dashboard")
    dash.set_defaults(fn=_cmd_obs_dashboard)

    oexp = obs_sub.add_parser(
        "explain", help="root-cause diff of campaign cells (paired traced re-runs)"
    )
    oexp.add_argument("--baseline", required=True, metavar="PATH",
                      help="baseline campaign manifest JSON")
    oexp.add_argument("--manifest", required=True, metavar="PATH",
                      help="current campaign manifest JSON")
    oexp.add_argument("--cell", default=None, metavar="KEY",
                      help="comma-separated cell keys (default: every cell the "
                           "statistical check flags)")
    oexp.add_argument("--replicate", type=int, default=None,
                      help="replicate index to re-run (default: the completed "
                           "one nearest the current median)")
    oexp.add_argument("--alpha", type=float, default=None,
                      help="Mann-Whitney significance level (default 0.05)")
    oexp.add_argument("--effect", type=float, default=None,
                      help="relative median-shift threshold (default 0.02)")
    oexp.add_argument("--ledger", default=None, metavar="PATH",
                      help="append 'explain' entries to this run ledger")
    oexp.add_argument("--out", default=None, metavar="PATH",
                      help="write the explain manifests as a JSON array")
    oexp.add_argument("--json", action="store_true",
                      help="emit the explain manifests as JSON")
    oexp.set_defaults(fn=_cmd_obs_explain)

    flt = sub.add_parser("faults", help="fault injection and graceful degradation")
    flt_sub = flt.add_subparsers(dest="faults_command", required=True)

    frun = flt_sub.add_parser("run", help="one fault run: nominal vs faulted + policy")
    frun.add_argument("--app", default="lu", choices=("lu", "fw"))
    frun.add_argument("--preset", default="xd1")
    frun.add_argument("--scenario", default="degraded-link",
                      help="library scenario name (see docs/robustness.md)")
    frun.add_argument("--policy", default="repartition",
                      help="fail-fast | degrade-static | repartition | exclude-node")
    frun.add_argument("--factor", type=float, default=None,
                      help="rate factor for the scenario (e.g. 0.5 = half bandwidth)")
    frun.add_argument("--at", type=float, default=None, help="fault onset time (s)")
    frun.add_argument("--duration", type=float, default=None,
                      help="fault window length (default: persists to the end)")
    frun.add_argument("--node", type=int, default=None, help="target node id")
    frun.add_argument("--seed", type=int, default=0, help="scenario RNG seed")
    frun.add_argument("--n", type=int, default=None, help="problem size (app default)")
    frun.add_argument("--b", type=int, default=None, help="block size (app default)")
    frun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'fault_run' manifest to this run ledger")
    frun.add_argument("--json", action="store_true", help="emit the result as JSON")
    frun.set_defaults(fn=_cmd_faults_run)

    fswp = flt_sub.add_parser("sweep", help="apps x scenarios x policies fault grid")
    fswp.add_argument("--apps", default="lu,fw", help="comma-separated: lu,fw")
    fswp.add_argument("--scenarios", default="degraded-link,dram-contention,flaky-dma",
                      help="comma-separated library scenario names")
    fswp.add_argument("--policies", default="degrade-static,repartition",
                      help="comma-separated policy names")
    fswp.add_argument("--preset", default="xd1")
    fswp.add_argument("--factor", type=float, default=None,
                      help="rate factor applied to every rate scenario")
    fswp.add_argument("--seed", type=int, default=0, help="scenario RNG seed")
    fswp.add_argument("--jobs", default=None,
                      help="worker processes (int or 'auto'; default: $REPRO_PARALLEL)")
    fswp.add_argument("--cache", default=None,
                      help="result-cache directory ('off' disables; default: $REPRO_CACHE)")
    fswp.add_argument("--ledger", default=None, metavar="PATH",
                      help="append one 'fault_run' manifest per grid point")
    fswp.add_argument("--out", default=None, metavar="PATH",
                      help="write the raw result dicts as JSON")
    fswp.set_defaults(fn=_cmd_faults_sweep)

    frep = flt_sub.add_parser("report", help="resilience report from a run ledger")
    frep.add_argument("--ledger", required=True, metavar="PATH")
    frep.add_argument("--json", action="store_true", help="emit the report as JSON")
    frep.set_defaults(fn=_cmd_faults_report)

    cmp_ = sub.add_parser(
        "campaign", help="replicated statistical campaigns and drift checks"
    )
    cmp_sub = cmp_.add_subparsers(dest="campaign_command", required=True)

    crun = cmp_sub.add_parser(
        "run", help="apps x scenarios grid, N seeded replicates per cell"
    )
    crun.add_argument("--apps", default="lu,fw", help="comma-separated: lu,fw")
    crun.add_argument("--preset", default="xd1",
                      help="machine preset, or a comma-separated list for a "
                           "multi-preset grid (e.g. xd1,xt3,rasc)")
    crun.add_argument("--scenarios", default="nominal",
                      help="comma-separated library scenario names")
    crun.add_argument("--replicates", type=int, default=20,
                      help="replicates per cell (default 20)")
    crun.add_argument("--seed", default=None,
                      help="master seed (default: $REPRO_SEED, else 0)")
    crun.add_argument("--jitter", type=float, default=0.05,
                      help="bandwidth/DRAM/clock jitter amplitude (default 0.05)")
    crun.add_argument("--stalls", type=int, default=4,
                      help="transient DMA stalls per replicate (arrival noise)")
    crun.add_argument("--throttle-fpga", type=float, default=None, metavar="FACTOR",
                      help="persistent FPGA clock factor on every cell (e.g. 0.8)")
    crun.add_argument("--factor", type=float, default=None,
                      help="rate factor for the base scenarios")
    crun.add_argument("--jobs", default=None,
                      help="worker processes (int or 'auto'; default: $REPRO_PARALLEL)")
    crun.add_argument("--cache", default=None,
                      help="result-cache directory ('off' disables; default: $REPRO_CACHE)")
    crun.add_argument("--out", default=None, metavar="PATH",
                      help="write the campaign manifest as JSON")
    crun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'campaign' manifest to this run ledger")
    crun.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    crun.set_defaults(fn=_cmd_campaign_run)

    crep = cmp_sub.add_parser("report", help="per-cell distribution summary")
    crep.add_argument("--manifest", default=None, metavar="PATH",
                      help="campaign manifest JSON (from 'campaign run --out')")
    crep.add_argument("--ledger", default=None, metavar="PATH",
                      help="read the latest 'campaign' entry from this ledger")
    crep.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    crep.set_defaults(fn=_cmd_campaign_report)

    cchk = cmp_sub.add_parser(
        "check", help="statistical regression check against a baseline campaign"
    )
    cchk.add_argument("--baseline", required=True, metavar="PATH",
                      help="baseline campaign manifest JSON")
    cchk.add_argument("--manifest", required=True, metavar="PATH",
                      help="current campaign manifest JSON")
    cchk.add_argument("--alpha", type=float, default=None,
                      help="Mann-Whitney significance level (default 0.05)")
    cchk.add_argument("--effect", type=float, default=None,
                      help="relative median-shift threshold (default 0.02)")
    cchk.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'campaign_check' manifest to this run ledger"
                           " (and, with --explain, the explain manifests)")
    cchk.add_argument("--json", action="store_true", help="emit the verdicts as JSON")
    cchk.add_argument("--explain", action="store_true",
                      help="re-run each flagged cell traced on both sides and "
                           "print a blame-ranked root-cause diff")
    cchk.add_argument("--explain-out", default=None, metavar="PATH",
                      help="write the explain manifests as a JSON array")
    cchk.set_defaults(fn=_cmd_campaign_check)

    cfig = cmp_sub.add_parser(
        "figures", help="per-cell box plots (and --ledger makespan timeline)"
    )
    cfig.add_argument("--manifest", default=None, metavar="PATH",
                      help="campaign manifest JSON (from 'campaign run --out')")
    cfig.add_argument("--ledger", default=None, metavar="PATH",
                      help="read campaign entries from this ledger (latest for "
                           "the box plot, all of them for the timeline)")
    cfig.add_argument("--width", type=int, default=46, help="box-plot width")
    cfig.add_argument("--out", default=None, metavar="PATH",
                      help="also write the figures to a text file")
    cfig.set_defaults(fn=_cmd_campaign_figures)

    tun = sub.add_parser(
        "tune", help="guided design-space search (successive halving + Pareto)"
    )
    tun_sub = tun.add_subparsers(dest="tune_command", required=True)

    trun = tun_sub.add_parser(
        "run", help="analytic rung -> DES on survivors -> local refinement"
    )
    trun.add_argument("--space", default=None, metavar="NAME",
                      help="named search space: fig5-bf, fw-split, lu-bf-l, "
                           "mm-codesign (exclusive with --kind/--fixed/--axis)")
    trun.add_argument("--kind", default=None, choices=("block_mm", "lu", "fw"),
                      help="workload kind for an ad-hoc space")
    trun.add_argument("--machine", default="xd1", help="machine preset (default xd1)")
    trun.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                      help="pin one parameter (repeatable), e.g. --fixed b=3000")
    trun.add_argument("--axis", action="append", metavar="NAME=LO:HI:STEP",
                      help="search axis (repeatable): name=lo:hi:step inclusive, "
                           "or name=v1,v2,...")
    trun.add_argument("--seed", default=None,
                      help="master seed (default: $REPRO_SEED, else 0)")
    trun.add_argument("--eta", type=int, default=4,
                      help="keep the top 1/eta of the analytic rung (default 4)")
    trun.add_argument("--budget", type=int, default=None,
                      help="full-fidelity DES evaluation cap "
                           "(default: a quarter of the space)")
    trun.add_argument("--refine", type=int, default=1,
                      help="local-refinement neighbourhood radius; 0 disables")
    trun.add_argument("--resilience", default=None, metavar="SCENARIO",
                      help="also score DES survivors under this fault scenario "
                           "(adds the resilience Pareto objective)")
    trun.add_argument("--resilience-keep", type=int, default=2,
                      help="how many survivors to score under faults (default 2)")
    trun.add_argument("--jobs", default=None,
                      help="worker processes (int or 'auto'; default: $REPRO_PARALLEL)")
    trun.add_argument("--cache", default=None,
                      help="result-cache directory ('off' disables; default: $REPRO_CACHE)")
    trun.add_argument("--out", default=None, metavar="PATH",
                      help="write the tune manifest as JSON")
    trun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'tune' manifest to this run ledger")
    trun.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    trun.set_defaults(fn=_cmd_tune_run)

    trep = tun_sub.add_parser("report", help="render a recorded tune manifest")
    trep.add_argument("--manifest", default=None, metavar="PATH",
                      help="tune manifest JSON (from 'tune run --out')")
    trep.add_argument("--ledger", default=None, metavar="PATH",
                      help="read the latest 'tune' entry from this ledger")
    trep.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    trep.set_defaults(fn=_cmd_tune_report)

    args = parser.parse_args(argv)
    _p.reset()
    try:
        result = args.fn(args)
    except BrokenPipeError:
        # Backstop for writes outside the safe writer (e.g. argparse).
        _p._die()
        return 0
    return int(result) if isinstance(result, int) else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import main as validate_main

    return validate_main()


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    from .obs import metrics_summary, read_metrics_jsonl

    try:
        records = read_metrics_jsonl(args.metrics)
    except (OSError, ValueError) as exc:
        _p(f"error: {exc}")
        return 2
    _p(metrics_summary(records))
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from .obs import read_metrics_jsonl

    try:
        records = read_metrics_jsonl(args.metrics)
    except (OSError, ValueError) as exc:
        _p(f"error: {exc}")
        return 2
    reports = [
        rec for rec in records
        if rec.get("kind") == "overlap" and (args.app is None or rec.get("app") == args.app)
    ]
    if not reports:
        which = f" for app {args.app!r}" if args.app else ""
        _p(f"error: no overlap reports{which} in {args.metrics}")
        return 2
    failed = 0
    for rec in reports:
        eff = rec["overlap_efficiency"]
        ok = eff >= args.minimum
        status = "ok  " if ok else "FAIL"
        _p(f"{status} {rec['app']}: overlap_efficiency {eff:.4f} "
           f"(floor {args.minimum:.2f})")
        failed += 0 if ok else 1
    return 1 if failed else 0


# ------------------------------------------------------------- run ledger


def _cmd_ledger_record(args: argparse.Namespace) -> int:
    from .obs import (
        LedgerError,
        RunLedger,
        critical_path,
        entries_from_metrics,
        from_chrome_trace,
        read_metrics_jsonl,
    )

    try:
        records = read_metrics_jsonl(args.metrics)
        critical_paths = None
        if args.trace:
            report = critical_path(from_chrome_trace(args.trace))
            apps = {r.get("app") for r in records if r.get("kind") == "overlap"}
            critical_paths = {app: report.to_dict() for app in apps}
        entries = entries_from_metrics(
            records,
            preset=args.preset,
            source=args.source,
            git_sha=args.git_sha,
            critical_paths=critical_paths,
            note=args.note,
        )
        ledger = RunLedger(args.ledger)
        for entry in entries:
            appended = ledger.append(entry)
            cp = appended.get("critical_path") or {}
            dominant = f", critical path: {cp['dominant']}" if cp else ""
            _p(f"recorded seq {appended['seq']}: {appended['app']}@{appended['preset']} "
               f"overlap_efficiency "
               f"{appended['measured']['overlap_efficiency']:.4f}{dominant} "
               f"-> {ledger.path}")
    except (OSError, LedgerError, ValueError) as exc:
        _p(f"error: {exc}")
        return 2
    return 0


def _cmd_ledger_list(args: argparse.Namespace) -> int:
    from .obs import LEDGER_SCHEMA, LedgerError, RunLedger

    try:
        entries = RunLedger(args.ledger).entries(app=args.app)
    except LedgerError as exc:
        _p(f"error: {exc}")
        return 2
    if args.limit:
        entries = entries[-args.limit:]
    if not entries:
        _p(f"(no entries in {args.ledger})")
        return 0
    rows = []
    for e in entries:
        measured = e.get("measured") or {}
        eff = measured.get("overlap_efficiency")
        cp = e.get("critical_path") or {}
        rows.append([
            e.get("seq"), e.get("ts", ""), e.get("kind", ""), e.get("app", ""),
            e.get("preset", ""),
            f"{eff:.4f}" if eff is not None else "-",
            cp.get("dominant", "-"),
            str(e.get("git_sha", ""))[:8],
            e.get("source", ""),
        ])
    _p(table(
        ["seq", "ts", "kind", "app", "preset", "overlap_eff", "bound by", "git", "source"],
        rows,
        title=f"run ledger {args.ledger} (schema {LEDGER_SCHEMA})",
    ))
    return 0


def _cmd_ledger_diff(args: argparse.Namespace) -> int:
    from .obs import LedgerError, RunLedger, render_diff

    try:
        ledger = RunLedger(args.ledger)
        a, b = ledger.resolve(args.a), ledger.resolve(args.b)
    except LedgerError as exc:
        _p(f"error: {exc}")
        return 2
    _p(render_diff(a, b))
    return 0


def _cmd_ledger_check(args: argparse.Namespace) -> int:
    from .obs import LedgerError, RunLedger, fidelity_check, fidelity_report

    try:
        entries = RunLedger(args.ledger).entries()
    except LedgerError as exc:
        _p(f"error: {exc}")
        return 2
    if not entries:
        _p(f"error: ledger {args.ledger} is empty or missing")
        return 2
    stats = fidelity_report(entries, band=args.band)
    if args.app is not None:
        stats = [st for st in stats if st.app == args.app]
    if not stats:
        which = f" for app {args.app!r}" if args.app else ""
        _p(f"error: no design_run series{which} in {args.ledger}")
        return 2
    for st in stats:
        _p(st.summary(band=args.band))
    failures, warnings = fidelity_check(
        entries, band=args.band, drift_tolerance=args.drift, app=args.app
    )
    for msg in warnings:
        _p(f"warning: {msg}")
    for msg in failures:
        _p(f"FAIL: {msg}")
    if failures:
        return 1
    _p(f"fidelity ok: every series at or above the {args.band:.2f} band")
    return 0


def _cmd_obs_dashboard(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import LedgerError, RunLedger, render_ascii, render_html

    try:
        entries = RunLedger(args.ledger).entries()
    except LedgerError as exc:
        _p(f"error: {exc}")
        return 2
    _p(render_ascii(entries, band=args.band))
    if args.html:
        path = Path(args.html)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_html(entries, band=args.band), encoding="utf-8")
        _p(f"dashboard written to {path}")
    return 0


def _scenario_from_args(args: argparse.Namespace):
    from .faults import build_scenario

    return build_scenario(
        args.scenario,
        factor=getattr(args, "factor", None),
        at=getattr(args, "at", None),
        duration=getattr(args, "duration", None),
        node=getattr(args, "node", None),
        seed=getattr(args, "seed", 0),
    )


def _append_fault_entries(ledger_path: str, results: list[dict], source: str) -> None:
    from .obs import RunLedger, fault_run_entry

    ledger = RunLedger(ledger_path)
    for result in results:
        ledger.append(fault_run_entry(result, source=source))
    _p(f"{len(results)} fault_run manifest(s) appended to {ledger.path}")


def _cmd_faults_run(args: argparse.Namespace) -> int:
    import json as _json

    from .faults import POLICIES, ResilienceReport, run_with_faults

    if args.policy not in POLICIES:
        _p(f"error: unknown policy {args.policy!r}; expected one of {POLICIES}")
        return 2
    try:
        scenario = _scenario_from_args(args)
        result = run_with_faults(
            args.app, scenario, args.policy, preset=args.preset, n=args.n, b=args.b
        ).to_dict()
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    if args.json:
        _p(_json.dumps(result, indent=2, sort_keys=True))
    else:
        _p(ResilienceReport([result]).render_ascii())
    if args.ledger:
        _append_fault_entries(args.ledger, [result], source="cli")
    return 0


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .faults import POLICIES, ResilienceReport, build_scenario, fault_sweep
    from .parallel import resolve_jobs

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        _p(f"error: unknown policies {unknown}; expected from {POLICIES}")
        return 2
    try:
        scenarios = [
            build_scenario(name.strip(), factor=args.factor, seed=args.seed)
            for name in args.scenarios.split(",")
            if name.strip()
        ]
        resolve_jobs(args.jobs)
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    cache = args.cache
    if cache is not None and cache.strip().lower() in ("", "off", "0", "none", "false"):
        cache = False
    results = fault_sweep(
        apps, scenarios, policies, preset=args.preset, jobs=args.jobs, cache=cache
    )
    _p(ResilienceReport(results).render_ascii())
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
        _p(f"results written to {path}")
    if args.ledger:
        _append_fault_entries(args.ledger, results, source="cli")
    return 0


def _cmd_faults_report(args: argparse.Namespace) -> int:
    import json as _json

    from .faults import ResilienceReport
    from .obs import LedgerError

    try:
        report = ResilienceReport.from_ledger(args.ledger)
    except LedgerError as exc:
        _p(f"error: {exc}")
        return 2
    if args.json:
        _p(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _p(report.render_ascii())
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .campaign import (
        CampaignSpec,
        PerturbationModel,
        render_manifest,
        resolve_seed,
        run_campaign,
    )
    from .faults import build_scenario
    from .parallel import resolve_jobs

    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    presets = tuple(p.strip() for p in args.preset.split(",") if p.strip())
    try:
        seed = resolve_seed(args.seed)
        scenarios = tuple(
            build_scenario(name.strip(), factor=args.factor, seed=seed)
            for name in args.scenarios.split(",")
            if name.strip()
        )
        perturb = PerturbationModel(
            bandwidth_jitter=args.jitter,
            dram_jitter=args.jitter,
            clock_jitter=args.jitter,
            stall_count=args.stalls,
        )
        spec = CampaignSpec(
            apps=apps,
            preset=presets[0] if presets else "xd1",
            presets=presets if len(presets) > 1 else (),
            scenarios=scenarios,
            replicates=args.replicates,
            seed=seed,
            perturb=perturb,
            throttle_fpga=args.throttle_fpga,
        )
        resolve_jobs(args.jobs)
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    cache = args.cache
    if cache is not None and cache.strip().lower() in ("", "off", "0", "none", "false"):
        cache = False
    telemetry: dict = {}
    try:
        manifest = run_campaign(spec, jobs=args.jobs, cache=cache, telemetry=telemetry)
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    if args.json:
        _p(_json.dumps(manifest, indent=2, sort_keys=True))
    else:
        _p(render_manifest(manifest))
        if telemetry.get("executor"):
            from .obs.dashboard import _worker_lines

            _p("workers:")
            for line in _worker_lines(telemetry):
                _p(f"  {line}")
    if args.out:
        from .campaign import write_manifest

        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_manifest(manifest, str(path))
        _p(f"manifest written to {path}")
    if args.ledger:
        from .obs import RunLedger, campaign_entry

        ledger = RunLedger(args.ledger)
        ledger.append(campaign_entry(manifest, source="cli", workers=telemetry))
        _p(f"campaign manifest appended to {ledger.path}")
    return 0


def _load_campaign_manifest(args: argparse.Namespace) -> dict | None:
    """The manifest named by ``--manifest`` or the latest ledger entry."""
    from .campaign import load_manifest
    from .obs import LedgerError, RunLedger

    if args.manifest:
        return load_manifest(args.manifest)
    if args.ledger:
        entries = RunLedger(args.ledger).entries(kind="campaign")
        if not entries:
            raise LedgerError(f"{args.ledger}: no campaign entries")
        return entries[-1]
    return None


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import json as _json

    from .campaign import render_manifest
    from .obs import LedgerError

    try:
        manifest = _load_campaign_manifest(args)
    except (OSError, ValueError, LedgerError) as exc:
        _p(f"error: {exc}")
        return 2
    if manifest is None:
        _p("error: pass --manifest PATH or --ledger PATH")
        return 2
    if args.json:
        _p(_json.dumps(manifest, indent=2, sort_keys=True))
    else:
        _p(render_manifest(manifest))
    return 0


def _cmd_campaign_check(args: argparse.Namespace) -> int:
    import json as _json

    from .campaign import (
        DEFAULT_ALPHA,
        DEFAULT_EFFECT,
        compare_campaigns,
        load_manifest,
        render_check,
    )

    try:
        baseline = load_manifest(args.baseline)
        current = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        _p(f"error: {exc}")
        return 2
    comparison = compare_campaigns(
        baseline,
        current,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
        effect_threshold=args.effect if args.effect is not None else DEFAULT_EFFECT,
    )
    if args.json:
        _p(_json.dumps(comparison, indent=2, sort_keys=True))
    else:
        _p(render_check(comparison))
    if args.ledger:
        from .obs import RunLedger, campaign_check_entry

        ledger = RunLedger(args.ledger)
        ledger.append(campaign_check_entry(comparison, source="cli"))
        _p(f"campaign_check manifest appended to {ledger.path}")
    if args.explain or args.explain_out:
        from .campaign import explain_comparison

        try:
            explains = explain_comparison(baseline, current, comparison=comparison)
        except ValueError as exc:
            _p(f"error: {exc}")
            return 2
        _emit_explains(explains, out=args.explain_out,
                       ledger=args.ledger, as_json=args.json)
    return 1 if comparison["verdict"] == "fail" else 0


def _emit_explains(
    explains: list[dict],
    *,
    out: str | None,
    ledger: str | None,
    as_json: bool,
) -> None:
    """Print / persist explain manifests (shared by check --explain and
    obs explain)."""
    import json as _json
    from pathlib import Path

    from .obs import render_explain

    if as_json:
        _p(_json.dumps(explains, indent=2, sort_keys=True))
    elif not explains:
        _p("nothing to explain (no flagged cells)")
    else:
        for manifest in explains:
            _p(render_explain(manifest))
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            _json.dump(explains, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _p(f"explain manifests written to {path} ({len(explains)} cells)")
    if ledger and explains:
        from .obs import RunLedger, explain_entry

        led = RunLedger(ledger)
        for manifest in explains:
            led.append(explain_entry(manifest, source="cli"))
        _p(f"{len(explains)} explain manifests appended to {led.path}")


def _cmd_obs_explain(args: argparse.Namespace) -> int:
    from .campaign import DEFAULT_ALPHA, DEFAULT_EFFECT, load_manifest
    from .campaign.explain import explain_cell, explain_comparison

    try:
        baseline = load_manifest(args.baseline)
        current = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        _p(f"error: {exc}")
        return 2
    try:
        if args.cell:
            keys = [k.strip() for k in args.cell.split(",") if k.strip()]
            explains = [
                explain_cell(baseline, current, key, replicate=args.replicate)
                for key in keys
            ]
        else:
            explains = explain_comparison(
                baseline,
                current,
                alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
                effect_threshold=(
                    args.effect if args.effect is not None else DEFAULT_EFFECT
                ),
            )
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    _emit_explains(explains, out=args.out, ledger=args.ledger, as_json=args.json)
    return 0


def _cmd_campaign_figures(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .campaign import render_figures, render_timeline
    from .obs import LedgerError

    try:
        manifest = _load_campaign_manifest(args)
    except (OSError, ValueError, LedgerError) as exc:
        _p(f"error: {exc}")
        return 2
    if manifest is None:
        _p("error: pass --manifest PATH or --ledger PATH")
        return 2
    parts = [render_figures(manifest, width=args.width)]
    if args.ledger:
        from .obs import RunLedger

        entries = RunLedger(args.ledger).entries(kind="campaign")
        if len(entries) > 1:
            parts.append(render_timeline(entries))
    text = "\n\n".join(parts)
    _p(text)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        _p(f"figures written to {path}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS, active_cache, configured
    from .parallel import resolve_jobs

    if args.only:
        wanted = [name.strip() for name in args.only.split(",")]
        unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
        if unknown:
            _p(f"unknown experiment ids: {unknown}; available: {sorted(ALL_EXPERIMENTS)}")
            return 2
        selected = {name: ALL_EXPERIMENTS[name] for name in wanted}
    else:
        selected = ALL_EXPERIMENTS
    cache = args.cache
    if cache is not None and cache.strip().lower() in ("", "off", "0", "none", "false"):
        cache = False
    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    if _obs_enabled(args):
        from .obs import Tracer, set_tracer

        set_tracer(Tracer())
    failed = []
    outcomes: list[tuple[str, bool]] = []
    with configured(jobs=args.jobs, cache=cache, fast_path=args.fast_path):
        for name, fn in selected.items():
            result = fn()
            outcomes.append((name, result.ok))
            _p("=" * 72)
            _p(result.summary())
            _p(result.text)
            _p()
            if not result.ok:
                failed.append(name)
        run_cache = active_cache()
        if run_cache is not None:
            _p(run_cache.footer())
    if _obs_enabled(args):
        from .obs import REGISTRY, get_tracer, write_chrome_trace, write_metrics_jsonl

        tracer = get_tracer()
        if args.trace_out:
            path = write_chrome_trace(
                args.trace_out, spans=tracer.spans, span_epoch=tracer.epoch
            )
            _p(f"trace written to {path} (chrome://tracing / Perfetto)")
        if args.metrics_out:
            path = write_metrics_jsonl(
                args.metrics_out, REGISTRY,
                extra={"command": "experiments", "only": args.only},
            )
            _p(f"metrics written to {path}")
    if args.ledger:
        from .obs import REGISTRY, RunLedger, experiments_entry
        from .sim.analytic import fastpath_summary

        try:
            sim_points = int(REGISTRY.value("experiments.sim_points"))
        except KeyError:
            sim_points = None
        entry = RunLedger(args.ledger).append(
            experiments_entry(
                outcomes,
                sim_points=sim_points,
                source="cli",
                fast_path=fastpath_summary(REGISTRY),
            )
        )
        _p(f"recorded seq {entry['seq']}: experiments "
           f"({entry['passed']} passed, {entry['failed']} failed) -> {args.ledger}")
    if failed:
        _p(f"FAILED checks in: {failed}")
        return 1
    _p("All reproduction checks passed.")
    return 0


def _tune_space_from_args(args: argparse.Namespace):
    """The search space named by ``--space`` or built from ``--kind`` flags."""
    from .tune import SearchSpace, named_space, parse_axis

    if args.space:
        if args.kind or args.fixed or args.axis:
            raise ValueError("--space is exclusive with --kind/--fixed/--axis")
        return named_space(args.space)
    if not args.kind:
        raise ValueError("pass --space NAME, or --kind with --axis (and --fixed)")
    fixed = {}
    for item in args.fixed or []:
        name, values = parse_axis(item)
        if len(values) != 1:
            raise ValueError(f"--fixed {item!r} must pin exactly one value")
        fixed[name] = values[0]
    axes = dict(parse_axis(item) for item in args.axis or [])
    if not axes:
        raise ValueError("at least one --axis is required for an ad-hoc space")
    return SearchSpace(kind=args.kind, machine=args.machine, fixed=fixed, axes=axes)


def _cmd_tune_run(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .campaign import resolve_seed
    from .tune import TuneSpec, render_tune, run_tune, write_manifest

    try:
        spec = TuneSpec(
            space=_tune_space_from_args(args),
            seed=resolve_seed(args.seed),
            eta=args.eta,
            budget=args.budget,
            refine=args.refine,
            resilience=args.resilience,
            resilience_keep=args.resilience_keep,
        )
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    cache = args.cache
    if cache is not None and cache.strip().lower() in ("", "off", "0", "none", "false"):
        cache = False
    telemetry: dict = {}
    try:
        manifest = run_tune(spec, jobs=args.jobs, cache=cache, telemetry=telemetry)
    except ValueError as exc:
        _p(f"error: {exc}")
        return 2
    if args.json:
        _p(_json.dumps(manifest, indent=2, sort_keys=True))
    else:
        _p(render_tune(manifest))
        if telemetry.get("executor"):
            from .obs.dashboard import _worker_lines

            _p("workers:")
            for line in _worker_lines(telemetry):
                _p(f"  {line}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_manifest(manifest, str(path))
        _p(f"manifest written to {path}")
    if args.ledger:
        from .obs import RunLedger, tune_entry

        ledger = RunLedger(args.ledger)
        entry = ledger.append(
            tune_entry(manifest, source="cli", workers=telemetry or None)
        )
        _p(f"recorded seq {entry['seq']}: tune manifest -> {ledger.path}")
    return 0


def _cmd_tune_report(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import LedgerError
    from .tune import load_manifest, render_tune

    try:
        if args.manifest:
            manifest = load_manifest(args.manifest)
        elif args.ledger:
            from .obs import RunLedger

            entries = RunLedger(args.ledger).entries(kind="tune")
            if not entries:
                raise LedgerError(f"{args.ledger}: no tune entries")
            manifest = entries[-1]
        else:
            _p("error: pass --manifest PATH or --ledger PATH")
            return 2
    except (OSError, ValueError, LedgerError) as exc:
        _p(f"error: {exc}")
        return 2
    if args.json:
        _p(_json.dumps(manifest, indent=2, sort_keys=True))
    else:
        _p(render_tune(manifest))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
