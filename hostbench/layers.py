"""Outside-in tracing for the traced run: wrappers, spans, per-layer numbers.

The wrappers are installed from the benchmark's own files around the
program's public functions, at every name a caller looks them up by:
each module attribute that holds the function (so deferred imports such
as ``apps.lu.simulate._analytic_lu`` -> ``apps.lu.analytic.analytic_lu``
see the wrapper), each class attribute for methods, and the
``experiments.ALL_EXPERIMENTS`` table.  Spans (name, layer, start, end,
parent, run id) are kept in memory; counters cover calls too hot for a
span (the DES event factories, MPI sends).

Under ``jobs=2`` the executor's workers are separate processes: their
work is visible here only through ``SweepExecutor.last_telemetry``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from repro import experiments
from repro.apps.fw import analytic as fw_analytic
from repro.apps.fw import functional as fw_functional
from repro.apps.fw import simulate as fw_simulate
from repro.apps.fw.design import FwDesign
from repro.apps.lu import analytic as lu_analytic
from repro.apps.lu import functional as lu_functional
from repro.apps.lu import simulate as lu_simulate
from repro.apps.lu.design import LuDesign
from repro.apps.mm import analytic as mm_analytic
from repro.apps.mm import functional as mm_functional
from repro.apps.mm import simulate as mm_simulate
from repro.apps.mm.design import MmDesign
from repro.campaign import core as campaign_core
from repro.campaign import runner as campaign_runner
from repro.core import partition
from repro.faults.inject import FaultInjector
from repro.hw.fw_design import FloydWarshallDesign
from repro.hw.pe_array import LinearPEArray
from repro.kernels import blas, floyd_warshall
from repro.machine.system import ReconfigurableSystem
from repro.mpi.comm import Communicator
from repro.obs import REGISTRY
from repro.parallel.cache import ResultCache
from repro.parallel.executor import SweepExecutor
from repro.sim import analytic as sim_analytic
from repro.sim.core import Simulator
from repro import validate

#: Layers reported as ``self_s.<layer>``, named by module.
LAYERS = (
    "experiments",
    "parallel.cache",
    "parallel.executor",
    "analytic",
    "sim.core",
    "apps",
    "apps.functional",
    "obs.overlap",
    "machine",
    "faults",
    "campaign",
    "core.partition",
    "kernels",
    "hw",
    "validate",
)

#: The benchmark's own modules that call the program; patched like ``repro.*``.
CALLER_MODULES = ("workloads",)

SIM_APPS = ("lu", "fw", "mm", "block_mm")
FALLBACK_REASONS = (
    "ambiguous-tie", "trace", "faults", "monitor", "node-specs", "unsupported-config", "disabled",
)
KERNELS = ("gemm", "getrf", "trsm", "fwi")


#: Per-layer metrics the traced run adds to each cycle's span metrics.
RUN_METRICS = ("traced_cycle_s", "untraced_cycle_s", "tracing_overhead_s",
               "tracing_overhead_ratio", "check.wrapper_mismatches",
               "child_peak_rss_mb")


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run prints, in order."""
    empty = Recorder()
    return [*unit_metrics(empty, empty.begin_run(), Counter()), *RUN_METRICS]


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.startswith("self_s.") or name == "des.host_s_per_event":
        return "s"
    if name.endswith(("ratio", "coverage", "imbalance")):
        return "ratio"
    if name == "mpi.bytes":
        return "B"
    if name == "kernels.gflop":
        return "Gflop"
    return "count"


def per_layer_units() -> dict[str, str]:
    return {name: unit_of(name) for name in per_layer_names()}


# ------------------------------------------------------------------ spans

NAME, LAYER, START, END, PARENT, RUN, INFO = range(7)


class Recorder:
    """In-memory spans plus hot-path counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.run = -1
        #: Index of each run's first span (runs are recorded one after another).
        self.run_start: list[int] = []
        self.counts: Counter = Counter()
        #: Reason of the last FastPathUnsupported an analytic solver raised.
        self.refusal: Optional[str] = None

    def begin_run(self) -> int:
        """Start a new run id; spans opened from now on carry it."""
        self.run += 1
        self.run_start.append(len(self.spans))
        return self.run

    def run_spans(self, run: int) -> tuple[int, list[list[Any]]]:
        """(index of the run's first span, the run's spans)."""
        first = self.run_start[run]
        last = self.run_start[run + 1] if run + 1 < len(self.run_start) else len(self.spans)
        return first, self.spans[first:last]

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.run, {}])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def to_records(self) -> list[dict[str, Any]]:
        return [
            {"name": s[NAME], "layer": s[LAYER], "start": s[START], "end": s[END],
             "parent": s[PARENT], "run": s[RUN], **s[INFO]}
            for s in self.spans
        ]


def _spanned(rec: Recorder, layer: str, name: str, fn: Callable,
             after: Optional[Callable] = None, on_error: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            rec.close(idx)
        if after is not None:
            after(rec.spans[idx], args, kwargs, result)
        return result

    return wrapper


def _counted(counts: Counter, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------- patches


class Patches:
    """Installs wrappers at every lookup site and restores the originals."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every loaded caller module that holds it."""
        sites = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname in CALLER_MODULES or modname == "repro" or modname.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, fn))
                    sites += 1
        if not sites:
            raise RuntimeError(f"no lookup site for {fn.__module__}.{fn.__qualname__}")

    def method(self, cls: type, name: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrapper_for(original))
        self._undo.append(functools.partial(setattr, cls, name, original))

    def table(self, table: dict, key: str, wrapper: Callable) -> None:
        original = table[key]
        table[key] = wrapper
        self._undo.append(functools.partial(table.__setitem__, key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _fast_path_hook(rec: Recorder, fn: Callable) -> Callable:
    """``try_fast_path``: count analytic vs DES points and why each fell back."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if sim_analytic.resolve_fast_path(a["mode"]) == "off":
            reason = "disabled"
        else:
            reason = sim_analytic.fast_path_refusal(
                a["trace"], a["node_specs"], a["monitor"], a["faults"]
            )
        rec.refusal = None
        idx = rec.open("fastpath.try", "analytic")
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if result is None:
            rec.counts["fastpath.des"] += 1
            rec.counts[f"fastpath.fallback.{reason or rec.refusal}"] += 1
        else:
            rec.counts["fastpath.analytic"] += 1
        return result

    return wrapper


def _kernel_flops(name: str, args: tuple) -> float:
    if name == "gemm":
        (m, k), n = args[0].shape, args[1].shape[1]
        return 2.0 * m * n * k
    if name == "getrf":
        n = args[0].shape[0]
        return 2.0 / 3.0 * n ** 3
    if name == "trsm":
        tri, rhs = args[0].shape[0], args[1].size
        return float(tri) * rhs
    return 2.0 * args[0].shape[0] ** 3  # fwi on one b x b block


def install(rec: Recorder) -> Patches:
    """Wrap every traced layer's public functions; returns the undo log."""
    p = Patches()
    counts = rec.counts

    def refused(exc: BaseException) -> None:
        if isinstance(exc, sim_analytic.FastPathUnsupported):
            rec.refusal = exc.reason

    # experiments harness
    for exp_id, fn in list(experiments.ALL_EXPERIMENTS.items()):
        wrapper = _spanned(rec, "experiments", f"experiments.{exp_id}", fn)
        p.table(experiments.ALL_EXPERIMENTS, exp_id, wrapper)
        p.function(fn, wrapper)

    # parallel.cache / parallel.executor
    def cache_get(span, args, kwargs, result):
        span[INFO]["hit"] = result is not None

    p.method(ResultCache, "get", lambda f: _spanned(rec, "parallel.cache", "cache.get", f, cache_get))
    p.method(ResultCache, "put", lambda f: _spanned(rec, "parallel.cache", "cache.put", f))

    def executor_map(span, args, kwargs, result):
        tel = args[0].last_telemetry
        info = span[INFO]
        info.update(tasks=tel.get("tasks", len(result)), mode=tel.get("mode", "serial"))
        if info["mode"] == "parallel":
            busy = [w["busy_s"] for w in tel["per_worker"]]
            info.update(
                queue_wait=tel["queue_wait_s"]["mean"] * tel["chunks"],
                worker_busy=sum(busy),
                max_busy=max(busy),
                mean_busy=sum(busy) / len(busy),
            )

    p.method(SweepExecutor, "map",
             lambda f: _spanned(rec, "parallel.executor", "executor.map", f, executor_map))

    # analytic fast path (sim.analytic + apps.*.analytic)
    p.function(sim_analytic.try_fast_path, _fast_path_hook(rec, sim_analytic.try_fast_path))
    for app, fn in (("lu", lu_analytic.analytic_lu), ("fw", fw_analytic.analytic_fw),
                    ("mm", mm_analytic.analytic_mm), ("block_mm", lu_analytic.analytic_block_mm)):
        p.function(fn, _spanned(rec, "analytic", f"analytic.{app}", fn, on_error=refused))

    def batch_points(span, args, kwargs, result):
        span[INFO]["points"] = len(result)

    for fn in (lu_analytic.analytic_block_mm_batch, fw_analytic.analytic_fw_batch):
        p.function(fn, _spanned(rec, "analytic", "analytic.batch", fn, batch_points))

    # sim.core: the DES loop, plus event-factory counts
    p.method(Simulator, "run", lambda f: _spanned(rec, "sim.core", "des.run", f))
    for factory in ("timeout", "event", "process", "all_of"):
        p.method(Simulator, factory, lambda f: _counted(counts, "des.events_created", f))

    # apps schedules (DES/analytic entry points) and functional paths
    for app, fn in (("lu", lu_simulate.simulate_lu), ("fw", fw_simulate.simulate_fw),
                    ("mm", mm_simulate.simulate_mm), ("block_mm", lu_simulate.simulate_block_mm)):
        p.function(fn, _spanned(rec, "apps", f"apps.{app}", fn))

    def functional_messages(span, args, kwargs, result):
        counts["mpi.functional_messages"] += result.messages

    for fn in (lu_functional.distributed_block_lu, fw_functional.distributed_blocked_fw,
               mm_functional.distributed_ring_mm):
        p.function(fn, _spanned(rec, "apps.functional", "apps.functional", fn, functional_messages))

    # obs.overlap reconciliation
    for cls in (LuDesign, FwDesign, MmDesign):
        p.method(cls, "overlap_report",
                 lambda f: _spanned(rec, "obs.overlap", "overlap.report", f))

    # machine construction and fault installation
    p.method(ReconfigurableSystem, "__init__",
             lambda f: _spanned(rec, "machine", "machine.build", f))
    p.method(FaultInjector, "install", lambda f: _spanned(rec, "faults", "faults.install", f))

    # campaign
    p.function(campaign_core.run_campaign,
               _spanned(rec, "campaign", "campaign.run", campaign_core.run_campaign))

    def replicate(span, args, kwargs, result):
        span[INFO]["failed"] = bool(result.get("failed"))

    p.function(campaign_runner.run_replicate,
               _spanned(rec, "campaign", "campaign.replicate", campaign_runner.run_replicate,
                        replicate))

    # core partition solvers
    for name in partition.__all__:
        fn = getattr(partition, name)
        if inspect.isfunction(fn):
            p.function(fn, _spanned(rec, "core.partition", "core.partition", fn))

    # kernels, hw PE arrays
    def kernel_flops(kernel):
        def after(span, args, kwargs, result):
            counts["kernels.flop"] += _kernel_flops(kernel, args)
        return after

    for kernel, fn in (("gemm", blas.gemm), ("getrf", blas.getrf_nopiv),
                       ("trsm", blas.trsm_lower_left_unit), ("trsm", blas.trsm_upper_right),
                       ("fwi", floyd_warshall.fwi)):
        p.function(fn, _spanned(rec, "kernels", f"kernels.{kernel}", fn, kernel_flops(kernel)))
    p.method(LinearPEArray, "multiply", lambda f: _spanned(rec, "hw", "hw.pe_array", f))
    p.method(FloydWarshallDesign, "run_tile", lambda f: _spanned(rec, "hw", "hw.fw_array", f))

    # mpi (DES message layer): counts only, sends are generators
    def send(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nbytes = kwargs.get("nbytes", args[4] if len(args) > 4 else None)
            counts["mpi.messages"] += 1
            counts["mpi.bytes"] += int(nbytes or 0)
            return fn(*args, **kwargs)
        return wrapper

    p.method(Communicator, "send", send)

    # functional validation matrix
    p.function(validate.run_validation,
               _spanned(rec, "validate", "validate.run", validate.run_validation))
    return p


# ------------------------------------------------------------ aggregation


def registry_totals() -> Counter:
    """The program's own counters, summed per ``name`` and ``name{label}``."""
    totals: Counter = Counter()
    for item in REGISTRY.snapshot():
        if item.get("kind") != "counter":
            continue
        name, labels, value = item["name"], item.get("labels", {}), item["value"]
        totals[name] += value
        for key, label in labels.items():
            totals[f"{name}{{{key}={label}}}"] += value
    return totals


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unit_metrics(rec: Recorder, run: int, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced cycle (spans of ``run``)."""
    first, spans = rec.run_spans(run)
    child: defaultdict = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT] - first] += s[END] - s[START]
    by_name: defaultdict = defaultdict(list)
    self_by_layer: defaultdict = defaultdict(float)
    self_by_name: defaultdict = defaultdict(float)
    for i, s in enumerate(spans):
        own = (s[END] - s[START]) - child[i]
        self_by_layer[s[LAYER]] += own
        self_by_name[s[NAME]] += own
        by_name[s[NAME]].append(s)

    def dur(name: str) -> list[float]:
        return [s[END] - s[START] for s in by_name[name]]

    m: dict[str, float] = {}
    batch_points = sum(s[INFO].get("points", 0) for s in by_name["analytic.batch"])
    analytic = counts["fastpath.analytic"] + batch_points
    points = analytic + counts["fastpath.des"]
    m["fastpath.points"] = points
    m["fastpath.analytic"] = analytic
    m["fastpath.des"] = counts["fastpath.des"]
    m["fastpath.coverage"] = analytic / points if points else 0.0
    for r in FALLBACK_REASONS:
        m[f"fastpath.fallback.{r}"] = counts[f"fastpath.fallback.{r}"]
    for app in SIM_APPS:
        m[f"analytic.{app}.calls"] = len(by_name[f"analytic.{app}"])
        m[f"analytic.{app}.busy_s"] = sum(dur(f"analytic.{app}"))
    m["analytic.batch.calls"] = len(by_name["analytic.batch"])
    m["analytic.batch.busy_s"] = sum(dur("analytic.batch"))
    m["analytic.batch.points"] = batch_points
    m["des.runs"] = len(by_name["des.run"])
    m["des.busy_s"] = sum(dur("des.run"))
    m["des.events_created"] = counts["des.events_created"]
    m["des.host_s_per_event"] = (
        m["des.busy_s"] / counts["des.events_created"] if counts["des.events_created"] else 0.0
    )
    for app in SIM_APPS:
        lat = dur(f"apps.{app}")
        m[f"apps.{app}.simulate_calls"] = len(lat)
        m[f"apps.{app}.self_s"] = self_by_name[f"apps.{app}"]
        m[f"apps.{app}.simulate_p50_ms"] = _quantile(lat, 0.5) * 1e3
        m[f"apps.{app}.simulate_p99_ms"] = _quantile(lat, 0.99) * 1e3
    m["apps.functional.calls"] = len(by_name["apps.functional"])
    m["apps.functional.busy_s"] = sum(dur("apps.functional"))
    m["overlap.report_calls"] = len(by_name["overlap.report"])
    m["overlap.report_busy_s"] = sum(dur("overlap.report"))
    m["machine.builds"] = len(by_name["machine.build"])
    m["machine.build_busy_s"] = sum(dur("machine.build"))
    m["faults.installs"] = len(by_name["faults.install"])
    m["faults.busy_s"] = sum(dur("faults.install"))
    reps = by_name["campaign.replicate"]
    rep_lat = dur("campaign.replicate")
    m["campaign.replicates"] = len(reps)
    m["campaign.failed"] = sum(s[INFO].get("failed", True) for s in reps)
    m["campaign.replicate_p50_ms"] = _quantile(rep_lat, 0.5) * 1e3
    m["campaign.replicate_p90_ms"] = _quantile(rep_lat, 0.9) * 1e3
    m["campaign.self_s"] = self_by_name["campaign.run"]
    gets = by_name["cache.get"]
    m["cache.gets"] = len(gets)
    m["cache.hits"] = sum(s[INFO].get("hit", False) for s in gets)
    m["cache.hit_ratio"] = m["cache.hits"] / len(gets) if gets else 0.0
    m["cache.get_busy_s"] = sum(dur("cache.get"))
    m["cache.puts"] = len(by_name["cache.put"])
    m["cache.put_busy_s"] = sum(dur("cache.put"))
    maps = by_name["executor.map"]
    par = [s for s in maps if s[INFO].get("mode") == "parallel"]
    m["executor.maps"] = len(maps)
    m["executor.parallel_maps"] = len(par)
    m["executor.tasks"] = sum(s[INFO].get("tasks", 0) for s in maps)
    m["executor.map_busy_s"] = sum(dur("executor.map"))
    m["executor.queue_wait_s"] = sum(s[INFO]["queue_wait"] for s in par)
    m["executor.worker_busy_s"] = sum(s[INFO]["worker_busy"] for s in par)
    m["executor.transport_s"] = sum((s[END] - s[START]) - s[INFO]["max_busy"] for s in par)
    mean_busy = sum(s[INFO]["mean_busy"] for s in par)
    m["executor.imbalance"] = sum(s[INFO]["max_busy"] for s in par) / mean_busy if mean_busy else 0.0
    m["experiments.sim_points"] = _expected_sim_points(spans, first)
    m["experiments.self_s"] = self_by_layer["experiments"]
    m["core.partition.calls"] = len(by_name["core.partition"])
    m["core.partition.busy_s"] = sum(dur("core.partition"))
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = len(by_name[f"kernels.{k}"])
        m[f"kernels.{k}.busy_s"] = sum(dur(f"kernels.{k}"))
    m["kernels.gflop"] = counts["kernels.flop"] / 1e9
    m["hw.pe_array.calls"] = len(by_name["hw.pe_array"])
    m["hw.pe_array.busy_s"] = sum(dur("hw.pe_array"))
    m["hw.fw_array.calls"] = len(by_name["hw.fw_array"])
    m["hw.fw_array.busy_s"] = sum(dur("hw.fw_array"))
    m["mpi.messages"] = counts["mpi.messages"]
    m["mpi.bytes"] = counts["mpi.bytes"]
    m["mpi.functional_messages"] = counts["mpi.functional_messages"]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_by_layer[layer]
    m["unattributed_s"] = self_by_layer["bench"]
    return m


def _expected_sim_points(spans: list[list], first: int) -> int:
    """Design points the harness evaluated, counted outside-in.

    With a result cache every harness task is one ``ResultCache.get``;
    without one, a task is either solved by a batch solver or mapped by
    the executor.  Only calls made under an ``experiments`` span count.
    """
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        parent = s[PARENT] - first
        under[i] = s[LAYER] == "experiments" or (parent >= 0 and under[parent])
    gets = sum(1 for i, s in enumerate(spans) if under[i] and s[NAME] == "cache.get")
    if gets:
        return gets
    return sum(
        s[INFO].get("points" if s[NAME] == "analytic.batch" else "tasks", 0)
        for i, s in enumerate(spans)
        if under[i] and s[NAME] in ("analytic.batch", "executor.map")
    )


def completeness(m: dict[str, float], before: Counter, after: Counter,
                 cache_stats: dict[str, int]) -> list[str]:
    """Wrapper counts against the program's own counters for one cycle."""
    delta = after - before
    pairs = [
        ("experiments.sim_points", m["experiments.sim_points"], delta["experiments.sim_points"]),
        ("fastpath analytic", m["fastpath.analytic"], delta["fastpath.points{path=analytic}"]),
        ("fastpath des", m["fastpath.des"], delta["fastpath.points{path=des}"]),
        ("cache lookups", m["cache.gets"], cache_stats.get("lookups", 0)),
        ("cache hits", m["cache.hits"], cache_stats.get("hits", 0)),
        ("cache puts", m["cache.puts"], cache_stats.get("puts", 0)),
    ]
    pairs += [
        (f"fastpath fallback {r}", m[f"fastpath.fallback.{r}"], delta[f"fastpath.fallback{{reason={r}}}"])
        for r in FALLBACK_REASONS
    ]
    return [f"{what}: wrappers saw {ours}, program counted {theirs}"
            for what, ours, theirs in pairs if ours != theirs]


def median_metrics(units: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over traced cycles."""
    return {name: statistics.median(u[name] for u in units) for name in units[0]}
