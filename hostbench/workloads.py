"""The four benchmark workloads: seeded inputs, timed passes, output checks.

Every workload is a class with the same shape:

* ``__init__(seed)`` builds the inputs from the seed alone (the program
  only ever sees the generated inputs) and constructs the machine
  presets it needs;
* ``cycle(timer)`` runs the inputs through the program's public entry
  points, handing each pass to ``timer`` which times it and keeps its
  :class:`PassResult`;
* ``check(passes)`` re-verifies outputs outside the timed region and
  returns a list of failure messages (empty = correct).

Only ``experiments`` has a result cache, so only there does a *cold*
pass (fresh cache directory: simulates and writes) differ from a *warm*
one (reads only).  On the other three workloads a cycle is one pass,
and ``cold_s`` and ``warm_s`` both time that pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import experiments
from repro.apps.fw import FwDesign, FwSimConfig, simulate_fw
from repro.apps.lu import LuDesign, LuSimConfig, simulate_block_mm, simulate_lu
from repro.apps.mm import MmSimConfig, simulate_mm
from repro.campaign import CampaignSpec, campaign_tasks, run_campaign
from repro.faults.scenarios import build_scenario
from repro.machine import ALL_PRESETS, cray_xd1
from repro.obs import REGISTRY
from repro.parallel import ResultCache
from repro.validate import run_validation

#: The paper's fig5-fig8 sweep grids (fixed inputs; see README.md).
SWEEP_FIGURES = ("fig5", "fig6", "fig7", "fig8")

#: Apps and presets the seeded sweep draws cover.  LU and block-MM need
#: p >= 2 nodes, so they skip the single-node SRC MAPstation.
LU_PRESETS = ("xd1", "xt3", "rasc")
FW_PRESETS = ("xd1", "xt3", "rasc", "src")
MM_PRESETS = ("xd1", "xt3", "rasc", "src")
BLOCK_MM_PRESETS = ("xd1", "xt3", "rasc")

#: Seeded sweep points re-run on the DES (``fast_path="off"``) per check.
SWEEP_CHECK_SAMPLE = 12

#: The campaign: LU+FW on XD1 under three fault scenarios.
CAMPAIGN_SCENARIOS = ("nominal", "degraded-link", "flaky-dma")
CAMPAIGN_REPLICATES = 2

#: ``experiments`` runs with two workers and this many warm passes per
#: fresh cache directory.
EXPERIMENTS_JOBS = 2
EXPERIMENTS_WARM_PASSES = 10

#: Fig. 9 hybrid GFLOPS the paper reports (Sec. 5.3).
PAPER_LU_GFLOPS = 20.0
PAPER_FW_GFLOPS = 6.6


@dataclass
class PassResult:
    """One pass: operations attempted/failed and its simulated outputs."""

    ops: int
    failed: int = 0
    outputs: Any = None
    errors: list[str] = field(default_factory=list)
    #: Host seconds of each step of the pass, in the same order every pass.
    step_s: list[float] = field(default_factory=list)

    @contextmanager
    def step(self):
        """Time one step of the pass (a figure, a design point, a cell...)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.step_s.append(time.perf_counter() - t0)


class Workload:
    """Shared pass structure: one cycle is one pass."""

    name = ""
    #: Result caches the workload created (only ``experiments`` has any).
    caches: tuple = ()
    #: Pass kinds timed as ``cold_s`` (it also gives ``ops_per_s``) and ``warm_s``.
    cold_kind = warm_kind = "pass"

    def run_pass(self) -> PassResult:  # pragma: no cover - overridden
        raise NotImplementedError

    def cycle(self, timer) -> None:
        """Run one cycle; ``timer(kind, fn)`` times and records each pass."""
        timer("pass", self.run_pass)

    def check(self, passes: list[tuple[str, float, PassResult]]) -> list[str]:
        """Extra output checks, run outside the timed region."""
        return []


def same_outputs(passes: list[tuple[str, float, PassResult]]) -> list[str]:
    """Every pass of one run must produce identical simulated outputs."""
    first = passes[0][2].outputs
    if any(res.outputs != first for _, _, res in passes[1:]):
        return ["simulated outputs differ between passes of one run"]
    return []


def digest(outputs: Any) -> str:
    """sha256 of a pass's simulated outputs (floats by ``repr``)."""
    return hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()


def _sim_points() -> int:
    """The harness's own ``experiments.sim_points`` counter."""
    return int(sum(
        s["value"] for s in REGISTRY.snapshot() if s.get("name") == "experiments.sim_points"
    ))


# ------------------------------------------------------------------ sweep


def _bins(rng: random.Random, count: int, hi: int, step: int) -> list[int]:
    """``count`` multiples of ``step`` in [0, hi], one per equal-width bin.

    Stratifying the split parameters keeps every seed's mix of
    CPU-heavy, balanced and FPGA-heavy points the same, so throughput
    compares across seeds; the values inside each bin are the seed's.
    """
    width = hi / count
    values = [min(hi, int((i * width + rng.random() * width) // step) * step) for i in range(count)]
    rng.shuffle(values)
    return values


def sweep_draws(seed: int) -> list[tuple[str, str, dict]]:
    """The seeded design points: ``(app, preset, params)`` triples.

    Structural parameters (sizes, iteration counts, aggregation) form a
    fixed lattice, so every seed has the same number of points of each
    shape; the seed draws the partition splits (``b_f``, ``l``, ``l1``,
    ``m_f``) and the overlap/collection flags inside each stratum.
    """
    rng = random.Random(seed)
    p = {name: ALL_PRESETS[name]().p for name in ALL_PRESETS}
    draws: list[tuple[str, str, dict]] = []
    for preset in LU_PRESETS:
        for b in (960, 1920):
            for nb in (2, 3, 4):
                for iterations in (1, None):
                    flags = [(True, True), (True, True), (False, True), (True, False)]
                    rng.shuffle(flags)
                    for b_f, l, (overlap, collect) in zip(
                        _bins(rng, 4, b, 8), rng.sample(range(6), 4), flags
                    ):
                        draws.append(("lu", preset, {
                            "n": b * nb, "b": b, "k": 8, "b_f": b_f, "l": l,
                            "overlap": overlap, "collect_results": collect,
                            "iterations": iterations,
                        }))
    for preset in FW_PRESETS:
        for b in (128, 256):
            for ops in (1, 2, 3, 4):
                for iterations in (1, None):
                    for aggregate in (True, False):
                        l1 = rng.randint(0, ops)
                        draws.append(("fw", preset, {
                            "n": b * ops * p[preset], "b": b, "k": 8, "l1": l1,
                            "l2": ops - l1, "overlap": rng.random() < 0.75,
                            "aggregate_ops": aggregate, "iterations": iterations,
                        }))
    for preset in MM_PRESETS:
        for r in (256, 512):
            for m_f in _bins(rng, 8, r, 8):
                draws.append(("mm", preset, {
                    "n": p[preset] * r, "k": 8, "m_f": m_f, "overlap": rng.random() < 0.75,
                }))
    for preset in BLOCK_MM_PRESETS:
        for b in (240, 480, 960, 3000):
            for b_f in _bins(rng, 6, b, 8):
                draws.append(("block_mm", preset, {"b": b, "b_f": b_f, "k": 8}))
    return draws


def simulate_point(app: str, spec, params: dict, fast_path: str) -> Any:
    """One design point through the app's public ``simulate_*`` entry."""
    if app == "lu":
        res = simulate_lu(spec, LuSimConfig(**params), fast_path=fast_path)
    elif app == "fw":
        res = simulate_fw(spec, FwSimConfig(**params), fast_path=fast_path)
    elif app == "mm":
        res = simulate_mm(spec, MmSimConfig(**params), fast_path=fast_path)
    else:
        return simulate_block_mm(spec, params["b"], params["b_f"], params["k"], fast_path=fast_path)
    return (res.elapsed, res.gflops)


class Sweep(Workload):
    """fig5-fig8 grids plus seeded LU/FW/ring-MM/block-MM draws; serial, no cache."""

    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.draws = sweep_draws(seed)
        self.specs = {name: ALL_PRESETS[name]() for name in ALL_PRESETS}

    def run_pass(self) -> PassResult:
        out = PassResult(ops=0, outputs=[])
        with experiments.configured(jobs=1, cache=False, fast_path="auto"):
            for fig in SWEEP_FIGURES:
                before = _sim_points()
                try:
                    with out.step():
                        res = experiments.ALL_EXPERIMENTS[fig]()
                except Exception as exc:  # counted, reported, never fatal
                    res = None
                    out.errors.append(f"{fig}: {exc!r}")
                points = _sim_points() - before
                out.ops += points
                if res is None or not res.ok:
                    out.failed += max(points, 1)
                    if res is not None:
                        out.errors.append(f"{fig}: reproduction check failed")
                    continue
                out.outputs.append((fig, res.text))
        for app, preset, params in self.draws:
            out.ops += 1
            try:
                with out.step():
                    out.outputs.append(simulate_point(app, self.specs[preset], params, "auto"))
            except Exception as exc:
                out.failed += 1
                out.errors.append(f"{app}@{preset} {params}: {exc!r}")
        return out

    def check(self, passes: list[tuple[str, float, PassResult]]) -> list[str]:
        """A seeded subsample of the draws re-run on the DES must match ``==``."""
        reference = passes[0][2]
        rng = random.Random(self.seed ^ 0x5EED)
        offset = len(reference.outputs) - len(self.draws)
        errors = []
        for i in sorted(rng.sample(range(len(self.draws)), SWEEP_CHECK_SAMPLE)):
            app, preset, params = self.draws[i]
            des = simulate_point(app, self.specs[preset], params, "off")
            if des != reference.outputs[offset + i]:
                errors.append(f"{app}@{preset} {params}: fast path != DES")
        return errors


# --------------------------------------------------------------- campaign


class Campaign(Workload):
    """Seeded LU+FW campaign on XD1 (nominal, degraded-link, flaky-dma); serial, no cache.

    A pass runs the campaign one cell (app x scenario) at a time, so each
    cell is a timed step.  Sub-seeds derive from (seed, cell key,
    replicate), so the replicates are those of the whole campaign.
    """

    name = "campaign"

    def __init__(self, seed: int) -> None:
        self.spec = CampaignSpec(
            apps=("lu", "fw"),
            preset="xd1",
            scenarios=tuple(build_scenario(name) for name in CAMPAIGN_SCENARIOS),
            replicates=CAMPAIGN_REPLICATES,
            seed=seed,
        )
        self.cells = [replace(self.spec, apps=(app,), scenarios=(scenario,))
                      for app in self.spec.apps for scenario in self.spec.scenarios]
        self.replicates = len(campaign_tasks(self.spec))

    def run_pass(self) -> PassResult:
        out = PassResult(ops=self.replicates, outputs=[])
        for cell in self.cells:
            name = f"{cell.apps[0]}/{cell.scenarios[0].name}"
            try:
                with out.step():
                    manifest = run_campaign(cell, jobs=1, cache=False)
            except Exception as exc:
                out.failed += cell.replicates
                out.errors.append(f"run_campaign {name}: {exc!r}")
                continue
            failures = int(manifest["failures"])
            if failures:
                out.failed += failures
                out.errors.append(f"{name}: {failures} replicate(s) failed")
            out.outputs.append(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        return out


# ------------------------------------------------------------ experiments


class Experiments(Workload):
    """The full ``repro experiments`` harness, jobs=2, fresh cache per cycle.

    One cycle is a cold pass (simulates and writes every entry) and
    :data:`EXPERIMENTS_WARM_PASSES` warm passes over the same cache
    (reads only).  Inputs are the paper's fixed tables and figures; the
    seed does not change them.
    """

    name = "experiments"
    cold_kind, warm_kind = "cold", "warm"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.cycles = 0
        self.caches: list[ResultCache] = []

    def run_pass(self) -> PassResult:
        out = PassResult(ops=0)
        before = _sim_points()
        results = []
        for name, fn in experiments.ALL_EXPERIMENTS.items():
            try:
                with out.step():
                    results.append(fn())
            except Exception as exc:
                out.failed += 1
                out.errors.append(f"{name}: {exc!r}")
        out.ops = max(1, _sim_points() - before)
        for res in results:
            if not res.ok:
                out.failed += 1
                out.errors.append(f"{res.id}: reproduction check failed")
        out.outputs = [(r.id, r.ok, r.text, dict(sorted(r.checks.items()))) for r in results]
        return out

    def cycle(self, timer) -> None:
        path = self.workdir / f"cache-{self.cycles}"
        self.cycles += 1
        cache = ResultCache(path)
        self.caches.append(cache)
        try:
            with experiments.configured(jobs=EXPERIMENTS_JOBS, cache=cache, fast_path="auto"):
                timer("cold", self.run_pass)
                for _ in range(EXPERIMENTS_WARM_PASSES):
                    timer("warm", self.run_pass)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def check(self, passes: list[tuple[str, float, PassResult]]) -> list[str]:
        """Each cold pass writes every entry it simulates; warm passes write none."""
        errors = []
        for cache in self.caches:
            if cache.puts != cache.misses:
                errors.append(f"cache {cache.root.name}: {cache.puts} puts for {cache.misses} misses")
        return errors


# --------------------------------------------------------------- validate


class Validate(Workload):
    """``run_validation(seed)``: real numerics through kernels, hw and mpi paths."""

    name = "validate"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self) -> PassResult:
        out = PassResult(ops=1)
        try:
            with out.step():
                rows = run_validation(self.seed)
        except Exception as exc:
            out.failed = 1
            out.errors.append(f"run_validation: {exc!r}")
            return out
        out.ops = len(rows)
        out.failed = sum(not row.ok for row in rows)
        out.errors = [f"{r.app} {r.config}: error {r.error!r}" for r in rows if not r.ok]
        out.outputs = [(r.app, r.config, r.error, r.messages, r.guard_clean) for r in rows]
        return out


# --------------------------------------------------------------- accuracy


def fig9_accuracy() -> dict[str, float]:
    """Error (%) of the simulated Fig. 9 hybrid GFLOPS against the paper."""
    lu = LuDesign(cray_xd1(), n=30000, b=3000).simulate().gflops
    fw = FwDesign(cray_xd1(), n=92160, b=256).simulate().gflops
    return {
        "lu_gflops_err_pct": abs(lu - PAPER_LU_GFLOPS) / PAPER_LU_GFLOPS * 100.0,
        "fw_gflops_err_pct": abs(fw - PAPER_FW_GFLOPS) / PAPER_FW_GFLOPS * 100.0,
    }


def build(name: str, seed: int, workdir: Path):
    """The workload object for ``name`` (inputs generated from ``seed``)."""
    if name == "sweep":
        return Sweep(seed)
    if name == "campaign":
        return Campaign(seed)
    if name == "experiments":
        return Experiments(workdir)
    if name == "validate":
        return Validate(seed)
    raise ValueError(f"unknown workload {name!r}")
