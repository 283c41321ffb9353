"""The distributed LU schedule (Section 5.1.3) and its simulation.

The paper's schedule is written once, as op streams (:func:`lu_schedule`,
:func:`block_mm_schedule`) that both the DES interpreter
(:mod:`repro.apps.des`) and the fast path's ``Replay`` run.  It follows
the paper faithfully at the opMM/superstripe level:

* In iteration ``t`` the owner ``P_{t mod p}`` runs opLU, then the m
  opL/opU pairs, on its processor (atomic routines -- its sends happen
  *between* routines, which is exactly the effect the paper blames for
  the measured-vs-predicted gap);
* after each routine pair the owner ships the input stripes for up to
  ``l`` ready opMMs to the other ``p-1`` nodes (Equation 5's throttle),
  and ships any remainder after the panel completes;
* every worker pipelines each opMM: per superstripe it receives the
  stripe data (T_comm), stages the FPGA's share over the B_d channel
  (T_mem), kicks the FPGA (T_f share) and runs its own gemm share (T_p),
  so the Equation-4 balance emerges from resource contention rather than
  being scripted;
* each opMM's partial results go to the block's storage node, whose sink
  process applies opMS; the next iteration's owner blocks on the opMS
  completions its panel needs (the recursion on A_11).

The same machinery runs the baselines: ``b_f = 0`` is the
Processor-only design, ``b_f = b`` the FPGA-only design.

Granularity: stripes are aggregated into ``superstripes`` chunks per
opMM (default 4) to bound the event count at scale; a single cooperative
block multiply can be simulated at true stripe granularity with
:func:`simulate_block_mm` (used for Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...hw.mm_design import MatrixMultiplyDesign
from ...kernels.flops import getrf_flops, trsm_flops
from ...machine.system import MachineSpec
from ...sim import Trace
from .. import des

__all__ = [
    "LuSimConfig",
    "LuSimResult",
    "block_mm_schedule",
    "lu_schedule",
    "simulate_block_mm",
    "simulate_lu",
]


@dataclass(frozen=True)
class LuSimConfig:
    """Everything a distributed-LU simulation run needs."""

    n: int
    b: int
    k: int
    b_f: int  # rows of each block product computed on the FPGA
    l: int  # opMMs shipped per owner routine (Eq. 5); 0 = ship at end
    superstripes: int = 4  # event-granularity chunks per opMM
    overlap: bool = True  # False: stage everything before computing (ablation)
    collect_results: bool = True  # model A'_uv collection + opMS
    cpu_mm_kernel: str = "dgemm"
    iterations: Optional[int] = None  # simulate only the first N iterations
                                      # (Figure 6 uses iterations=1)

    def __post_init__(self) -> None:
        if self.n < self.b or self.n % self.b:
            raise ValueError(f"b={self.b} must divide n={self.n}")
        if not 0 <= self.b_f <= self.b:
            raise ValueError(f"b_f={self.b_f} outside [0, {self.b}]")
        if self.b % self.k:
            raise ValueError(f"b={self.b} must be a multiple of k={self.k}")
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if self.superstripes < 1 or self.superstripes > self.b // self.k:
            raise ValueError(
                f"superstripes must be in [1, b/k] = [1, {self.b // self.k}]"
            )

    @property
    def nb(self) -> int:
        return self.n // self.b

    @property
    def b_p(self) -> int:
        return self.b - self.b_f


@dataclass
class LuSimResult:
    """Measured outcome of one simulated run."""

    elapsed: float
    useful_flops: float
    config: LuSimConfig
    trace: Optional[Trace]
    cpu_busy: list[float] = field(default_factory=list)
    fpga_busy: list[float] = field(default_factory=list)
    network_bytes: float = 0.0

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.elapsed / 1e9 if self.elapsed > 0 else 0.0

    @property
    def cpu_utilisation(self) -> float:
        return sum(self.cpu_busy) / (len(self.cpu_busy) * self.elapsed) if self.elapsed else 0.0

    @property
    def fpga_utilisation(self) -> float:
        return sum(self.fpga_busy) / (len(self.fpga_busy) * self.elapsed) if self.elapsed else 0.0


def released_after_opl(t: int, j: int) -> list[tuple[int, int]]:
    """opMM jobs enabled by opL[t, t+j]: products (t+j, v) with v < t+j.

    (They additionally need opU[t, v], already done for v < t+j.)
    """
    w = t + j
    return [(w, v) for v in range(t + 1, w)]


def released_after_opu(t: int, j: int) -> list[tuple[int, int]]:
    """opMM jobs enabled by opU[t, t+j]: products (u, t+j) with u <= t+j."""
    w = t + j
    return [(u, w) for u in range(t + 1, w + 1)]


def iteration_jobs(t: int, nb: int) -> list[tuple[int, int]]:
    """All opMM jobs of iteration t in release (send/recv) order."""
    out: list[tuple[int, int]] = []
    for j in range(1, nb - t):
        out.extend(released_after_opl(t, j))
        out.extend(released_after_opu(t, j))
    return out


def lu_schedule(spec: MachineSpec, config: LuSimConfig, trace: bool = False) -> list:
    """The distributed LU schedule as ``(name, op stream)`` processes.

    One ``node{i}`` process per node (owner or worker role per
    iteration) plus, when results are collected, one ``ms_sink{i}``
    opMS sink per node.  The op vocabulary is tabled in
    docs/simulator.md; ``trace`` builds the ops' trace labels.
    """
    p = spec.p
    if p < 2:
        raise ValueError("the distributed LU design needs p >= 2 nodes")
    nb, b, b_f, b_p, S = config.nb, config.b, config.b_f, config.b_p, config.superstripes
    bw = 8
    kernel = config.cpu_mm_kernel

    # Per-worker, per-opMM data sizes (physical: C broadcast, D scattered).
    c_bytes = b * b * bw
    d_bytes = b * b * bw // (p - 1)
    job_bytes = c_bytes + d_bytes
    stage_bytes = (b_f * b + b * b // (p - 1)) * bw  # FPGA share staged over B_d
    # (b/k stripes) x (b_f * b/(p-1) cycles per stripe) per opMM.
    fpga_cycles_per_job = b_f * b * b / ((p - 1) * config.k)
    cpu_flops_per_job = 2.0 * b_p * b * (b / (p - 1))
    fpga_flops_per_job = 2.0 * b_f * b * (b / (p - 1))
    result_bytes = b * b * bw // (p - 1)  # each worker's E columns
    # Per-superstripe shares and the panel routines' flops.
    chunk_bytes, stage_chunk, gemm_chunk = job_bytes / S, stage_bytes / S, cpu_flops_per_job / S
    trsm = trsm_flops(b, b)
    n_iters = nb if config.iterations is None else min(config.iterations, nb)

    def workers_of(t: int) -> list[int]:
        owner = t % p
        return [i for i in range(p) if i != owner]

    # ------------------------------------------------------------- owner

    def owner_iteration(t: int):
        m = nb - t - 1
        owner = t % p
        # The panel reads strip t as updated by iteration t-1's opMS.
        if t > 0 and config.collect_results:
            waits = [("ms", t - 1, u, t) for u in range(t, nb)]
            waits += [("ms", t - 1, t, v) for v in range(t + 1, nb)]
            yield ("wait_all", waits)
        yield ("cpu", owner, "dgetrf", getrf_flops(b), f"opLU[{t}]" if trace else "")
        pending: list[tuple[int, int]] = []

        def ship(limit: int):
            """Ship up to ``limit`` opMMs' stripes to all workers, superstripe-wise."""
            for _ in range(min(limit, len(pending))):
                u, v = pending.pop(0)
                dsts = workers_of(t)
                for s in range(S):
                    yield ("send_batch", owner, dsts, chunk_bytes, ("mm", t, u, v, s))

        for j in range(1, m + 1):
            yield ("cpu", owner, "dtrsm", trsm, f"opL[{t},{t + j}]" if trace else "")
            pending.extend(released_after_opl(t, j))
            yield from ship(config.l)
            yield ("cpu", owner, "dtrsm", trsm, f"opU[{t},{t + j}]" if trace else "")
            pending.extend(released_after_opu(t, j))
            yield from ship(config.l)
        yield from ship(len(pending))

    # ------------------------------------------------------------- worker

    def worker_iteration(i: int, t: int):
        owner = t % p
        stage = gemm = mm = ""
        for u, v in iteration_jobs(t, nb):
            fkey = ("fpga", i, t, u, v)
            if trace:
                stage, gemm, mm = f"stage[{t},{u},{v}]", f"gemm[{t},{u},{v}]", f"mm[{t},{u},{v}]"
            fpga = ("fpga", i, fpga_cycles_per_job, fpga_flops_per_job, 1, fkey, mm)
            if config.overlap:
                started = False
                for s in range(S):
                    yield ("recv", i, owner, ("mm", t, u, v, s))
                    if b_f > 0:
                        yield ("chan", i, stage_chunk, stage)
                        if not started:
                            yield fpga
                            started = True
                    if b_p > 0:
                        yield ("cpu", i, kernel, gemm_chunk, gemm)
                if not started:
                    yield ("set", fkey)
            else:
                # Ablation: no overlap -- receive and stage everything,
                # then compute.
                for s in range(S):
                    yield ("recv", i, owner, ("mm", t, u, v, s))
                if b_f > 0:
                    yield ("chan", i, stage_bytes, stage)
                    yield fpga
                else:
                    yield ("set", fkey)
                if b_p > 0:
                    yield ("cpu", i, kernel, cpu_flops_per_job, gemm)
            yield ("wait", fkey)
            if config.collect_results:
                dest = min(u, v) % p
                if dest != i:
                    yield ("send", i, dest, result_bytes, ("ms", t, u, v, i))
                else:
                    # The locally kept part is ready; the sink only waits on
                    # it.  The worker's own wait resumes one hop later, after
                    # the same-time work queued before it.
                    local = ("local_ms", i, t, u, v)
                    yield ("set", local)
                    yield ("wait", local)

    # ---------------------------------------------------- opMS sink per node

    def ms_sink(i: int):
        """Receives A'_uv parts and applies the opMS subtractions."""
        for t in range(n_iters):
            workers = workers_of(t)
            srcs = [None if w == i else w for w in workers]
            for u, v in iteration_jobs(t, nb):
                if min(u, v) % p != i:
                    continue
                parts = [("local_ms", i, t, u, v) if w == i else ("ms", t, u, v, w)
                         for w in workers]
                yield ("wait_all", parts, i, srcs)
                # The subtraction itself: b^2 flops, tiny but real.
                yield ("cpu", i, kernel, float(b * b), f"opMS[{t},{u},{v}]" if trace else "")
                yield ("set", ("ms", t, u, v))

    # ------------------------------------------------------------ node mains

    def node_main(i: int):
        for t in range(n_iters):
            if i == t % p:
                yield from owner_iteration(t)
            else:
                yield from worker_iteration(i, t)

    procs = []
    for i in range(p):
        procs.append((f"node{i}", node_main(i)))
        if config.collect_results:
            procs.append((f"ms_sink{i}", ms_sink(i)))
    return procs


def block_mm_schedule(
    spec: MachineSpec,
    b: int,
    b_f: int,
    k: int,
    stripes: Optional[int] = None,
    trace: bool = False,
) -> list:
    """One cooperative b x b block multiplication as op streams.

    Node 0 (``sender``) streams the stripe pairs; ``worker{i}`` for
    nodes 1..p-1 pipelines receive / stage / compute, splitting rows
    b_f : b - b_f between FPGA and CPU.  ``trace`` builds the ops'
    trace labels.
    """
    if not 0 <= b_f <= b:
        raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    p = spec.p
    S = stripes if stripes is not None else b // k
    bw = 8
    b_p = b - b_f
    stripe_bytes = 2 * b * k * bw  # one C column stripe + one D row stripe
    stage_bytes = (b_f * k + b * k / (p - 1)) * bw
    fpga_cycles = b_f * (b / (p - 1))  # per stripe
    cpu_flops = 2.0 * b_p * k * (b / (p - 1))  # per stripe

    def sender():
        dsts = list(range(1, p))
        for s in range(S):
            yield ("send_batch", 0, dsts, stripe_bytes, ("stripe", s))

    def worker(i: int):
        started = False
        for s in range(S):
            yield ("recv", i, 0, ("stripe", s))
            if b_f > 0:
                yield ("chan", i, stage_bytes, f"stage{s}" if trace else "")
                if not started:
                    yield ("fpga", i, fpga_cycles * S, 0.0, 1, ("fpga", i), "mm")
                    started = True
            if b_p > 0:
                yield ("cpu", i, "dgemm", cpu_flops, f"gemm{s}" if trace else "")
        if started:
            yield ("wait", ("fpga", i))

    return [("sender", sender())] + [(f"worker{i}", worker(i)) for i in range(1, p)]


def _lu_result(config: LuSimConfig, run: dict) -> LuSimResult:
    """An :class:`LuSimResult` from either engine's result fields."""
    return LuSimResult(useful_flops=(2.0 / 3.0) * float(config.n) ** 3, config=config, **run)


def _analytic_lu(spec, config, design, faults):
    # Deferred import: .analytic imports this module's schedules.
    from .analytic import analytic_lu

    return analytic_lu(spec, config, design, faults)


def _analytic_block_mm(spec, b, b_f, k, design, stripes):
    from .analytic import analytic_block_mm

    return analytic_block_mm(spec, b, b_f, k, design, stripes)


def simulate_lu(
    spec: MachineSpec,
    config: LuSimConfig,
    design: Optional[MatrixMultiplyDesign] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
    fast_path: Optional[str] = None,
) -> LuSimResult:
    """Run the distributed LU schedule on a simulated machine.

    ``monitor`` is an optional :class:`repro.sim.SimMonitor`; attaching
    one records DES internals (event counts, calendar-bucket depths) at
    the cost of the slower counting run loop.  ``faults`` is an optional
    :class:`repro.faults.FaultInjector` (anything with ``install``),
    hooked in after the FPGAs are configured and before the schedule
    processes spawn; with ``faults=None`` the run is untouched.

    ``fast_path`` selects the analytic no-contention fast path:
    ``"auto"`` (bitwise-identical analytic replay when eligible, DES
    otherwise), ``"on"`` (raise if ineligible), ``"off"`` (always DES),
    or None for the process default (``REPRO_FAST_PATH``, else auto).
    The replay takes ``faults`` too (t=0 steady rates, DMA stalls) and
    refuses the rest with reason ``faults``.
    """
    from ...sim.analytic import try_fast_path

    fast = try_fast_path(
        "lu",
        lambda: _analytic_lu(spec, config, design, faults),
        mode=fast_path,
        trace=trace,
        node_specs=node_specs,
        monitor=monitor,
    )
    if fast is not None:
        return fast
    procs = lu_schedule(spec, config, trace=trace)
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)
    run = des.simulate(spec, design, procs, trace, node_specs, monitor, faults)
    return _lu_result(config, run)


def simulate_block_mm(
    spec: MachineSpec,
    b: int,
    b_f: int,
    k: int,
    design: Optional[MatrixMultiplyDesign] = None,
    stripes: Optional[int] = None,
    trace: bool = False,
    fast_path: Optional[str] = None,
) -> float:
    """Latency of ONE cooperative b x b block multiplication (Figure 5).

    Runs :func:`block_mm_schedule`; ``stripes`` defaults to the true
    count ``b / k``.  ``fast_path`` selects the analytic closed form
    (see :func:`simulate_lu`).
    """
    from ...sim.analytic import try_fast_path

    fast = try_fast_path(
        "block_mm",
        lambda: _analytic_block_mm(spec, b, b_f, k, design, stripes),
        mode=fast_path,
        trace=trace,
    )
    if fast is not None:
        return fast
    procs = block_mm_schedule(spec, b, b_f, k, stripes, trace=trace)
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
    return des.simulate(spec, design, procs, trace)["elapsed"]
