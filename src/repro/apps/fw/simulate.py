"""The distributed FW schedule (Section 5.2.3) and its simulation.

The schedule is written once, as op streams (:func:`fw_schedule`) that
both the DES interpreter (:mod:`repro.apps.des`) and the fast path run.
Iteration ``t`` has ``n/b`` phases:

* **phase 0**: the owner P_t' runs op1 on the diagonal block and
  broadcasts it; then every node runs its ``n/(bp)`` op21 operations on
  its own block columns (the owner substitutes one op22 for an op21);
* **each following phase**: the owner broadcasts the op22 block it
  finished last phase; every node then runs ``n/(bp)`` op3 operations on
  one block row of its columns (the owner again folds in the next op22).

Within a node each phase's operations are split ``l1`` to the processor
and ``l2`` to the FPGA (Equation 6).  The processor's serial path per
phase is: receive the broadcast (T_comm), stage the FPGA operands over
the B_d channel (l2 x T_mem), then run its own l1 operations (l1 x T_p);
the FPGA overlaps everything after its first operands land -- the
paper's overlap story, emerging from simulated resources.

Baselines use the same machinery: ``l1 = L`` (all-CPU) is the
Processor-only design, ``l1 = 0`` the FPGA-only design.

Because every phase is structurally identical, benchmark runs simulate
``iterations`` (default 1) full iterations and extrapolate linearly to
all ``n/b`` -- the extrapolation is validated against full simulations
at small n in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...hw.fw_design import FloydWarshallDesign
from ...machine.system import MachineSpec
from ...sim import Trace
from .. import des
from .layout import ColumnBlockLayout

__all__ = ["FwSimConfig", "FwSimResult", "fw_schedule", "simulate_fw"]


@dataclass(frozen=True)
class FwSimConfig:
    """Everything a distributed-FW simulation run needs."""

    n: int
    b: int
    k: int
    l1: int  # per-phase operations on the processor
    l2: int  # per-phase operations on the FPGA
    overlap: bool = True  # False: FPGA waits for all staging (ablation)
    aggregate_ops: bool = True  # lump each phase's ops into one event each
    iterations: Optional[int] = 1  # iterations to simulate (None = all)
    cpu_kernel: str = "fw"

    def __post_init__(self) -> None:
        if self.n < self.b or self.n % self.b:
            raise ValueError(f"b={self.b} must divide n={self.n}")
        if self.b % self.k:
            raise ValueError(f"b={self.b} must be a multiple of k={self.k}")
        if self.l1 < 0 or self.l2 < 0 or self.l1 + self.l2 < 1:
            raise ValueError(f"invalid split l1={self.l1}, l2={self.l2}")

    @property
    def nb(self) -> int:
        return self.n // self.b

    @property
    def ops_per_phase(self) -> int:
        return self.l1 + self.l2


@dataclass
class FwSimResult:
    """Measured outcome of a (possibly partial) simulated run."""

    elapsed: float  # simulated time for `iterations_run` iterations
    iterations_run: int
    config: FwSimConfig
    trace: Optional[Trace]
    cpu_busy: list[float] = field(default_factory=list)
    fpga_busy: list[float] = field(default_factory=list)
    network_bytes: float = 0.0

    @property
    def total_elapsed(self) -> float:
        """Full-run time, extrapolating uniform iterations if truncated."""
        if self.iterations_run == 0:
            return 0.0
        return self.elapsed * self.config.nb / self.iterations_run

    @property
    def useful_flops(self) -> float:
        return 2.0 * float(self.config.n) ** 3

    @property
    def gflops(self) -> float:
        total = self.total_elapsed
        return self.useful_flops / total / 1e9 if total > 0 else 0.0


def _iterations_run(config: FwSimConfig) -> int:
    nb = config.nb
    return nb if config.iterations is None else min(config.iterations, nb)


def _fw_layout(p: int, config: FwSimConfig) -> ColumnBlockLayout:
    """The column-block layout, checking ``l1 + l2 = n/(bp)``."""
    layout = ColumnBlockLayout(config.nb, p)
    if config.ops_per_phase != layout.cols_per_node:
        raise ValueError(
            f"l1 + l2 = {config.ops_per_phase} must equal the per-node "
            f"per-phase operation count n/(bp) = {layout.cols_per_node}"
        )
    return layout


def fw_schedule(
    spec: MachineSpec,
    config: FwSimConfig,
    design: FloydWarshallDesign,
    trace: bool = False,
) -> list:
    """The distributed blocked-FW schedule as ``(name, op stream)`` processes.

    One ``node{i}`` process per node runs every phase: broadcast or
    receive the pivot block, stage and launch the FPGA's l2 operations,
    run the processor's l1, then wait for the FPGA.  The op vocabulary
    is tabled in docs/simulator.md; ``trace`` builds the ops' trace labels.
    """
    p = spec.p
    layout = _fw_layout(p, config)
    nb, b, l1, l2 = config.nb, config.b, config.l1, config.l2
    kernel = config.cpu_kernel
    bw = 8
    block_bytes = b * b * bw
    stage_bytes = 2 * block_bytes  # two operand blocks per FPGA op (T_mem)
    op_cycles = design.tile_cycles(b)  # 2 b^3 / k
    op_flops = 2.0 * b**3
    n_iters = _iterations_run(config)

    def node_main(i: int):
        label = stage = ""
        for t in range(n_iters):
            owner = layout.iteration_owner(t)
            dsts = [w for w in range(p) if w != owner]
            for phase in range(nb):
                # The owner broadcasts the pivot block (op1 result in
                # phase 0, the previous phase's op22 result afterwards);
                # every other node receives it before its operations.
                tag = ("pivot", t, phase)
                if trace:
                    label = f"ops[{t},{phase}]"
                    stage = f"stage:{label}"
                if i == owner:
                    if phase == 0:
                        # op1 on the diagonal block, on the processor.
                        yield ("cpu", i, kernel, op_flops, f"op1[{t}]" if trace else "")
                    yield ("send_batch", i, dsts, block_bytes, tag)
                else:
                    yield ("recv", i, owner, tag)
                fkey = ("fpga", i, t, phase)
                if l2 == 0:
                    yield ("set", fkey)
                elif config.aggregate_ops:
                    batch = ("fpga", i, l2 * op_cycles, l2 * op_flops, 1, fkey, label)
                    if config.overlap:
                        # Stage the first op's operands, launch the batch,
                        # keep staging the rest while CPU and FPGA work.
                        yield ("chan", i, stage_bytes, stage)
                        yield batch
                        if l2 > 1:
                            yield ("chan", i, stage_bytes * (l2 - 1), stage)
                    else:
                        yield ("chan", i, stage_bytes * l2, stage)
                        yield batch
                else:
                    # Per-operation granularity (small-n validation runs).
                    ops = ("fpga", i, op_cycles, op_flops, l2, fkey, label)
                    if config.overlap:
                        yield ("chan", i, stage_bytes, stage)
                        yield ops
                        for _ in range(l2 - 1):
                            yield ("chan", i, stage_bytes, stage)
                    else:
                        for _ in range(l2):
                            yield ("chan", i, stage_bytes, stage)
                        yield ops
                # The processor's own operations (the owner's op22 is
                # folded in as the first of them).
                if l1 > 0:
                    if config.aggregate_ops:
                        yield ("cpu", i, kernel, l1 * op_flops, label)
                    else:
                        for _ in range(l1):
                            yield ("cpu", i, kernel, op_flops, label)
                yield ("wait", fkey)

    return [(f"node{i}", node_main(i)) for i in range(p)]


def _analytic_fw(spec, config, design):
    # Deferred import: .analytic imports this module's config/result types.
    from .analytic import analytic_fw

    return analytic_fw(spec, config, design)


def simulate_fw(
    spec: MachineSpec,
    config: FwSimConfig,
    design: Optional[FloydWarshallDesign] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
    fast_path: Optional[str] = None,
) -> FwSimResult:
    """Run the distributed blocked-FW schedule on a simulated machine.

    ``monitor`` is an optional :class:`repro.sim.SimMonitor`; attaching
    one records DES internals at the cost of the counting run loop.
    ``faults`` is an optional :class:`repro.faults.FaultInjector`
    (anything with ``install``), hooked in after the FPGAs are
    configured and before the schedule processes spawn.

    ``fast_path`` selects the analytic no-contention fast path
    (``"auto"`` / ``"on"`` / ``"off"``; None = process default); see
    :mod:`repro.sim.analytic`.  Analytic results are bitwise identical.
    """
    from ...sim.analytic import try_fast_path

    fast = try_fast_path(
        "fw",
        lambda: _analytic_fw(spec, config, design),
        mode=fast_path,
        trace=trace,
        node_specs=node_specs,
        monitor=monitor,
        faults=faults,
    )
    if fast is not None:
        return fast
    if design is None:
        design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=config.k)
    procs = fw_schedule(spec, config, design, trace=trace)
    run = des.simulate(spec, design, procs, trace, node_specs, monitor, faults)
    return FwSimResult(iterations_run=_iterations_run(config), config=config, **run)
