"""Analytic (DES-free) LU and block-MM evaluation -- bitwise exact.

:func:`analytic_lu` runs :func:`repro.apps.lu.simulate.lu_schedule`'s
op streams -- the very streams the DES interprets -- on the
:class:`repro.sim.analytic.Replay` engine, so every field of the
returned :class:`LuSimResult` matches the DES bitwise.  The engine
refuses (:class:`FastPathUnsupported`) any configuration whose outcome
would depend on DES intra-timestamp micro-ordering.  Tie classes (why
the replay is safe where it does not refuse): the owner's
per-superstripe broadcast is one ``send_batch`` burst, and workers'
result sends toward the same opMS owner carry their broadcast *wave*
(``position // links_per_node``) as tie class, as same-job same-wave
workers are structurally identical twins.

:func:`analytic_block_mm` is a closed-form fold of
:func:`~repro.apps.lu.simulate.block_mm_schedule` for the Figure 5
kernel: the stripe broadcast is a chain of link-limited send waves and
each worker's receive/stage/compute pipeline is a pure fold over stripe
arrivals, with no cross-worker contention for any parameter choice.
:func:`analytic_block_mm_batch` vectorises that fold over a whole
``b_f`` grid in one NumPy pass with elementwise IEEE-754 double
arithmetic, so each lane equals the scalar fold, ``Replay`` over the
op streams, and the DES bitwise.
"""

from __future__ import annotations

from typing import Optional

from ...hw.mm_design import MatrixMultiplyDesign
from ...machine.system import MachineSpec
from ...sim.analytic import Replay
from .simulate import LuSimConfig, LuSimResult, _lu_result, lu_schedule

__all__ = ["analytic_block_mm", "analytic_block_mm_batch", "analytic_lu"]


def analytic_lu(
    spec: MachineSpec,
    config: LuSimConfig,
    design: Optional[MatrixMultiplyDesign] = None,
) -> LuSimResult:
    """Replay the distributed LU schedule without a DES (bitwise exact).

    Raises :class:`repro.sim.analytic.FastPathUnsupported` when the
    schedule hits an ambiguous same-time resource tie (then only the
    DES's micro-ordering can decide the outcome).
    """
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)
    return _lu_result(config, Replay(spec, design).play(lu_schedule(spec, config)))


def _block_mm_params(spec: MachineSpec, b: int, k: int, design, stripes):
    """Shared scalar precomputation for the block-MM closed forms."""
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
    p = spec.p
    S = stripes if stripes is not None else b // k
    net = spec.network
    stripe_bytes = 2 * b * k * 8
    svc = net.latency + stripe_bytes / net.bandwidth
    b_d = spec.node.fpga.effective_dram_bandwidth(design.freq_hz)
    rate = spec.node.processor.sustained_flops("dgemm")
    m = p - 1
    L = net.links_per_node
    # arrivals[s][i]: when worker at wave position i holds stripe s.  The
    # sender launches every stripe as one all_of burst and the next burst
    # starts at the previous one's last wave completion.
    nwaves = -(-m // L)
    arrivals = [[0.0] * m for _ in range(S)]
    e0 = 0.0
    for s in range(S):
        wave_start = e0
        for j in range(nwaves):
            c = wave_start + svc
            for i in range(j * L, min((j + 1) * L, m)):
                arrivals[s][i] = c
            wave_start = c
        e0 = wave_start
    return design, p, S, b_d, rate, m, arrivals, e0


def analytic_block_mm(
    spec: MachineSpec,
    b: int,
    b_f: int,
    k: int,
    design: Optional[MatrixMultiplyDesign] = None,
    stripes: Optional[int] = None,
) -> float:
    """Latency of one cooperative block MM, bitwise equal to the DES.

    The Figure 5 schedule is conflict-free for every parameter choice:
    the sender's stripe waves serialise on its egress links, each
    worker's pipeline folds over its own resources only, and the two
    never collide at equal timestamps (service times are positive).
    """
    if not 0 <= b_f <= b:
        raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    design, p, S, b_d, rate, m, arrivals, makespan = _block_mm_params(
        spec, b, k, design, stripes
    )
    b_p = b - b_f
    stage_bytes = (b_f * k + b * k / (p - 1)) * 8
    stage_svc = 0.0 + stage_bytes / b_d
    cpu_t = (2.0 * b_p * k * (b / (p - 1))) / rate
    fpga_dur = (b_f * (b / (p - 1))) * S / design.freq_hz
    for i in range(m):
        t = 0.0
        fpga_done = None
        for s in range(S):
            a = arrivals[s][i]
            if a > t:
                t = a
            if b_f > 0:
                t = t + stage_svc
                if fpga_done is None:
                    fpga_done = t + fpga_dur
            if b_p > 0:
                t = t + cpu_t
        if fpga_done is not None and fpga_done > t:
            t = fpga_done
        if t > makespan:
            makespan = t
    return makespan


def analytic_block_mm_batch(
    spec: MachineSpec,
    b: int,
    b_fs: list[int],
    k: int,
    design: Optional[MatrixMultiplyDesign] = None,
    stripes: Optional[int] = None,
) -> list[float]:
    """Block-MM latencies for a whole ``b_f`` grid in one NumPy pass.

    Every elementwise operation mirrors :func:`analytic_block_mm` in
    value and order (IEEE-754 doubles either way), so each returned
    latency is bitwise identical to the scalar closed form and to the
    DES.  The stripe-arrival chain is shared across the grid -- it does
    not depend on ``b_f`` -- so the whole sweep costs one vectorised
    fold over stripes.
    """
    import numpy as np

    for b_f in b_fs:
        if not 0 <= b_f <= b:
            raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    design, p, S, b_d, rate, m, arrivals, e0 = _block_mm_params(spec, b, k, design, stripes)
    bf = np.asarray(b_fs, dtype=np.int64)
    bp = b - bf
    has_f = bf > 0
    has_p = bp > 0
    stage_svc = 0.0 + (bf * k + b * k / (p - 1)) * 8 / b_d
    cpu_t = (2.0 * bp * k * (b / (p - 1))) / rate
    fpga_dur = (bf * (b / (p - 1))) * S / design.freq_hz
    makespan = np.full(len(b_fs), e0)
    for i in range(m):
        t = np.zeros(len(b_fs))
        fpga_done = np.full(len(b_fs), -np.inf)
        fpga_started = np.zeros(len(b_fs), dtype=bool)
        for s in range(S):
            t = np.maximum(t, arrivals[s][i])
            staged = np.where(has_f, t + stage_svc, t)
            first = has_f & ~fpga_started
            fpga_done = np.where(first, staged + fpga_dur, fpga_done)
            fpga_started |= has_f
            t = staged
            t = np.where(has_p, t + cpu_t, t)
        t = np.maximum(t, fpga_done)
        makespan = np.maximum(makespan, t)
    return [float(x) for x in makespan]
