"""Closed-form fold of the ring-allgather MM schedule (the fast path).

The ring schedule of :func:`repro.apps.mm.simulate.mm_schedule` is
fully symmetric: every node runs the identical recv / stage / compute /
forward pipeline, each network link pair (a node's egress, its right
neighbour's ingress) carries exactly one panel per step, and every
other resource is private to its node's process.  There is no
cross-process contention at all, so the whole run reduces to one
node's timeline folded over ring steps -- with the panel arrival of
step ``s`` equal to the (identical) neighbour's send completion of
step ``s - 1``.

:func:`analytic_mm` evaluates that fold with the exact float arithmetic
of the DES (same operations, same order, ``end - start`` busy
accounting), so every field of the returned :class:`MmSimResult` is
bitwise identical to the simulation and to ``Replay`` over the op
streams, which the tests hold it to.
"""

from __future__ import annotations

from typing import Optional

from ...hw.mm_design import MatrixMultiplyDesign
from ...machine.system import MachineSpec
from ...sim.analytic import FastPathUnsupported
from .simulate import MmSimConfig, MmSimResult

__all__ = ["analytic_mm"]


def analytic_mm(
    spec: MachineSpec,
    config: MmSimConfig,
    design: Optional[MatrixMultiplyDesign] = None,
) -> MmSimResult:
    """Replay the ring-MM schedule without a DES (bitwise exact)."""
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)
    p = spec.p
    r = config.validate_for(p)
    n, k, m_f = config.n, config.k, config.m_f
    m_p = r - m_f
    bw = 8
    panel_bytes = float(r) * n * bw
    stage_bytes = (m_f * r) * bw + panel_bytes if m_f else 0.0
    fpga_cycles = m_f * n * r / k
    cpu_flops = 2.0 * m_p * r * n

    net = spec.network
    panel_size = int(panel_bytes)  # comm.send coerces nbytes to int
    svc = net.latency + panel_size / net.bandwidth
    freq = design.freq_hz
    b_d = spec.node.fpga.effective_dram_bandwidth(freq)
    rate = spec.node.processor.sustained_flops(config.cpu_kernel)
    if svc <= 0.0 or rate <= 0.0:
        raise FastPathUnsupported(
            "degenerate timing parameters (zero-cost ops would tie)",
            reason="unsupported-config",
        )

    t = 0.0
    cpu_busy = 0.0
    fpga_busy = 0.0
    arrival = 0.0  # completion time of the panel tagged ("ring", s)
    for s in range(p):
        if s > 0 and arrival > t:
            t = arrival
        if m_f > 0:
            if config.overlap:
                fill = stage_bytes / max(r // k, 1)
                t = t + (0.0 + fill / b_d)
                f0 = t
                fpga_done = t + fpga_cycles / freq
                t = t + (0.0 + (stage_bytes - fill) / b_d)
            else:
                t = t + (0.0 + stage_bytes / b_d)
                f0 = t
                fpga_done = t + fpga_cycles / freq
            fpga_busy += fpga_done - f0
        else:
            fpga_done = t
        if m_p > 0:
            tc = t + cpu_flops / rate
            cpu_busy += tc - t
            t = tc
        if s < p - 1:
            t = t + svc
            arrival = t
        if fpga_done > t:
            t = fpga_done
    return MmSimResult(
        elapsed=t,
        config=config,
        trace=None,
        cpu_busy=[cpu_busy] * p,
        fpga_busy=[fpga_busy] * p,
        network_bytes=float(panel_size) * p * (p - 1) if p > 1 else 0.0,
    )
