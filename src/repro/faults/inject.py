"""DES fault injection: perturb a live :class:`ReconfigurableSystem`.

A :class:`FaultInjector` takes a :class:`~repro.faults.scenarios.
FaultScenario` and installs itself on a system *before* the schedule
processes run.  Every perturbation works through state the resources
already re-read on each grant, so the simulator hot path is untouched:

* ``link_slowdown`` -- replaces the interconnect's frozen ``NetworkSpec``
  with a scaled-bandwidth copy (``Interconnect.transfer_time`` reads
  ``self.spec`` per send);
* ``fpga_throttle`` -- wraps the loaded design in a delegating proxy
  whose ``freq_hz`` is scaled (``FpgaFabric.run_cycles`` reads the
  design clock per call);
* ``dram_contention`` -- scales ``BandwidthChannel.bandwidth`` on the
  node's B_d channel (read per transfer);
* ``dma_stall`` -- holds the B_d channel's grant lock for the stall
  window, so queued transfers wait exactly as a wedged DMA engine would;
* ``node_failure`` -- a fault process raises :class:`NodeFailureError`
  at the failure time; the engine wraps it in a structured
  :class:`~repro.sim.ProcessFailure` carrying process/time/lane context.

Overlapping windows on the same target stack multiplicatively: the
injector keeps the nominal base value per target and recomputes
``base * product(active factors)`` on every apply/revert, so when the
last window closes the target returns to its base *bitwise*.

Determinism: the injector spawns its fault processes before the caller
spawns the schedule processes, so at equal times fault events fire first
under the engine's FIFO tie-breaking; the scenario timeline itself is
seeded (see :meth:`FaultScenario.expand`).  Same scenario + same
machine + same schedule => the bitwise-same makespan, trace and
injection log.

:meth:`FaultInjector.install_replay` is the fast-path twin of
:meth:`~FaultInjector.install`: it hooks the scenario into the analytic
:class:`~repro.sim.analytic.Replay` instead of a live system.  Steady
rate faults (``at == 0``, no duration, every node) scale the engine's
scalar rates with the same arithmetic; DMA stalls become FIFO holds on
the B_d channel queues.  Everything else refuses the fast path with
reason ``faults``, and the DES runs the scenario as above.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from ..machine.system import ReconfigurableSystem
from ..sim.analytic import FastPathUnsupported
from .scenarios import FaultEvent, FaultScenario

__all__ = ["FaultInjector", "NodeFailureError"]

#: Trace lane used for injection marks (zero-length intervals).
FAULT_LANE = "faults"


class NodeFailureError(RuntimeError):
    """A simulated node died; raised inside the fault process."""

    def __init__(self, node: int, at: float) -> None:
        super().__init__(f"node {node} failed at t={at:g}")
        self.node = node
        self.at = at


class _ThrottledDesign:
    """A delegating proxy over a loaded FPGA design with a scaled clock.

    Everything except ``freq_hz`` falls through to the wrapped design;
    the injector sets ``freq_hz`` directly when throttle windows open
    and close (restoring ``base_freq_hz`` exactly when none are active).
    """

    def __init__(self, design: Any) -> None:
        self.__dict__["_design"] = design
        self.__dict__["base_freq_hz"] = design.freq_hz
        self.__dict__["freq_hz"] = design.freq_hz

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_design"], name)


class FaultInjector:
    """Installs a scenario's faults onto one live system.

    ``fail_fast=True`` enacts ``node_failure`` events (the run aborts
    with a :class:`~repro.sim.ProcessFailure`); ``fail_fast=False``
    records them without enacting -- the adaptation layer uses this for
    ``exclude-node`` runs where the failed node was already removed from
    the machine.

    One injector serves one run: :meth:`install` (or its fast-path twin
    :meth:`install_replay`) may be used once.  The ``injected`` list is
    the deterministic event log (``{"t", "kind", "phase", "node",
    "factor", "duration"}`` dicts in application order).
    """

    def __init__(self, scenario: FaultScenario, fail_fast: bool = True) -> None:
        self.scenario = scenario
        self.fail_fast = fail_fast
        self.system: Optional[ReconfigurableSystem] = None  # or the Replay it ran on
        self.injected: list[dict[str, Any]] = []
        self._factors: dict[tuple, list[float]] = {}
        self._base: dict[tuple, float] = {}

    # -- installation ---------------------------------------------------

    def install(self, system: ReconfigurableSystem) -> "FaultInjector":
        """Hook every scenario event into ``system``'s simulator.

        Must run after the FPGAs are configured (the B_d channels exist)
        and before the schedule processes are spawned (fault processes
        win FIFO ties at equal times).
        """
        if self.system is not None:
            raise RuntimeError("FaultInjector already installed; use one per run")
        self.system = system
        sim = system.sim
        p = system.p
        for event in self.scenario.expand():
            _check_node(event, p)
            if event.kind == "node_failure":
                if self.fail_fast:
                    sim.process(
                        self._fail_node(event), name=f"fault:node_failure@{event.node}"
                    )
                else:
                    self._log(event, "suppressed", event.at, node=event.node)
                continue
            if event.kind == "dma_stall":
                for i in _nodes_of(event, p):
                    if system.nodes[i].fpga_dram is None:
                        raise RuntimeError(
                            f"node {i}: FPGA not configured; install the injector "
                            "after configure_fpgas()"
                        )
                    sim.process(self._stall(event, i), name=f"fault:dma_stall@{i}")
                continue
            # Rate faults: immediate steady ones apply synchronously at
            # t=0 (before any service time is computed); timed or
            # windowed ones run as fault processes.
            if event.at <= 0 and event.duration is None:
                self._apply(event)
                self._log(event, "apply", 0.0)
            else:
                sim.process(self._window(event), name=f"fault:{event.kind}")
        return self

    def install_replay(self, replay) -> Callable[[list], None]:
        """Hook the scenario into an analytic ``Replay`` (the fast path).

        The twin of :meth:`install` for
        :class:`~repro.sim.analytic.Replay`, called from its constructor.
        Steady rate faults scale the engine's ``bandwidth`` (B_n), ``b_d``
        (sized from the nominal clock, as ``configure_fpgas`` sizes the
        DES channel) and ``freq`` (F_f) as ``base * f1 * f2 ...`` in
        timeline order, exactly as :meth:`_set` does; each ``dma_stall``
        becomes one :meth:`Replay.hold` per targeted node, in the order
        :meth:`install` spawns the stall processes.

        Raises :class:`~repro.sim.analytic.FastPathUnsupported` (reason
        ``faults``) for what the replay cannot reproduce: node failures
        and windowed, delayed or per-node rate faults.  Nothing is
        recorded until the replay succeeds: the returned ``commit(log)``
        takes the engine's stall log, ``(event, phase, t, node)`` tuples
        in DES order, marks the injector used and fills :attr:`injected`
        with the entries the DES run logs.  A refused or abandoned replay
        leaves the injector ready for the DES.
        """
        if self.system is not None:
            raise RuntimeError("FaultInjector already installed; use one per run")
        timeline = self.scenario.expand()
        for event in timeline:
            _check_node(event, replay.p)
        for event in timeline:
            if not (event.kind == "dma_stall" or _steady_everywhere(event)):
                raise FastPathUnsupported(
                    f"the fast path cannot replay {event!r}", reason="faults"
                )
        factors: dict[str, list[float]] = {}
        applied = []
        for event in timeline:
            if event.kind == "dma_stall":
                for i in _nodes_of(event, replay.p):
                    replay.hold(i, event.at, event.duration, event)
            else:
                factors.setdefault(event.kind, []).append(event.factor)
                applied.append(_entry(event, "apply", 0.0))
        replay.bandwidth = _scaled(replay.bandwidth, factors.get("link_slowdown", ()))
        replay.b_d = _scaled(replay.b_d, factors.get("dram_contention", ()))
        replay.freq = _scaled(replay.freq, factors.get("fpga_throttle", ()))

        def commit(log: list) -> None:
            self.system = replay
            self.injected.extend(applied)
            self.injected.extend(_entry(e, phase, t, node) for e, phase, t, node in log)

        return commit

    # -- fault processes ------------------------------------------------

    def _window(self, event: FaultEvent):
        sim = self.system.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        self._apply(event)
        self._log(event, "apply", sim.now)
        if event.duration is None:
            return
        yield sim.timeout(event.duration)
        self._revert(event)
        self._log(event, "revert", sim.now)

    def _stall(self, event: FaultEvent, node_id: int):
        sim = self.system.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        channel = self.system.nodes[node_id].fpga_dram
        yield channel._lock.request()
        self._log(event, "apply", sim.now, node=node_id)
        try:
            yield sim.timeout(event.duration)
        finally:
            channel._lock.release()
        self._log(event, "revert", sim.now, node=node_id)

    def _fail_node(self, event: FaultEvent):
        sim = self.system.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        self._log(event, "fail", sim.now, node=event.node)
        raise NodeFailureError(event.node, sim.now)

    # -- perturbation mechanics -----------------------------------------

    def _targets(self, event: FaultEvent) -> list[tuple]:
        if event.kind == "link_slowdown":
            return [("net",)]
        return [(event.kind, i) for i in _nodes_of(event, self.system.p)]

    def _apply(self, event: FaultEvent) -> None:
        for key in self._targets(event):
            self._factors.setdefault(key, []).append(event.factor)
            self._set(key)

    def _revert(self, event: FaultEvent) -> None:
        for key in self._targets(event):
            self._factors[key].remove(event.factor)
            self._set(key)

    def _set(self, key: tuple) -> None:
        """Recompute and write one target's value from its active factors."""
        system = self.system
        factors = self._factors.get(key) or []
        if key == ("net",):
            if key not in self._base:
                self._base[key] = system.network.spec.bandwidth
            value = _scaled(self._base[key], factors)
            system.network.spec = dataclasses.replace(system.network.spec, bandwidth=value)
            return
        kind, i = key
        node = system.nodes[i]
        if kind == "fpga_throttle":
            fabric = node.fpga
            if not isinstance(fabric.design, _ThrottledDesign):
                fabric.design = _ThrottledDesign(fabric.design)
            if key not in self._base:
                self._base[key] = fabric.design.base_freq_hz
            fabric.design.freq_hz = _scaled(self._base[key], factors)
        elif kind == "dram_contention":
            if node.fpga_dram is None:
                raise RuntimeError(
                    f"node {i}: FPGA not configured; install the injector "
                    "after configure_fpgas()"
                )
            if key not in self._base:
                self._base[key] = node.fpga_dram.bandwidth
            node.fpga_dram.bandwidth = _scaled(self._base[key], factors)
        else:  # pragma: no cover - _targets only emits the keys above
            raise ValueError(f"unknown perturbation target {key!r}")

    # -- bookkeeping ----------------------------------------------------

    def _log(
        self, event: FaultEvent, phase: str, t: float, node: Optional[int] = None
    ) -> None:
        self.injected.append(_entry(event, phase, t, node))
        trace = self.system.sim.trace
        if trace is not None:
            trace.record(
                FAULT_LANE,
                f"{event.kind}:{phase}",
                t,
                t,
                factor=event.factor,
                node=event.node if node is None else node,
            )


def _check_node(event: FaultEvent, p: int) -> None:
    if event.node is not None and not 0 <= event.node < p:
        raise ValueError(f"fault event targets node {event.node}, but the machine has p={p}")


def _nodes_of(event: FaultEvent, p: int) -> range | tuple[int, ...]:
    return range(p) if event.node is None else (event.node,)


def _steady_everywhere(event: FaultEvent) -> bool:
    """A rate fault applied at t=0 to every node for the whole run."""
    return event.steady and event.at == 0 and event.node is None


def _scaled(base: float, factors) -> float:
    """``base * f1 * f2 ...`` in application order (one rounding per step)."""
    value = base
    for factor in factors:
        value *= factor
    return value


def _entry(
    event: FaultEvent, phase: str, t: float, node: Optional[int] = None
) -> dict[str, Any]:
    """One ``injected`` log entry."""
    return {
        "t": t,
        "kind": event.kind,
        "phase": phase,
        "node": event.node if node is None else node,
        "factor": event.factor,
        "duration": event.duration,
    }
