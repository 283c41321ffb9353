"""Analytic no-contention fast path: exact schedule replay without a DES.

Most points in the paper's sweep grids are *uncontended*: every resource
grant in the discrete-event simulation is either immediate or ordered by
strict FIFO arrival, so the makespan is a deterministic function of the
partition/machine parameters and can be computed by replaying the
schedule's arithmetic directly -- same floating-point operations, same
order -- without event objects, generator-driven processes or a calendar
queue.  The result is **bitwise identical** to the DES on every point
the fast path accepts, at a fraction of the cost.

Two layers live here:

* :class:`Replay` -- runs the apps' op streams, the same streams the
  DES interpreter :func:`repro.apps.des.simulate` executes (the op
  vocabulary is tabled in docs/simulator.md).  It keeps per-resource
  FIFO queues and a single time-ordered heap, but no event/process
  objects.  A built-in *ambiguity detector* refuses (raises
  :class:`FastPathUnsupported`) whenever two same-timestamp acquisitions
  from different spawn bursts hit the same FIFO queue and at least one
  of them has to wait -- the only situation in which the DES outcome
  depends on its intra-timestamp micro-ordering.  Everything else is
  provably order-independent:

  - grants that all succeed immediately commute;
  - float ``max`` is a selection, not an arithmetic blend;
  - acquisitions at *distinct* timestamps are ordered by time alone;
  - same-timestamp acquisitions from the *same* burst (one process
    spawning a batch of transfers, or structurally identical "wave
    twins" tagged with the same tie class) arrive in a fixed documented
    order in both engines, so FIFO service order matches by induction.

* Mode resolution -- ``fast_path`` arguments on the ``simulate_*``
  entry points accept ``"auto"`` (use the fast path when eligible, fall
  back to the DES otherwise), ``"on"`` (raise if ineligible) and
  ``"off"`` (always DES).  ``None`` defers to the process default:
  :func:`set_fast_path_mode`, then the ``REPRO_FAST_PATH`` environment
  variable, then ``"auto"``.

Usage counters land in the process metrics registry so sweeps can report
coverage (see docs/performance.md):

- ``fastpath.points{app,path}`` -- points served per app by
  ``analytic`` vs ``des``;
- ``fastpath.fallback{app,reason}`` -- why points fell back
  (``trace`` / ``monitor`` / ``faults`` / ``node-specs`` /
  ``ambiguous-tie`` / ``unsupported-config`` / ``disabled``).
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Optional

from ..obs.metrics import REGISTRY

__all__ = [
    "FAST_PATH_ENV_VAR",
    "FAST_PATH_MODES",
    "FastPathUnsupported",
    "Replay",
    "fast_path_refusal",
    "fastpath_summary",
    "note_fallback",
    "note_point",
    "resolve_fast_path",
    "set_fast_path_mode",
    "try_fast_path",
]

#: Environment variable holding the process-default fast-path mode.
FAST_PATH_ENV_VAR = "REPRO_FAST_PATH"

#: Valid fast-path modes.
FAST_PATH_MODES = ("auto", "on", "off")

_MODE_OVERRIDE: Optional[str] = None


class FastPathUnsupported(Exception):
    """The analytic fast path cannot reproduce this run bitwise.

    ``reason`` is a short category for counters/manifests
    (``ambiguous-tie``, ``monitor``, ``faults``, ...); ``str(exc)``
    carries the full diagnostic.
    """

    def __init__(self, detail: str, reason: str = "ambiguous-tie") -> None:
        super().__init__(detail)
        self.reason = reason


def set_fast_path_mode(mode: Optional[str]) -> Optional[str]:
    """Set the process-default mode (None restores env/``"auto"``).

    Returns the previous override so callers can restore it.
    """
    global _MODE_OVERRIDE
    if mode is not None and mode not in FAST_PATH_MODES:
        raise ValueError(f"fast_path must be one of {FAST_PATH_MODES}, got {mode!r}")
    prev = _MODE_OVERRIDE
    _MODE_OVERRIDE = mode
    return prev


def resolve_fast_path(mode: Optional[str] = None) -> str:
    """The effective mode for a ``fast_path`` argument (see module doc)."""
    raw = mode if mode is not None else _MODE_OVERRIDE
    if raw is None:
        raw = os.environ.get(FAST_PATH_ENV_VAR, "").strip().lower() or "auto"
    if raw not in FAST_PATH_MODES:
        raise ValueError(f"fast_path must be one of {FAST_PATH_MODES}, got {raw!r}")
    return raw


def fast_path_refusal(
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
) -> Optional[str]:
    """Why these ``simulate_*`` kwargs force the DES; None when eligible.

    Traces, monitors and fault injectors observe or perturb DES
    internals the analytic replay does not have; heterogeneous
    ``node_specs`` change per-node rates the replays assume uniform.
    (LU and FW hand ``faults`` to their :class:`Replay` solver instead,
    which accepts t=0 steady rates and DMA stalls.)
    """
    if trace:
        return "trace"
    if node_specs is not None:
        return "node-specs"
    if monitor is not None:
        return "monitor"
    if faults is not None:
        return "faults"
    return None


def note_point(app: str, path: str) -> None:
    """Count one simulated point served by ``path`` (analytic|des)."""
    REGISTRY.counter("fastpath.points", app=app, path=path).inc()


def note_fallback(app: str, reason: str) -> None:
    """Count one fast-path fallback with its category."""
    REGISTRY.counter("fastpath.fallback", app=app, reason=reason).inc()


def fastpath_summary(registry=None) -> Optional[dict]:
    """Aggregate the fast-path counters for manifests and benchmarks.

    Returns ``{"analytic": n, "des": m, "fallback": {reason: count}}``,
    or ``None`` when no point has been counted (fast-path-unaware run).
    """
    reg = registry if registry is not None else REGISTRY
    out = {"analytic": 0, "des": 0}
    fallback: dict[str, int] = {}
    seen = False
    for item in reg.snapshot():
        name = item.get("name")
        if name == "fastpath.points":
            seen = True
            path = item.get("labels", {}).get("path", "des")
            out[path] = out.get(path, 0) + int(item.get("value", 0))
        elif name == "fastpath.fallback":
            seen = True
            reason = item.get("labels", {}).get("reason", "unknown")
            fallback[reason] = fallback.get(reason, 0) + int(item.get("value", 0))
    if not seen:
        return None
    out["fallback"] = dict(sorted(fallback.items()))
    return out


def try_fast_path(
    app: str,
    solver,
    mode: Optional[str] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
):
    """The shared ``fast_path`` hook for the ``simulate_*`` entry points.

    Resolves ``mode``, checks kwargs eligibility, runs ``solver()`` (a
    thunk returning the analytic result) and records usage counters.
    Returns the analytic result, or ``None`` when the caller must run
    the DES.  With ``mode == "on"`` an ineligible or refused run raises
    :class:`FastPathUnsupported` instead of falling back.
    """
    mode = resolve_fast_path(mode)
    if mode == "off":
        note_fallback(app, "disabled")
    else:
        reason = fast_path_refusal(trace, node_specs, monitor, faults)
        if reason is None:
            try:
                result = solver()
            except FastPathUnsupported as exc:
                if mode == "on":
                    raise
                reason = exc.reason
            else:
                note_point(app, "analytic")
                return result
        if mode == "on":
            raise FastPathUnsupported(
                f"fast_path='on' but this {app} run requires the DES ({reason})",
                reason=reason,
            )
        note_fallback(app, reason)
    note_point(app, "des")
    return None


# ----------------------------------------------------------------- engine


class _Q:
    """One FIFO resource queue (link lane, CPU lane, FPGA, DMA channel)."""

    __slots__ = ("cap", "in_use", "q", "last_t", "last_burst", "last_waited", "name")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.in_use = 0
        self.q: deque = deque()
        self.last_t = -1.0
        self.last_burst: Optional[object] = None
        self.last_waited = False
        self.name = ""


class _Tok:
    """One in-flight network transfer (egress -> ingress -> wire)."""

    __slots__ = ("src", "dst", "svc", "size", "key", "burst", "group", "gen")

    def __init__(self, src, dst, svc, size, key, burst, group, gen) -> None:
        self.src = src
        self.dst = dst
        self.svc = svc
        self.size = size
        self.key = key
        self.burst = burst
        self.group = group  # [outstanding, owner_gen] for batch sends
        self.gen = gen  # generator resumed inline for single sends


class _Rates(dict):
    """Sustained flops/s per kernel, looked up on first use."""

    def __init__(self, processor) -> None:
        super().__init__()
        self.processor = processor

    def __missing__(self, kernel: str) -> float:
        rate = self[kernel] = self.processor.sustained_flops(kernel)
        return rate


class Replay:
    """Chronological replay of an op stream without event objects.

    Runs the same op streams as the DES interpreter
    (:func:`repro.apps.des.simulate`; the op vocabulary is tabled in
    docs/simulator.md).  Each stream is a generator; the engine drives it with
    :meth:`advance` and orders everything on one ``(time, seq)`` heap.
    Durations come from the op fields with the DES's own arithmetic and
    the machine's uniform rates: CPU ``flops / sustained_flops(kernel)``,
    channel ``0.0 + bytes / B_d``, link ``latency + int(bytes) / B_n``,
    FPGA ``cycles / F_f``.  A message is keyed ``(src, dst, tag)``;
    ``recv`` is a wait on that key.

    The ambiguity detector lives in :meth:`_acq`: two same-timestamp
    acquisitions of one queue are allowed only if both are granted
    immediately or they share a *tie class* (the same ``send_batch``
    burst, or an explicit ``tie`` tag marking structurally identical
    wave twins whose FIFO order is reproduced by construction).  Any
    other same-timestamp contention raises :class:`FastPathUnsupported`
    -- the caller falls back to the DES, so refusals cost accuracy
    nothing.

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`,
    hooked in through its :meth:`~repro.faults.FaultInjector.install_replay`:
    steady rate faults scale ``bandwidth`` / ``b_d`` / ``freq`` before
    any op runs, and each DMA stall becomes a :meth:`hold` on its node's
    channel queue.  Anything else refuses with reason ``faults``.
    """

    def __init__(self, spec, design, faults=None) -> None:
        p = spec.p
        self.p = p
        net = spec.network
        links = net.links_per_node
        self.latency = net.latency
        self.bandwidth = net.bandwidth
        self.freq = design.freq_hz
        self.b_d = spec.node.fpga.effective_dram_bandwidth(self.freq)
        self.rates = _Rates(spec.node.processor)
        self.heap: list = []
        self.seq = 0
        self.egress = [_Q(links) for _ in range(p)]
        self.ingress = [_Q(links) for _ in range(p)]
        self.lane = [_Q(1) for _ in range(p)]
        self.fpga = [_Q(1) for _ in range(p)]
        self.chan = [_Q(1) for _ in range(p)]
        for nm in ("egress", "ingress", "lane", "fpga", "chan"):
            for idx, qq in enumerate(getattr(self, nm)):
                qq.name = f"{nm}[{idx}]"
        self.cpu_busy = [0.0] * p
        self.fpga_busy = [0.0] * p
        self.net_bytes = 0.0
        self.events: dict = {}  # key -> completion time
        self.waiters: dict = {}  # key -> [countdown, gen, park_t] cells
        self.max_t = 0.0
        self.stall_log: list = []  # (t, phase, grant_t, immediate, event, node)
        self._commit = None
        if faults is not None:
            install = getattr(faults, "install_replay", None)
            if install is None:
                raise FastPathUnsupported(
                    f"{type(faults).__name__} cannot be replayed (no install_replay)",
                    reason="faults",
                )
            self._commit = install(self)

    def play(self, procs) -> dict:
        """Run ``(name, stream)`` processes in spawn order.

        Returns the result fields the apps share with the DES
        (``elapsed``, ``trace``, ``cpu_busy``, ``fpga_busy``,
        ``network_bytes``).
        """
        heap = self.heap
        while heap and heap[0][0] == 0.0:
            # Stalls due at t=0 request their channel before any schedule
            # op, as the DES's fault processes do.
            self._stall(heappop(heap)[3], 0.0)
        for _name, ops in procs:
            self.advance(ops, 0.0)
        elapsed = self.run()
        if self._commit is not None:
            self._commit(self._fault_log())
        return {
            "elapsed": elapsed,
            "trace": None,
            "cpu_busy": self.cpu_busy,
            "fpga_busy": self.fpga_busy,
            "network_bytes": self.net_bytes,
        }

    # -- queues ---------------------------------------------------------

    def _acq(self, q: _Q, t: float, burst) -> bool:
        """Acquire ``q`` at ``t``; True if granted now, False if queued.

        Raises :class:`FastPathUnsupported` on an ambiguous tie: a
        same-timestamp acquisition from a different tie class where
        either party waits (then DES micro-order picks the winner).
        """
        wait = q.in_use >= q.cap or bool(q.q)
        if t == q.last_t and (burst is None or q.last_burst is None or burst != q.last_burst):
            if wait or q.last_waited:
                raise FastPathUnsupported(
                    f"ambiguous same-time contention on {q.name} at t={t!r}"
                )
        q.last_t = t
        q.last_burst = burst
        q.last_waited = wait
        if wait:
            return False
        q.in_use += 1
        return True

    def _rel(self, q: _Q, t: float) -> None:
        """Release one slot of ``q`` at ``t`` and grant the FIFO head."""
        q.in_use -= 1
        if q.q and q.in_use < q.cap:
            kind, data = q.q.popleft()
            q.in_use += 1
            if kind == 0:  # transfer waiting for egress
                self._ingress_phase(data, t)
            elif kind == 1:  # transfer waiting for ingress
                self._push(t + data.svc, "x", data)
            elif kind == 2:  # cpu lane waiter
                i, gen, dur = data
                self._push(t + dur, "c", (i, gen, t))
            elif kind == 3:  # fpga waiter
                i, key, dur, rem = data
                self._push(t + dur, "f", (i, key, t, dur, rem))
            elif kind == 4:  # chan waiter
                i, gen, dur = data
                self._push(t + dur, "h", (i, gen, t))
            else:  # stall waiter
                self._stall_start(data, t, False)

    def _push(self, t: float, kind: str, data) -> None:
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, data))

    def _fpga_job(self, i: int, key, dur: float, rem: int, t: float) -> None:
        q = self.fpga[i]
        if self._acq(q, t, None):
            self._push(t + dur, "f", (i, key, t, dur, rem))
        else:
            q.q.append((3, (i, key, dur, rem)))

    # -- DMA stalls -----------------------------------------------------

    def hold(self, i: int, at: float, duration: float, event) -> None:
        """A DMA stall: ``chan[i]`` is held ``duration`` from a FIFO grant.

        The hold requests the channel at ``at`` -- ahead of any schedule
        op at that time, as the DES's fault processes are spawned first --
        and resumes no generator.  The grant and the end are logged
        (``apply`` / ``revert``) under ``event`` for :meth:`_fault_log`.
        """
        self._push(at, "s", (i, duration, event))

    def _stall(self, data, t: float) -> None:
        q = self.chan[data[0]]
        if self._acq(q, t, None):
            self._stall_start(data, t, True)
        else:
            q.q.append((5, data))

    def _stall_start(self, data, t: float, immediate: bool) -> None:
        i, duration, event = data
        end = t + duration
        if end == t:
            raise FastPathUnsupported(
                f"stall on chan[{i}] at t={t!r} is below one ulp of the clock",
                reason="faults",
            )
        self.stall_log.append((t, 1, t, immediate, event, i))
        self._push(end, "e", (i, event, t, immediate))

    def _fault_log(self) -> list:
        """The stall log in the DES's order, as ``(event, phase, t, node)``.

        At one timestamp the DES logs every revert (in the order the
        holds were granted) before every apply (in grant order).  Grants
        at a stall's own request time come first in both engines, in
        spawn order.  Grants made by channel *releases* at one time
        follow the release order: for the nodes of one stall event
        (same ``at``, same duration) that is the schedule's structural
        order, which both engines share -- the wave-twin argument the
        ambiguity detector rests on.  Release grants of *different*
        events tying at one time are coincidences with no pinned order;
        they refuse with reason ``faults`` rather than risk another log.
        """
        log = sorted(self.stall_log, key=lambda r: (r[0], r[1]))
        released: dict = {}  # (t, phase, grant_t) -> the event released then
        for t, phase, grant_t, immediate, event, _i in log:
            if not immediate and released.setdefault((t, phase, grant_t), event) is not event:
                raise FastPathUnsupported(
                    f"stalls of two events released at t={t!r}: DES log order not pinned",
                    reason="faults",
                )
        return [(ev, "apply" if ph else "revert", t, i) for t, ph, _g, _im, ev, i in log]

    # -- transfers ------------------------------------------------------

    def _start_transfer(self, tok: _Tok, t: float) -> None:
        q = self.egress[tok.src]
        if self._acq(q, t, tok.burst):
            self._ingress_phase(tok, t)
        else:
            q.q.append((0, tok))

    def _ingress_phase(self, tok: _Tok, t: float) -> None:
        q = self.ingress[tok.dst]
        if self._acq(q, t, tok.burst):
            self._push(t + tok.svc, "x", tok)
        else:
            q.q.append((1, tok))

    # -- completion events ----------------------------------------------

    def _set(self, key, t: float) -> None:
        self.events[key] = t
        for cell in self.waiters.pop(key, ()):
            cell[0] -= 1
            if cell[0] == 0:
                self._push(t, "g", cell[1])

    def _wait_keys(self, gen, keys, t: float) -> Optional[float]:
        """Resume time if every key is set; else park ``gen``."""
        events = self.events
        unset = [k for k in keys if k not in events]
        if not unset:
            mx = t
            for k in keys:
                v = events[k]
                if v > mx:
                    mx = v
            return mx
        cell = [len(unset), gen, t]
        waiters = self.waiters
        for k in unset:
            waiters.setdefault(k, []).append(cell)
        return None

    # -- generator driver ------------------------------------------------

    def advance(self, gen, t: float) -> None:
        """Drive ``gen`` from time ``t`` until it blocks or finishes."""
        if t > self.max_t:
            self.max_t = t
        step = gen.__next__
        events = self.events
        while True:
            try:
                op = step()
            except StopIteration:
                return
            code = op[0]
            if code == "cpu":
                i = op[1]
                dur = op[3] / self.rates[op[2]]
                q = self.lane[i]
                if self._acq(q, t, None):
                    self._push(t + dur, "c", (i, gen, t))
                else:
                    q.q.append((2, (i, gen, dur)))
                return
            elif code == "recv" or code == "wait":
                key = (op[2], op[1], op[3]) if code == "recv" else op[1]
                done = events.get(key)
                if done is None:
                    self.waiters.setdefault(key, []).append([1, gen, t])
                    return
                if done > t:
                    t = done
                    if t > self.max_t:
                        self.max_t = t
            elif code == "chan":
                i = op[1]
                dur = 0.0 + op[2] / self.b_d
                q = self.chan[i]
                if self._acq(q, t, None):
                    self._push(t + dur, "h", (i, gen, t))
                else:
                    q.q.append((4, (i, gen, dur)))
                return
            elif code == "set":
                self._set(op[1], t)
            elif code == "fpga":
                _, i, cycles, _flops, repeat, key, _label = op
                self._fpga_job(i, key, cycles / self.freq, repeat, t)
            elif code == "send":
                _, src, dst, nbytes, tag, tie = op
                size = int(nbytes)
                svc = self.latency + size / self.bandwidth
                self._start_transfer(
                    _Tok(src, dst, svc, size, (src, dst, tag), tie, None, gen), t
                )
                return
            elif code == "send_batch":
                _, src, dsts, nbytes, tag = op
                if not dsts:
                    continue
                size = int(nbytes)
                svc = self.latency + size / self.bandwidth
                burst = object()
                group = [len(dsts), gen]
                for dst in dsts:
                    self._start_transfer(
                        _Tok(src, dst, svc, size, (src, dst, tag), burst, group, None), t
                    )
                return
            elif code == "wait_all":
                keys = op[1]
                if len(op) > 2:
                    dst = op[2]
                    keys = [k if s is None else (s, dst, k) for k, s in zip(keys, op[3])]
                r = self._wait_keys(gen, keys, t)
                if r is None:
                    return
                t = r
                if t > self.max_t:
                    self.max_t = t
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown replay op {code!r}")

    def run(self) -> float:
        """Drain the heap; returns the makespan (latest time touched)."""
        heap = self.heap
        while heap:
            t, _, kind, data = heappop(heap)
            if t > self.max_t:
                self.max_t = t
            if kind == "c":  # cpu lane hold ends
                i, gen, start = data
                self._rel(self.lane[i], t)
                self.cpu_busy[i] += t - start
                self.advance(gen, t)
            elif kind == "x":  # transfer wire time ends
                tok = data
                self._rel(self.ingress[tok.dst], t)
                self._rel(self.egress[tok.src], t)
                self.net_bytes += tok.size
                self._set(tok.key, t)
                if tok.gen is not None:
                    self.advance(tok.gen, t)
                else:
                    group = tok.group
                    group[0] -= 1
                    if group[0] == 0:
                        self._push(t, "g", group[1])
            elif kind == "g":  # plain generator resume
                self.advance(data, t)
            elif kind == "h":  # channel hold ends
                i, gen, start = data
                self._rel(self.chan[i], t)
                self.advance(gen, t)
            elif kind == "f":  # one fpga run ends
                i, key, start, dur, rem = data
                self._rel(self.fpga[i], t)
                self.fpga_busy[i] += t - start
                if rem > 1:
                    self._fpga_job(i, key, dur, rem - 1, t)
                else:
                    self._set(key, t)
            elif kind == "s":  # a stall requests its channel
                self._stall(data, t)
            else:  # "e": a stall ends
                i, event, start, immediate = data
                self.stall_log.append((t, 0, start, immediate, event, i))
                self._rel(self.chan[i], t)
        return self.max_t
