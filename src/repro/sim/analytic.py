"""Analytic fast path: exact schedule replay without a DES.

A DES run is a deterministic function of the partition/machine
parameters and of the engine's event order, so it can be reproduced by
replaying the schedule's arithmetic -- same floating-point operations,
same order -- without event objects or generator-driven processes.  The
result is **bitwise identical** to the DES on every point the fast path
accepts, at a fraction of the cost.

Two layers live here:

* :class:`Replay` -- runs the apps' op streams, the same streams the
  DES interpreter :func:`repro.apps.des.simulate` executes (the op
  vocabulary is tabled in docs/simulator.md).  It keeps per-resource
  FIFO queues and the DES's two schedule queues (a calendar and a FIFO
  of same-time posts), but no event/process objects, and runs
  same-timestamp work in the DES's own order, so contended ties come
  out as the DES decides them.

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
  ``unsupported-config`` / ``disabled``).
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
    (``monitor``, ``faults``, ``unsupported-config``, ...); ``str(exc)``
    carries the full diagnostic.
    """

    def __init__(self, detail: str, reason: str) -> None:
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
    """One FIFO resource queue (link, CPU lane, FPGA, DMA channel).

    ``q`` holds the waiters' grant continuations as ``(fn, data, hold)``
    (see :meth:`Replay._request`); ``name`` is the DES resource's name.
    """

    __slots__ = ("cap", "in_use", "q", "name")

    def __init__(self, cap: int, name: str) -> None:
        self.cap = cap
        self.in_use = 0
        self.q: deque = deque()
        self.name = name


class _Tok:
    """One in-flight network transfer (egress -> ingress -> wire).

    ``then`` is who resumes once the message is on the destination's
    mailbox: the sending schedule's generator, or the join of a spawned
    send process.
    """

    __slots__ = ("src", "dst", "svc", "size", "key", "then")

    def __init__(self, src, dst, svc, size, key, then) -> None:
        self.src = src
        self.dst = dst
        self.svc = svc
        self.size = size
        self.key = key
        self.then = then


class _Rates(dict):
    """Sustained flops/s per kernel, looked up on first use."""

    def __init__(self, processor) -> None:
        super().__init__()
        self.processor = processor

    def __missing__(self, kernel: str) -> float:
        rate = self[kernel] = self.processor.sustained_flops(kernel)
        return rate


class Replay:
    """The DES's schedule order, replayed without event objects.

    Runs the same op streams as the DES interpreter
    (:func:`repro.apps.des.simulate`; the op vocabulary is tabled in
    docs/simulator.md).  Each stream is a generator driven by
    :meth:`advance`.  Durations come from the op fields with the DES's
    own arithmetic and the machine's uniform rates: CPU
    ``flops / sustained_flops(kernel)``, channel ``0.0 + bytes / B_d``,
    link ``latency + int(bytes) / B_n``, FPGA ``cycles / F_f``.  A
    message is keyed ``(src, dst, tag)``; ``recv`` takes it from a
    mailbox.

    Same-timestamp work runs in exactly the DES's order, so contended
    ties come out as the DES decides them.  The order key is ``(time,
    hop depth, post order)``: calendar entries (timeouts) have depth 0
    and each zero-delay post (a grant, ``succeed``, a process start, an
    ``all_of`` firing) sits one hop deeper than the entry that posted
    it; docs/simulator.md tables the hops of each op.  As in the DES,
    the key is kept by two queues: a calendar heap of ``(t, seq, fn,
    data)`` and a FIFO of ``(depth, fn, data)`` posts at the current
    time, drained after the calendar entries due now -- breadth-first,
    so FIFO order is depth order.  A running chain continues inline
    through a hop only when nothing else is due now; otherwise it posts
    itself and takes the place the DES gives it.  An entry with several
    callbacks runs the first and queues the rest at the FIFO's head, so
    they still come before anything the first one posts.  A hold's
    timeout is created at its grant (see :meth:`_request`).  Every entry
    runs as ``fn(data, t, depth)``.

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`,
    hooked in through its :meth:`~repro.faults.FaultInjector.install_replay`:
    steady rate faults scale ``bandwidth`` / ``b_d`` / ``freq`` before
    any op runs, and each DMA stall becomes a :meth:`hold` on its node's
    channel queue.  Anything else refuses with reason ``faults``.

    ``requests`` may be set to a list before :meth:`play` to log every
    resource request as ``(t, depth, resource name)``, the probe the
    tests compare with the DES's own log.
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
        self.cal: list = []  # calendar heap: (t, seq, fn, data)
        self.seq = 0
        self.dq: deque = deque()  # posts due now: (depth, fn, data)
        self.requests: Optional[list] = None
        self.egress = [_Q(links, f"net{i}.out") for i in range(p)]
        self.ingress = [_Q(links, f"net{i}.in") for i in range(p)]
        self.lane = [_Q(1, f"cpu{i}.lane") for i in range(p)]
        self.fpga = [_Q(1, f"fpga{i}.lane") for i in range(p)]
        self.chan = [_Q(1, f"fpga_dram{i}.lock") for i in range(p)]
        self.cpu_busy = [0.0] * p
        self.fpga_busy = [0.0] * p
        self.net_bytes = 0.0
        self.done: set = set()  # keys of processed set events
        self.waiters: dict = {}  # key -> [(fn, data)] callbacks, in order
        self.mail: set = set()  # delivered messages not yet received
        self.getters: dict = {}  # message key -> its receiver (as ``_Tok.then``)
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
        for _name, ops in procs:
            self.dq.append((1, self.advance, ops))  # process start, posted at t=0
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

    def run(self) -> float:
        """Drain both queues in DES order; returns the makespan."""
        cal = self.cal
        dq = self.dq
        popleft = dq.popleft
        pop = heappop
        t = 0.0
        while True:
            # Posts due now; none of them can add a calendar entry at t.
            while dq:
                d, fn, data = popleft()
                fn(data, t, d)
            if not cal:
                return t
            # The next time's calendar entries all come first.
            t, _, fn, data = pop(cal)
            fn(data, t, 0)
            while cal and cal[0][0] == t:
                _, _, fn, data = pop(cal)
                fn(data, t, 0)

    # -- scheduling -----------------------------------------------------

    def _at(self, t: float, d: int, end: float, fn, data) -> None:
        """A timeout created at ``(t, d)`` that fires ``fn(data)`` at ``end``.

        A delay below one ulp of the clock (``end == t``) is a zero-delay
        post one hop deeper, as in the DES; any other lands on the
        calendar.
        """
        if end == t:
            self.dq.append((d + 1, fn, data))
        else:
            self.seq += 1
            heappush(self.cal, (end, self.seq, fn, data))

    def _then(self, fn, data, t: float, d: int) -> None:
        """Continue ``fn(data)`` one post away, at depth ``d``.

        Inline when it would be the next entry anyway; else posted.
        """
        cal = self.cal
        if self.dq or (cal and cal[0][0] == t):
            self.dq.append((d, fn, data))
        else:
            fn(data, t, d)

    # -- resources ------------------------------------------------------

    def _request(self, q: _Q, t: float, d: int, fn, data, hold=None) -> None:
        """Request one slot of ``q``; the grant continues ``fn(data)``.

        ``hold`` is set when the continuation only starts a hold of that
        length.  Such a continuation runs at the grant itself: the DES
        creates the hold's timeout one hop later, but every timeout it
        creates in between is another grant's hold, granted (and so
        posted) earlier, so creating each at its grant keeps the DES's
        creation order and thus its order at equal end times.  A hold
        that collapses to a zero-delay post (``t + hold == t``) waits
        for its turn like any other continuation.
        """
        if self.requests is not None:
            self.requests.append((t, d, q.name))
        if q.in_use >= q.cap:
            q.q.append((fn, data, hold))
            return
        q.in_use += 1
        if hold is not None and t + hold != t:
            fn(data, t, d + 1)
        else:
            self._then(fn, data, t, d + 1)

    def _grant(self, q: _Q, t: float, d: int) -> None:
        """A slot of ``q`` came free at depth ``d``: grant the FIFO head."""
        fn, data, hold = q.q.popleft()
        q.in_use += 1
        if hold is not None and t + hold != t:
            fn(data, t, d + 1)  # a hold starts at its grant (see _request)
        else:
            self.dq.append((d + 1, fn, data))

    def _timer(self, data, t: float, d: int) -> None:
        """Hold a granted CPU lane or channel: ``(end_fn, i, gen, dur)``."""
        end_fn, i, gen, dur = data
        self._at(t, d, t + dur, end_fn, (i, gen, t))

    def _cpu_end(self, data, t: float, d: int) -> None:
        i, gen, start = data
        q = self.lane[i]
        q.in_use -= 1
        if q.q:
            self._grant(q, t, d)
        self.cpu_busy[i] += t - start
        self.advance(gen, t, d)

    def _chan_end(self, data, t: float, d: int) -> None:
        i, gen, _start = data
        q = self.chan[i]
        q.in_use -= 1
        if q.q:
            self._grant(q, t, d)
        self.advance(gen, t, d)

    # -- completion events and joins ------------------------------------

    def _event(self, key, t: float, d: int) -> None:
        """A set event is processed: mark it and run its waiters."""
        self.done.add(key)
        cbs = self.waiters.pop(key, None)
        if cbs:
            # The later callbacks run next, ahead of anything the first posts.
            self.dq.extendleft([(d, fn, data) for fn, data in reversed(cbs[1:])])
            fn, data = cbs[0]
            fn(data, t, d)

    def _check(self, join: list, t: float, d: int) -> None:
        """One ``all_of`` constituent is processed.

        ``join = [left, gen, spawned_only]``; see :meth:`_resumed` for
        the third field.
        """
        join[0] -= 1
        if join[0] == 0:
            self._then(self.advance, join[1], t, d + 1)

    def _resumed(self, join: list, t: float, d: int) -> None:
        """A spawned send/recv process resumes at ``(t, d)`` and returns.

        Its end event is processed one hop later, and counts for the
        join one hop after that.  When every constituent is such a
        process (``join[2]``) the counts come in resume order, so only
        the last resume is observable; the others just count down (see
        :meth:`_wake`).
        """
        self._then(self._check, join, t, d + 1)

    def _wake(self, then, t: float, d: int, now: bool = False) -> None:
        """Resume ``then`` at depth ``d``: run it ``now``, or post it.

        ``then`` is a schedule's generator, or the join of a spawned
        process; a spawned process that is not its join's last only
        counts down.
        """
        if type(then) is list:
            if then[2] and then[0] > 1:
                then[0] -= 1
                return
            fn = self._resumed
        else:
            fn = self.advance
        if now:
            fn(then, t, d)
        else:
            self.dq.append((d, fn, then))

    # -- FPGA jobs ------------------------------------------------------

    def _fpga_req(self, job: list, t: float, d: int) -> None:
        """``job = [i, key, dur, runs_left, start]`` requests its fabric."""
        self._request(self.fpga[job[0]], t, d, self._fpga_run, job, job[2])

    def _fpga_run(self, job: list, t: float, d: int) -> None:
        job[4] = t
        self._at(t, d, t + job[2], self._fpga_end, job)

    def _fpga_end(self, job: list, t: float, d: int) -> None:
        i = job[0]
        q = self.fpga[i]
        q.in_use -= 1
        if q.q:
            self._grant(q, t, d)
        self.fpga_busy[i] += t - job[4]
        job[3] -= 1
        if job[3] > 0:
            self._fpga_req(job, t, d)
        else:
            self.dq.append((d + 1, self._event, job[1]))

    # -- transfers ------------------------------------------------------

    # The egress and ingress requests are :meth:`_request` inlined (hot
    # path): the egress grant goes on to request the ingress link, whose
    # grant starts the wire hold.

    def _egress(self, tok: _Tok, t: float, d: int) -> None:
        q = self.egress[tok.src]
        if self.requests is not None:
            self.requests.append((t, d, q.name))
        if q.in_use >= q.cap:
            q.q.append((self._ingress, tok, None))
            return
        q.in_use += 1
        cal = self.cal
        if self.dq or (cal and cal[0][0] == t):
            self.dq.append((d + 1, self._ingress, tok))
        else:
            self._ingress(tok, t, d + 1)

    def _ingress(self, tok: _Tok, t: float, d: int) -> None:
        q = self.ingress[tok.dst]
        if self.requests is not None:
            self.requests.append((t, d, q.name))
        if q.in_use >= q.cap:
            q.q.append((self._wire, tok, tok.svc))
            return
        q.in_use += 1
        end = t + tok.svc
        if end != t:
            self.seq += 1
            heappush(self.cal, (end, self.seq, self._arrive, tok))
        else:
            self._then(self._wire, tok, t, d + 1)

    def _wire(self, tok: _Tok, t: float, d: int) -> None:
        self._at(t, d, t + tok.svc, self._arrive, tok)

    def _arrive(self, tok: _Tok, t: float, d: int) -> None:
        """Wire time ends: free both links, then put on the mailbox."""
        dq = self.dq
        q = self.ingress[tok.dst]
        q.in_use -= 1
        if q.q:
            self._grant(q, t, d)
        q = self.egress[tok.src]
        q.in_use -= 1
        if q.q:
            self._grant(q, t, d)
        self.net_bytes += tok.size
        # The put posts the sender's resume, then the waiting getter's.
        d += 1
        cal = self.cal
        inline = not (dq or (cal and cal[0][0] == t))
        if not inline:
            self._wake(tok.then, t, d)
        getter = self.getters.pop(tok.key, None)
        if getter is None:
            self.mail.add(tok.key)
        else:
            self._wake(getter, t, d)
        if inline:
            self._wake(tok.then, t, d, now=True)

    def _get(self, data, t: float, d: int) -> None:
        """A spawned ``recv`` process starts: ``(key, join)``."""
        key, join = data
        if key not in self.mail:
            self.getters[key] = join
            return
        self.mail.remove(key)
        cal = self.cal
        self._wake(join, t, d + 1, now=not (self.dq or (cal and cal[0][0] == t)))

    # -- DMA stalls -----------------------------------------------------

    def hold(self, i: int, at: float, duration: float, event) -> None:
        """A DMA stall: ``chan[i]`` is held ``duration`` from a FIFO grant.

        The DES runs each stall as a process spawned before the
        schedule's, so it starts first at t=0 (depth 1) and requests the
        channel there or, after a timeout created at that start, at
        ``at``; it resumes no generator.  Those timeouts are the first
        the DES creates, so they are created here.  The grant and the
        end are logged (``apply`` / ``revert``) under ``event`` for
        :meth:`_fault_log`.
        """
        data = [i, at, duration, event, True]
        if at > 0:
            self._at(0.0, 1, at, self._stall_req, data)
        else:
            self.dq.append((1, self._stall_req, data))

    def _stall_req(self, data: list, t: float, d: int) -> None:
        q = self.chan[data[0]]
        data[4] = q.in_use < q.cap  # granted on request
        self._request(q, t, d, self._stall_run, data, data[2])

    def _stall_run(self, data: list, t: float, d: int) -> None:
        i, _at, duration, event, immediate = data
        end = t + duration
        if end == t:
            raise FastPathUnsupported(
                f"stall on chan[{i}] at t={t!r} is below one ulp of the clock",
                reason="faults",
            )
        self.stall_log.append((t, 1, t, immediate, event, i))
        self._at(t, d, end, self._stall_end, (i, event, t, immediate))

    def _stall_end(self, data, t: float, d: int) -> None:
        i, event, start, immediate = data
        self.stall_log.append((t, 0, start, immediate, event, i))
        q = self.chan[i]
        q.in_use -= 1
        if q.q:
            self._grant(q, t, d)

    def _fault_log(self) -> list:
        """The stall log in the DES's order, as ``(event, phase, t, node)``.

        At one timestamp the DES logs every revert (in the order the
        holds were granted) before every apply (in grant order).  Grants
        at a stall's own request time come first in both engines, in
        spawn order.  Grants made by channel *releases* at one time
        follow the release order: for the nodes of one stall event
        (same ``at``, same duration) that is the schedule's structural
        order, which both engines share.  Release grants of *different*
        events tying at one time refuse with reason ``faults`` rather
        than risk another log.
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

    # -- generator driver ------------------------------------------------

    def advance(self, gen, t: float, d: int) -> None:
        """Drive ``gen`` from ``(t, d)`` until it blocks or finishes."""
        cal = self.cal
        dq = self.dq
        step = gen.__next__
        while True:
            try:
                op = step()
            except StopIteration:
                return  # nothing waits on a schedule process's end
            code = op[0]
            if code == "cpu" or code == "chan":
                i = op[1]
                if code == "cpu":
                    q = self.lane[i]
                    dur = op[3] / self.rates[op[2]]
                    end_fn = self._cpu_end
                else:
                    q = self.chan[i]
                    dur = 0.0 + op[2] / self.b_d
                    end_fn = self._chan_end
                # _request inlined (hot path).
                if self.requests is not None:
                    self.requests.append((t, d, q.name))
                if q.in_use >= q.cap:
                    q.q.append((self._timer, (end_fn, i, gen, dur), dur))
                    return
                q.in_use += 1
                end = t + dur
                if end != t:
                    self.seq += 1
                    heappush(cal, (end, self.seq, end_fn, (i, gen, t)))
                else:
                    self._then(self._timer, (end_fn, i, gen, dur), t, d + 1)
                return
            elif code == "recv":
                key = (op[2], op[1], op[3])
                if key not in self.mail:
                    self.getters[key] = gen
                    return
                self.mail.remove(key)
                d += 1
                if dq or (cal and cal[0][0] == t):
                    dq.append((d, self.advance, gen))
                    return
            elif code == "wait":
                key = op[1]
                if key not in self.done:
                    self.waiters.setdefault(key, []).append((self.advance, gen))
                    return
            elif code == "set":
                dq.append((d + 1, self._event, op[1]))
            elif code == "fpga":
                _, i, cycles, _flops, repeat, key, _label = op
                dq.append((d + 1, self._fpga_req, [i, key, cycles / self.freq, repeat, 0.0]))
            elif code == "send":
                _, src, dst, nbytes, tag = op
                size = int(nbytes)
                svc = self.latency + size / self.bandwidth
                self._egress(_Tok(src, dst, svc, size, (src, dst, tag), gen), t, d)
                return
            elif code == "send_batch" or code == "wait_all":
                # An all_of over spawned processes (each start posted one
                # hop deeper) and set events.
                join = [0, gen, True]
                if code == "send_batch":
                    _, src, dsts, nbytes, tag = op
                    size = int(nbytes)
                    svc = self.latency + size / self.bandwidth
                    egress = self._egress
                    for dst in dsts:
                        dq.append((d + 1, egress, _Tok(src, dst, svc, size, (src, dst, tag), join)))
                    join[0] = len(dsts)
                else:
                    keys = op[1]
                    srcs = op[3] if len(op) > 2 else [None] * len(keys)
                    done = self.done
                    for k, s in zip(keys, srcs):
                        if s is not None:
                            dq.append((d + 1, self._get, ((s, op[2], k), join)))
                        elif k in done:
                            continue
                        else:
                            join[2] = False
                            self.waiters.setdefault(k, []).append((self._check, join))
                        join[0] += 1
                if join[0]:
                    return
                d += 1  # an all_of over processed events fires at once
                if dq or (cal and cal[0][0] == t):
                    dq.append((d, self.advance, gen))
                    return
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown replay op {code!r}")
