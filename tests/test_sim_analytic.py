"""Tests for the analytic no-contention fast path.

The core property: on every point the fast path accepts, the analytic
result is **bitwise identical** to the discrete-event simulation --
``elapsed``, per-node busy times and network bytes compare with ``==``,
not ``pytest.approx``.  Randomized draws from the valid parameter space
exercise the property beyond the paper's fixed grids; refusal tests pin
down when the fast path must hand over to the DES.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import des
from repro.apps.fw import FwSimConfig, simulate_fw
from repro.apps.fw.analytic import analytic_fw_batch
from repro.apps.fw.simulate import fw_schedule
from repro.apps.lu import LuSimConfig, simulate_block_mm, simulate_lu
from repro.apps.lu.analytic import analytic_block_mm, analytic_block_mm_batch, analytic_lu
from repro.apps.lu.simulate import block_mm_schedule, lu_schedule
from repro.apps.mm.simulate import MmSimConfig, mm_schedule, simulate_mm
from repro.campaign.perturb import PerturbationModel
from repro.campaign.runner import build_design
from repro.faults import (
    SCENARIO_BUILDERS,
    FaultEvent,
    FaultInjector,
    FaultScenario,
    build_scenario,
    degraded_link,
    dram_contention,
    fpga_clock_throttle,
    node_failure,
)
from repro.hw import FloydWarshallDesign, MatrixMultiplyDesign
from repro.machine import ALL_PRESETS
from repro.obs.metrics import REGISTRY
from repro.sim import SimMonitor
from repro.sim.analytic import (
    FAST_PATH_ENV_VAR,
    FastPathUnsupported,
    Replay,
    fast_path_refusal,
    fastpath_summary,
    resolve_fast_path,
    set_fast_path_mode,
    try_fast_path,
)


@pytest.fixture
def xd1():
    return ALL_PRESETS["xd1"]()


@pytest.fixture(autouse=True)
def _no_mode_override():
    """Tests must not leak a process-default fast-path mode."""
    prev = set_fast_path_mode(None)
    yield
    set_fast_path_mode(prev)


def _same(des, ana):
    assert des.elapsed == ana.elapsed
    assert des.cpu_busy == ana.cpu_busy
    assert des.fpga_busy == ana.fpga_busy
    assert des.network_bytes == ana.network_bytes
    assert des.trace is None and ana.trace is None


# -----------------------------------------------------------------------
# bitwise equality on randomized uncontended points
# -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_lu_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(seed)
    for _ in range(3):
        cfg = LuSimConfig(
            n=3000 * rng.choice((2, 3, 4)),
            b=3000,
            k=8,
            b_f=rng.choice((0, 1080, 2160, 3000)),
            l=rng.choice((0, 1, 2, 3)),
            overlap=rng.random() < 0.5,
            collect_results=rng.random() < 0.5,
            superstripes=rng.choice((1, 2, 8)),
            iterations=rng.choice((1, None)),
        )
        des = simulate_lu(xd1, cfg, fast_path="off")
        ana = simulate_lu(xd1, cfg, fast_path="on")
        _same(des, ana)
        assert des.useful_flops == ana.useful_flops


@pytest.mark.parametrize("seed", range(4))
def test_fw_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(100 + seed)
    p = xd1.p
    for _ in range(3):
        ops = rng.choice((1, 2, 3))
        l1 = rng.randint(0, ops)
        cfg = FwSimConfig(
            n=128 * ops * p,
            b=128,
            k=8,
            l1=l1,
            l2=ops - l1,
            overlap=rng.random() < 0.5,
            aggregate_ops=rng.random() < 0.5,
            iterations=rng.choice((1, None)),
        )
        des = simulate_fw(xd1, cfg, fast_path="off")
        ana = simulate_fw(xd1, cfg, fast_path="on")
        _same(des, ana)
        assert des.iterations_run == ana.iterations_run


@pytest.mark.parametrize("seed", range(4))
def test_mm_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(200 + seed)
    p = xd1.p
    r = rng.choice((256, 512))
    m_f = rng.randint(0, r // 8) * 8
    cfg = MmSimConfig(n=p * r, k=8, m_f=m_f, overlap=rng.random() < 0.5)
    des = simulate_mm(xd1, cfg, fast_path="off")
    ana = simulate_mm(xd1, cfg, fast_path="on")
    _same(des, ana)


@pytest.mark.parametrize("seed", range(4))
def test_block_mm_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(300 + seed)
    b = rng.choice((240, 512, 960))
    bfs = sorted({rng.randint(0, b // 8) * 8 for _ in range(5)})
    des = [simulate_block_mm(xd1, b, bf, 8, fast_path="off") for bf in bfs]
    scalar = [analytic_block_mm(xd1, b, bf, 8) for bf in bfs]
    batch = analytic_block_mm_batch(xd1, b, bfs, 8)
    assert des == scalar == batch  # floats, compared exactly


def test_fw_batch_matches_scalar_bitwise(xd1):
    cfgs = [FwSimConfig(n=2304, b=128, k=8, l1=l1, l2=3 - l1) for l1 in range(4)]
    batch = analytic_fw_batch(xd1, cfgs)
    for cfg, res in zip(cfgs, batch):
        _same(simulate_fw(xd1, cfg, fast_path="off"), res)


def test_other_presets_match_bitwise():
    for machine in ("xt3", "rasc"):
        spec = ALL_PRESETS[machine]()
        cfg = FwSimConfig(n=128 * 2 * spec.p, b=128, k=8, l1=1, l2=1)
        _same(simulate_fw(spec, cfg, fast_path="off"),
              simulate_fw(spec, cfg, fast_path="on"))


# -----------------------------------------------------------------------
# refusal: traced / monitored / faulted runs require the DES
# -----------------------------------------------------------------------


class _StubFaults:
    installed = False

    def install(self, system):
        self.installed = True


def test_refusal_reasons():
    assert fast_path_refusal() is None
    assert fast_path_refusal(trace=True) == "trace"
    assert fast_path_refusal(node_specs=[]) == "node-specs"
    assert fast_path_refusal(monitor=object()) == "monitor"
    assert fast_path_refusal(faults=object()) == "faults"


def test_fast_path_on_raises_for_monitored_run(xd1):
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    with pytest.raises(FastPathUnsupported) as exc:
        simulate_mm(xd1, cfg, monitor=SimMonitor(), fast_path="on")
    assert exc.value.reason == "monitor"


def test_fast_path_on_raises_for_traced_run(xd1):
    cfg = FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2)
    with pytest.raises(FastPathUnsupported) as exc:
        simulate_fw(xd1, cfg, trace=True, fast_path="on")
    assert exc.value.reason == "trace"


def test_auto_falls_back_to_des_for_faulted_run(xd1):
    faults = _StubFaults()
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    before = _fallbacks("mm", "faults")
    res = simulate_mm(xd1, cfg, faults=faults, fast_path="auto")
    assert faults.installed  # the DES actually ran
    assert res.elapsed == simulate_mm(xd1, cfg, fast_path="on").elapsed
    assert _fallbacks("mm", "faults") == before + 1


_LU_CFG = LuSimConfig(n=6000, b=3000, k=8, b_f=1080, l=1)
_FW_CFG = FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2)


def _lu_on(spec, faults):
    return simulate_lu(spec, _LU_CFG, faults=faults, fast_path="on")


def _fw_on(spec, faults):
    return simulate_fw(spec, _FW_CFG, faults=faults, fast_path="on")


def _mm_on(spec, faults):
    cfg = MmSimConfig(n=spec.p * 256, k=8, m_f=64)
    return simulate_mm(spec, cfg, faults=faults, fast_path="on")


def _block_mm_on(spec, faults):
    # simulate_block_mm takes no faults; its fold refuses them at the hook.
    return try_fast_path(
        "block_mm", lambda: analytic_block_mm(spec, 240, 80, 8), mode="on", faults=faults
    )


@pytest.mark.parametrize(
    "run, faults",
    [
        (_lu_on, lambda: FaultInjector(node_failure(node=1, at=0.05))),
        (_lu_on, lambda: FaultInjector(degraded_link(0.5, at=0.01))),
        (_fw_on, lambda: FaultInjector(dram_contention(0.5, duration=0.01))),
        (_lu_on, lambda: FaultInjector(fpga_clock_throttle(0.5, node=1))),
        (_fw_on, lambda: FaultInjector(dram_contention(0.5, node=0))),
        (_lu_on, _StubFaults),
        (_fw_on, _StubFaults),
        (_mm_on, lambda: FaultInjector(degraded_link(0.9))),
        (_block_mm_on, lambda: FaultInjector(degraded_link(0.9))),
    ],
    ids=[
        "node-failure",
        "delayed-rate",
        "windowed-rate",
        "per-node-throttle",
        "per-node-dram",
        "lu-no-scenario",
        "fw-no-scenario",
        "mm-fold",
        "block-mm-fold",
    ],
)
def test_fast_path_on_refuses_unreplayable_faults(xd1, run, faults):
    injector = faults()
    with pytest.raises(FastPathUnsupported) as exc:
        run(xd1, injector)
    assert exc.value.reason == "faults"
    # A refusal leaves the injector untouched for the DES run.
    assert not getattr(injector, "injected", None)
    assert getattr(injector, "system", None) is None
    assert not getattr(injector, "installed", False)


def test_monitored_run_matches_unmonitored_bitwise(xd1):
    cfg = FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2)
    mon = SimMonitor()
    monitored = simulate_fw(xd1, cfg, monitor=mon, fast_path="auto")
    assert mon.events_fired > 0  # fell back to the counting DES loop
    _same(monitored, simulate_fw(xd1, cfg, fast_path="on"))


# -----------------------------------------------------------------------
# mode resolution + counters
# -----------------------------------------------------------------------


def _points(app, path):
    try:
        return REGISTRY.value("fastpath.points", app=app, path=path)
    except KeyError:
        return 0.0


def _fallbacks(app, reason):
    try:
        return REGISTRY.value("fastpath.fallback", app=app, reason=reason)
    except KeyError:
        return 0.0


def test_mode_resolution(monkeypatch):
    monkeypatch.delenv(FAST_PATH_ENV_VAR, raising=False)
    assert resolve_fast_path() == "auto"
    assert resolve_fast_path("off") == "off"
    monkeypatch.setenv(FAST_PATH_ENV_VAR, "off")
    assert resolve_fast_path() == "off"
    prev = set_fast_path_mode("on")
    try:
        assert resolve_fast_path() == "on"  # override beats env
        assert resolve_fast_path("off") == "off"  # arg beats override
    finally:
        set_fast_path_mode(prev)
    with pytest.raises(ValueError):
        resolve_fast_path("sometimes")
    with pytest.raises(ValueError):
        set_fast_path_mode("sometimes")


def test_counters_split_analytic_vs_des(xd1):
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    a0, d0 = _points("mm", "analytic"), _points("mm", "des")
    f0 = _fallbacks("mm", "disabled")
    simulate_mm(xd1, cfg, fast_path="on")
    simulate_mm(xd1, cfg, fast_path="off")
    assert _points("mm", "analytic") == a0 + 1
    assert _points("mm", "des") == d0 + 1
    assert _fallbacks("mm", "disabled") == f0 + 1


def test_fastpath_summary_shape(xd1):
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    simulate_mm(xd1, cfg, fast_path="on")
    summary = fastpath_summary()
    assert summary is not None
    assert summary["analytic"] >= 1
    assert set(summary) == {"analytic", "des", "fallback"}
    assert all(isinstance(v, int) for v in summary["fallback"].values())


def test_fastpath_summary_none_when_unused():
    class _Empty:
        def snapshot(self):
            return []

    assert fastpath_summary(_Empty()) is None


# -----------------------------------------------------------------------
# experiments wiring: batch pre-pass solves homogeneous grids
# -----------------------------------------------------------------------


def _small_grid_tasks():
    fw = [
        {"kind": "fw", "machine": "xd1",
         "cfg": FwSimConfig(n=2304, b=128, k=8, l1=l1, l2=3 - l1)}
        for l1 in range(4)
    ]
    bmm = [
        {"kind": "block_mm", "machine": "xd1", "b": 240, "b_f": bf, "k": 8}
        for bf in (0, 80, 240)
    ]
    # Interleave so the grouping has to reassemble by index.
    return [fw[0], bmm[0], fw[1], bmm[1], fw[2], bmm[2], fw[3]]


def test_batch_fast_path_solves_homogeneous_groups():
    from repro import experiments as E

    tasks = _small_grid_tasks()
    solved = E._batch_fast_path(tasks)
    assert set(solved) == set(range(len(tasks)))  # every point batchable


def test_eval_sim_points_identical_with_and_without_fast_path():
    from repro import experiments as E

    tasks = _small_grid_tasks()
    with E.configured(cache=False, fast_path="off"):
        des = E._eval_sim_points(tasks)
    with E.configured(cache=False, fast_path="auto"):
        fast = E._eval_sim_points(tasks)
    assert des == fast  # floats and float-valued dicts, compared exactly


def test_batch_fast_path_counts_sim_calls():
    from repro import experiments as E

    tasks = _small_grid_tasks()
    before = E.SIM_CALLS
    with E.configured(cache=False, fast_path="auto"):
        E._eval_sim_points(tasks)
    assert E.SIM_CALLS == before + len(tasks)


def test_batch_fast_path_respects_off_mode():
    from repro import experiments as E

    prev = set_fast_path_mode("off")
    try:
        assert E._batch_fast_path(_small_grid_tasks()) == {}
    finally:
        set_fast_path_mode(prev)


def test_fw_batch_refuses_mixed_configs(xd1):
    mixed = [
        FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2),
        FwSimConfig(n=2304, b=128, k=8, l1=2, l2=1, overlap=False),
    ]
    with pytest.raises(ValueError):
        analytic_fw_batch(xd1, mixed)
    per_op = [
        FwSimConfig(n=2304, b=128, k=8, l1=l1, l2=3 - l1, aggregate_ops=False)
        for l1 in (1, 2)
    ]
    with pytest.raises(FastPathUnsupported):
        analytic_fw_batch(xd1, per_op)


def test_ledger_experiments_entry_carries_fast_path(tmp_path):
    from repro.obs import RunLedger, experiments_entry

    entry = experiments_entry(
        [("fig5", True)],
        sim_points=16,
        fast_path={"analytic": 16, "des": 0, "fallback": {}},
        git_sha="deadbeef",
    )
    stored = RunLedger(tmp_path / "ledger.jsonl").append(entry)
    assert stored["fast_path"] == {"analytic": 16, "des": 0, "fallback": {}}


# -----------------------------------------------------------------------
# cross-preset fuzz: fast path == DES, Replay over op streams == folds,
# traced DES == untraced DES
# -----------------------------------------------------------------------


def _fields(res):
    return (res.elapsed, res.cpu_busy, res.fpga_busy, res.network_bytes)


def _run_fields(run):
    return (run["elapsed"], run["cpu_busy"], run["fpga_busy"], run["network_bytes"])


def _assert_traced_matches(simulate, spec, cfg, des):
    traced = simulate(spec, cfg, trace=True)
    assert traced.trace is not None
    assert _fields(traced) == _fields(des)


def _fuzz_lu(rng, spec):
    b = rng.choice((240, 480, 960))
    cfg = LuSimConfig(
        n=b * rng.choice((2, 3)),
        b=b,
        k=8,
        b_f=rng.randint(0, b // 8) * 8,
        l=rng.randint(0, 4),
        superstripes=rng.choice((1, 2, 4, 8)),
        overlap=rng.random() < 0.75,
        collect_results=rng.random() < 0.75,
        iterations=rng.choice((1, None)),
    )
    des = simulate_lu(spec, cfg, fast_path="off")
    try:
        ana = analytic_lu(spec, cfg)
    except FastPathUnsupported:
        ana = None
    else:
        assert _fields(ana) == _fields(des), cfg
        assert _fields(simulate_lu(spec, cfg, fast_path="on")) == _fields(des)
    _assert_traced_matches(simulate_lu, spec, cfg, des)
    return ana is not None


def _fuzz_fw(rng, spec):
    b = rng.choice((64, 128))
    ops = rng.randint(1, 3)
    l1 = rng.randint(0, ops)
    cfg = FwSimConfig(
        n=b * ops * spec.p,
        b=b,
        k=8,
        l1=l1,
        l2=ops - l1,
        overlap=rng.random() < 0.75,
        aggregate_ops=rng.random() < 0.5,
        iterations=None if ops * spec.p <= 6 and rng.random() < 0.5 else 1,
    )
    des = simulate_fw(spec, cfg, fast_path="off")
    fold = simulate_fw(spec, cfg, fast_path="on")
    assert _fields(fold) == _fields(des), cfg
    design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=cfg.k)
    replay = Replay(spec, design).play(fw_schedule(spec, cfg, design))
    assert _run_fields(replay) == _fields(fold), cfg
    _assert_traced_matches(simulate_fw, spec, cfg, des)


def _fuzz_mm(rng, spec):
    r = rng.choice((64, 128))
    cfg = MmSimConfig(
        n=spec.p * r, k=8, m_f=rng.randint(0, r // 8) * 8, overlap=rng.random() < 0.75
    )
    des = simulate_mm(spec, cfg, fast_path="off")
    fold = simulate_mm(spec, cfg, fast_path="on")
    assert _fields(fold) == _fields(des), cfg
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=cfg.k)
    replay = Replay(spec, design).play(mm_schedule(spec, cfg))
    assert _run_fields(replay) == _fields(fold), cfg
    _assert_traced_matches(simulate_mm, spec, cfg, des)


def _fuzz_block_mm(rng, spec):
    b = rng.choice((240, 480))
    b_f = rng.randint(0, b // 8) * 8
    des = simulate_block_mm(spec, b, b_f, 8, fast_path="off")
    fold = simulate_block_mm(spec, b, b_f, 8, fast_path="on")
    assert fold == des, (b, b_f)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    replay = Replay(spec, design).play(block_mm_schedule(spec, b, b_f, 8))
    assert replay["elapsed"] == fold
    assert simulate_block_mm(spec, b, b_f, 8, trace=True) == des


@pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
def test_cross_preset_fuzz(preset):
    spec = ALL_PRESETS[preset]()
    rng = random.Random(f"fuzz-{preset}")
    for _ in range(16):
        _fuzz_fw(rng, spec)
        _fuzz_mm(rng, spec)
    if spec.p >= 2:
        accepted = sum(_fuzz_lu(rng, spec) for _ in range(16))
        assert accepted == 16  # every draw reaches the LU fast path
        for _ in range(8):
            _fuzz_block_mm(rng, spec)


# -----------------------------------------------------------------------
# faulted runs: t=0 steady rates and DMA stalls replay bitwise
# -----------------------------------------------------------------------


def _faulted_cells():
    for preset in sorted(ALL_PRESETS):
        for app in ("lu", "fw"):
            try:
                build_design(app, preset).config()
            except ValueError:
                continue  # the design does not build on this machine
            yield app, preset


@pytest.mark.parametrize("app, preset", list(_faulted_cells()))
def test_faulted_fuzz(app, preset):
    """Seeded campaign draws over the scenario library: fast == DES.

    Every cell, ``lu@rasc`` included, replays fault-free and under every
    draw; no refusal is allowed.
    """
    design = build_design(app, preset)
    spec, cfg = design.spec, design.config()
    simulate = simulate_lu if app == "lu" else simulate_fw
    assert _fields(simulate(spec, cfg, design=design.design, fast_path="on")) == _fields(
        simulate(spec, cfg, design=design.design, fast_path="off")
    )
    model = PerturbationModel()
    rng = random.Random(f"faulted-{app}-{preset}")
    for name in sorted(SCENARIO_BUILDERS):
        if name == "node-failure":
            continue
        for _ in range(2):
            scenario = model.sample(rng.randrange(2**31), base=build_scenario(name))
            oracle, fast = FaultInjector(scenario), FaultInjector(scenario)
            ref = simulate(spec, cfg, design=design.design, faults=oracle, fast_path="off")
            res = simulate(spec, cfg, design=design.design, faults=fast, fast_path="on")
            assert _fields(res) == _fields(ref), name
            assert fast.injected == oracle.injected, name
            assert oracle.injected  # the draw really perturbed the run


def _stream(*ops):
    yield from ops


class _Engines:
    """Run hand-built op streams on the DES and on Replay under faults."""

    def __init__(self, spec):
        self.spec = spec
        self.design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
        self.b_d = spec.node.fpga.effective_dram_bandwidth(self.design.freq_hz)
        self.rate = spec.node.processor.sustained_flops("dgemm")

    def chan(self, i, seconds):
        return ("chan", i, seconds * self.b_d, "")

    def cpu(self, i, seconds):
        return ("cpu", i, "dgemm", seconds * self.rate, "")

    def run(self, make_procs, *stalls):
        scenario = FaultScenario("stalls", events=stalls)
        oracle, fast = FaultInjector(scenario), FaultInjector(scenario)
        ref = des.simulate(self.spec, self.design, make_procs(), faults=oracle)
        res = Replay(self.spec, self.design, fast).play(make_procs())
        assert _run_fields(res) == _run_fields(ref)
        assert fast.injected == oracle.injected
        return res["elapsed"], [(e["phase"], e["node"], e["t"]) for e in oracle.injected]


def _stall(at, duration, node=None):
    return FaultEvent(kind="dma_stall", at=at, duration=duration, node=node)


def test_stall_queues_behind_in_flight_transfer(xd1):
    eng = _Engines(xd1)
    procs = lambda: [("n0", _stream(eng.chan(0, 1.0), eng.chan(0, 1.0)))]
    elapsed, log = eng.run(procs, _stall(0.5, 0.25, node=0))
    # Granted when the first transfer releases; the second queues behind it.
    assert log == [("apply", 0, 1.0), ("revert", 0, 1.25)]
    assert elapsed == pytest.approx(2.25)


def test_transfer_queues_behind_stall(xd1):
    eng = _Engines(xd1)
    procs = lambda: [("n0", _stream(eng.cpu(0, 0.75), eng.chan(0, 0.5)))]
    elapsed, log = eng.run(procs, _stall(0.5, 1.0, node=0))
    assert log == [("apply", 0, 0.5), ("revert", 0, 1.5)]
    assert elapsed == pytest.approx(2.0)


def test_overlapping_stalls_on_one_node(xd1):
    eng = _Engines(xd1)
    procs = lambda: [("n0", _stream(eng.cpu(0, 1.0), eng.chan(0, 0.5)))]
    elapsed, log = eng.run(procs, _stall(0.5, 1.0, node=0), _stall(0.8, 0.5, node=0))
    # The second stall waits for the first; the transfer waits for both.
    assert log == [
        ("apply", 0, 0.5), ("revert", 0, 1.5), ("apply", 0, 1.5), ("revert", 0, 2.0)
    ]
    assert elapsed == pytest.approx(2.5)


def test_stall_at_time_zero(xd1):
    eng = _Engines(xd1)
    procs = lambda: [(f"n{i}", _stream(eng.cpu(i, 0.1), eng.chan(i, 0.2))) for i in range(xd1.p)]
    elapsed, log = eng.run(procs, _stall(0.0, 0.3))
    assert log[: xd1.p] == [("apply", i, 0.0) for i in range(xd1.p)]
    assert elapsed == pytest.approx(0.5)


def test_stall_past_the_last_op_extends_elapsed(xd1):
    eng = _Engines(xd1)
    procs = lambda: [("n0", _stream(eng.chan(0, 0.5)))]
    elapsed, log = eng.run(procs, _stall(3.0, 0.5, node=1))
    assert elapsed == 3.5  # the DES runs until the stall's revert
    assert log == [("apply", 1, 3.0), ("revert", 1, 3.5)]


def test_one_event_released_on_two_nodes_at_once_replays(xd1):
    eng = _Engines(xd1)
    procs = lambda: [(f"n{i}", _stream(eng.chan(i, 1.0))) for i in range(xd1.p)]
    _, log = eng.run(procs, _stall(0.5, 0.25))
    assert [entry[2] for entry in log] == [1.0] * xd1.p + [1.25] * xd1.p


def test_two_events_released_at_once_refuse(xd1):
    eng = _Engines(xd1)
    procs = lambda: [(f"n{i}", _stream(eng.chan(i, 1.0))) for i in (0, 1)]
    stalls = (_stall(0.5, 0.25, node=0), _stall(0.5, 0.25, node=1))
    scenario = FaultScenario("tie", events=stalls)
    injector = FaultInjector(scenario)
    with pytest.raises(FastPathUnsupported) as exc:
        Replay(xd1, eng.design, injector).play(procs())
    assert exc.value.reason == "faults"
    assert injector.injected == []
    des.simulate(xd1, eng.design, procs(), faults=injector)  # the DES still takes it
    assert len(injector.injected) == 4


# -----------------------------------------------------------------------
# same-time ties: Replay decides them in the DES's own order
# -----------------------------------------------------------------------


def _lu_both(spec, cfg):
    """The LU point on the DES and on Replay (``fast_path='on'``)."""
    des_run = simulate_lu(spec, cfg, fast_path="off")
    replay_run = simulate_lu(spec, cfg, fast_path="on")
    assert _fields(replay_run) == _fields(des_run), cfg
    return replay_run


def test_cpu_only_lane_tie_matches_des(xd1):
    # b_f = 0 (Processor-only): a worker's gemm and its opMS sink request
    # the CPU lane at one time -- once refused as an ambiguous tie.
    _lu_both(xd1, LuSimConfig(n=960 * 7, b=960, k=8, b_f=0, l=3, superstripes=1))


def test_fpga_only_cross_wave_result_sends_match_des(xd1):
    # b_f = b (FPGA-only): result sends of workers in different broadcast
    # waves reach one opMS owner's ingress at one time.
    _lu_both(xd1, LuSimConfig(n=960 * 6, b=960, k=8, b_f=960, l=1, superstripes=4))


def test_rasc_local_part_set_wait_matches_des():
    # p = 2: the lone worker keeps many opMS parts locally (set, then
    # wait one hop later) while its sink also wants the CPU lane.
    rasc = ALL_PRESETS["rasc"]()
    assert rasc.p == 2
    for cfg in (
        LuSimConfig(n=240 * 3, b=240, k=8, b_f=0, l=0, superstripes=1),
        LuSimConfig(n=240 * 4, b=240, k=8, b_f=120, l=1, superstripes=2),
    ):
        _lu_both(rasc, cfg)


class _DepthProbe:
    """Test-only DES probe: logs each resource request as (t, depth, name).

    Runs the simulator's loop with the same selection rule as
    ``Simulator.run`` while tracking hop depth: calendar events have
    depth 0 and every zero-delay post is one deeper than the event being
    processed when it was posted.
    """

    def __init__(self, monkeypatch):
        from collections import deque

        from repro.sim import Simulator
        from repro.sim.resources import Resource

        self.log = []
        depth = {}
        cur = [0]

        class _DepthDeque(deque):
            def append(self, event):
                depth[id(event)] = cur[0] + 1
                deque.append(self, event)

        def run(sim, until=None):
            cur[0] = 0
            dq = _DepthDeque()
            for event in sim._dq:  # processes spawned before the run
                dq.append(event)
            sim._dq = dq
            while True:
                if dq and not (sim._times and sim._times[0] <= sim._now):
                    event = dq.popleft()
                    cur[0] = depth.pop(id(event))
                elif sim._times:
                    event = sim._pop_bucket()
                    cur[0] = 0
                else:
                    return sim._now
                event._processed = True
                callbacks = [event._cb] + (event.callbacks or [])
                event._cb = event.callbacks = None
                for fn in callbacks:
                    if fn is not None:
                        fn(event)

        request = Resource.request
        log = self.log

        def logged_request(resource, amount=1):
            log.append((resource.sim.now, cur[0], resource.name))
            return request(resource, amount)

        monkeypatch.setattr(Simulator, "run", run)
        monkeypatch.setattr(Resource, "request", logged_request)


def test_replay_request_log_equals_des_probe(xd1, monkeypatch):
    rasc = ALL_PRESETS["rasc"]()
    cases = [
        (xd1, LuSimConfig(n=960 * 7, b=960, k=8, b_f=0, l=3, superstripes=1)),
        (xd1, LuSimConfig(n=960 * 6, b=960, k=8, b_f=960, l=1, superstripes=4)),
        (rasc, LuSimConfig(n=240 * 4, b=240, k=8, b_f=120, l=1, superstripes=2)),
    ]
    probe = _DepthProbe(monkeypatch)
    for spec, cfg in cases:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=cfg.k)
        del probe.log[:]
        ref = des.simulate(spec, design, lu_schedule(spec, cfg))
        replay = Replay(spec, design)
        replay.requests = []
        run = replay.play(lu_schedule(spec, cfg))
        assert _run_fields(run) == _run_fields(ref), cfg
        assert replay.requests == probe.log, cfg
        # The log holds same-(t, depth) requests of one queue: the ties
        # the engine once refused.
        assert len(set(probe.log)) < len(probe.log)


def test_replay_request_log_equals_des_probe_under_stalls(xd1, monkeypatch):
    # At t=0.25 the all-node stall ends, node 2's second stall requests
    # its channel and every node's CPU hold ends and requests the channel
    # too: the DES orders them by when each timeout was created.
    probe = _DepthProbe(monkeypatch)
    eng = _Engines(xd1)
    procs = lambda: [(f"n{i}", _stream(eng.cpu(i, 0.25), eng.chan(i, 1.0))) for i in range(xd1.p)]
    stalls = FaultScenario(
        "stalls",
        events=(_stall(0.0, 0.25), _stall(0.25, 0.25, node=2), _stall(0.5, 0.25, node=1)),
    )
    oracle, fast = FaultInjector(stalls), FaultInjector(stalls)
    ref = des.simulate(xd1, eng.design, procs(), faults=oracle)
    replay = Replay(xd1, eng.design, fast)
    replay.requests = []
    assert _run_fields(replay.play(procs())) == _run_fields(ref)
    assert replay.requests == probe.log
    assert fast.injected == oracle.injected
