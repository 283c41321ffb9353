"""The perf-regression script's command line and sweep point count."""

import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf_regression.py"


@pytest.fixture(scope="module")
def bench():
    return runpy.run_path(str(SCRIPT), run_name="bench_perf_regression")


def test_help_exits_zero(bench, capsys):
    with pytest.raises(SystemExit) as exc:
        bench["main"](["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--check-sweep" in out
    assert "25% below" in out


def test_sweep_point_count_matches_simulated_points(bench):
    from repro import experiments as E

    before = E.SIM_CALLS
    with E.configured(jobs=1, cache=False):
        results = [E.ALL_EXPERIMENTS[name]() for name in bench["SWEEP_EXPERIMENTS"]]
    assert bench["_sweep_point_count"](results) == E.SIM_CALLS - before
