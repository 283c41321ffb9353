"""Tests of the benchmark itself: inputs, counts, CLI, spec and tracing.

Run with ``python3 -m pytest hostbench/tests -q`` from the repo root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import layers
import run
import speed
import workloads
from repro.apps.lu import simulate as lu_simulate
from repro.campaign import campaign_tasks
from repro.sim.core import Simulator

HOSTBENCH = Path(__file__).resolve().parent.parent
ROOT = HOSTBENCH.parent


def test_same_seed_gives_identical_inputs():
    assert workloads.sweep_draws(7) == workloads.sweep_draws(7)
    assert workloads.sweep_draws(7) != workloads.sweep_draws(8)
    assert campaign_tasks(workloads.Campaign(7).spec) == campaign_tasks(workloads.Campaign(7).spec)


def test_every_seed_draws_the_same_strata():
    def shape(draws):
        return Counter(
            (app, preset, p.get("b"), p.get("n"), p.get("iterations"), p.get("aggregate_ops"))
            for app, preset, p in draws
        )

    assert shape(workloads.sweep_draws(1)) == shape(workloads.sweep_draws(2))


def test_same_seed_gives_identical_digests():
    first = workloads.Validate(3).run_pass()
    again = workloads.Validate(3).run_pass()
    assert first.failed == 0
    assert workloads.digest(first.outputs) == workloads.digest(again.outputs)


def test_sweep_point_count_comes_from_the_inputs():
    sweep = workloads.Sweep(5)
    result = sweep.run_pass()
    assert result.failed == 0, result.errors
    draws = len(sweep.draws)
    figure_points = result.ops - draws
    assert figure_points > 0
    assert len(result.outputs) == len(workloads.SWEEP_FIGURES) + draws
    assert sweep.check([("cold", 0.0, result)]) == []


def test_campaign_replicate_count_comes_from_the_inputs():
    campaign = workloads.Campaign(5)
    assert campaign.replicates == len(campaign_tasks(campaign.spec))
    assert campaign.replicates == (
        len(campaign.spec.apps) * len(campaign.spec.scenarios) * campaign.spec.replicates
    )
    result = campaign.run_pass()
    assert result.failed == 0
    assert len(result.step_s) == len(result.outputs) == len(campaign.cells)
    points = sum(json.loads(manifest)["points"] for manifest in result.outputs)
    assert points == result.ops == campaign.replicates


def test_pass_floor_sums_each_steps_fastest_time():
    passes = run.Passes()
    passes.records = [
        ("pass", 0.8, workloads.PassResult(ops=1, step_s=[0.3, 0.5])),
        ("pass", 0.6, workloads.PassResult(ops=1, step_s=[0.4, 0.2])),
    ]
    assert run.floor_s(passes, "pass") == pytest.approx(0.5)


def test_speed_scales_host_time_to_the_standard_kernel_time():
    ref = speed.Speed()
    ref.sample()
    assert len(ref.samples) == speed.SAMPLES_PER_CYCLE
    ref.samples = [0.016, 0.010, 0.012]
    assert ref.scale() == pytest.approx(speed.STANDARD_S / 0.010)
    assert speed.kernel() == speed.kernel()


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, str(HOSTBENCH / "run.py"), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "--workload" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HOSTBENCH / "run.py"), "--workload", "validate", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == layers.per_layer_names()
    assert result["metrics"]["check.wrapper_mismatches"]["value"] == 0
    assert result["metrics"]["hw.pe_array.calls"]["value"] > 0
    spans = next(line for line in proc.stdout.splitlines() if line.startswith("spans "))
    assert (ROOT / spans.split(" ", 1)[1]).is_file()


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_install_then_restore_leaves_the_program_untouched():
    originals = (lu_simulate.simulate_lu, Simulator.__dict__["timeout"])
    patches = layers.install(layers.Recorder())
    assert lu_simulate.simulate_lu is not originals[0]
    patches.restore()
    assert (lu_simulate.simulate_lu, Simulator.__dict__["timeout"]) == originals


def test_traced_cycle_counts_match_the_program_counters():
    sweep = workloads.Sweep(2)
    rec = layers.Recorder()
    run_id = rec.begin_run()
    before = layers.registry_totals()
    patches = layers.install(rec)
    try:
        result = sweep.run_pass()
    finally:
        patches.restore()
    unit = layers.unit_metrics(rec, run_id, rec.counts)
    assert layers.completeness(unit, before, layers.registry_totals(), {}) == []
    assert unit["fastpath.points"] == result.ops
    assert unit["apps.lu.simulate_calls"] > 0
