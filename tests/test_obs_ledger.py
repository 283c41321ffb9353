"""Tests for the run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.apps.lu import LuDesign
from repro.machine import cray_xd1
from repro.obs import (
    LEDGER_SCHEMA,
    LedgerError,
    RunLedger,
    bench_entry,
    current_git_sha,
    design_run_entry,
    entries_from_metrics,
    experiments_entry,
    read_metrics_jsonl,
    write_metrics_jsonl,
)
from repro.obs.metrics import MetricsRegistry


def _overlap_record(app="lu", efficiency=0.9, **meta):
    """A minimal metrics-file overlap record."""
    return {
        "kind": "overlap",
        "app": app,
        "t_tp": 10.0,
        "t_tf": 4.0,
        "predicted_latency": 10.0,
        "simulated_makespan": 10.0 / efficiency,
        "overlap_efficiency": efficiency,
        "slowdown_vs_model": 1.0 / efficiency,
        "utilisation": {"cpu": 0.8, "fpga": 0.3},
        "meta": {"n": 30000, "b": 3000, "p": 6, "partition": {"b_p": 1920, "b_f": 1080}, **meta},
    }


# ----------------------------------------------------------------- append


def test_append_assigns_schema_seq_ts(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    first = ledger.append(design_run_entry(_overlap_record(), git_sha="abc"))
    second = ledger.append(design_run_entry(_overlap_record(), git_sha="abc"))
    assert first["schema"] == LEDGER_SCHEMA == 7
    assert (first["seq"], second["seq"]) == (1, 2)
    assert first["ts"].endswith("Z")
    # seq survives a fresh RunLedger over the same file
    third = RunLedger(tmp_path / "ledger.jsonl").append(
        design_run_entry(_overlap_record(), git_sha="abc")
    )
    assert third["seq"] == 3


def test_append_rejects_unknown_kind(tmp_path):
    with pytest.raises(LedgerError, match="unknown ledger entry kind"):
        RunLedger(tmp_path / "l.jsonl").append({"kind": "mystery"})


def test_directory_path_uses_default_filename(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append(design_run_entry(_overlap_record(), git_sha="abc"))
    assert (tmp_path / "ledger.jsonl").is_file()


# ------------------------------------------------------------------- read


def test_entries_filters_by_app_and_kind(tmp_path):
    ledger = RunLedger(tmp_path / "l.jsonl")
    ledger.append(design_run_entry(_overlap_record("lu"), git_sha="abc"))
    ledger.append(design_run_entry(_overlap_record("fw"), git_sha="abc"))
    ledger.append(experiments_entry([("fig5", True)], git_sha="abc"))
    assert len(ledger.entries()) == 3
    assert [e["app"] for e in ledger.entries(app="lu")] == ["lu"]
    assert [e["kind"] for e in ledger.entries(kind="experiments")] == ["experiments"]


def test_malformed_line_raises_with_line_number(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger = RunLedger(path)
    ledger.append(design_run_entry(_overlap_record(), git_sha="abc"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(LedgerError, match=r"l\.jsonl:2: malformed"):
        ledger.entries()


def test_newer_schema_rejected(tmp_path):
    path = tmp_path / "l.jsonl"
    path.write_text(json.dumps({"kind": "design_run", "schema": 99, "seq": 1}) + "\n")
    with pytest.raises(LedgerError, match="unsupported ledger schema 99"):
        RunLedger(path).entries()


def test_resolve_by_seq_index_and_latest(tmp_path):
    ledger = RunLedger(tmp_path / "l.jsonl")
    for eff in (0.9, 0.92, 0.94):
        ledger.append(design_run_entry(_overlap_record(efficiency=eff), git_sha="abc"))
    assert ledger.resolve(2)["measured"]["overlap_efficiency"] == 0.92
    assert ledger.resolve("latest")["seq"] == 3
    assert ledger.resolve(-1)["seq"] == 3
    assert ledger.resolve(-3)["seq"] == 1
    with pytest.raises(LedgerError, match="no entry with seq 9"):
        ledger.resolve(9)
    with pytest.raises(LedgerError, match="bad entry reference"):
        ledger.resolve("newest")


def test_resolve_on_empty_ledger(tmp_path):
    with pytest.raises(LedgerError, match="is empty"):
        RunLedger(tmp_path / "l.jsonl").resolve("latest")


# --------------------------------------------------------------- builders


def test_design_run_entry_extracts_manifest_fields():
    entry = design_run_entry(
        _overlap_record(gflops=18.5), preset="xt3", source="ci", git_sha="deadbeef",
        des={"events_fired": 1000, "events_per_s": 5e5},
        critical_path={"dominant": "cpu"}, note="hello",
    )
    assert entry["kind"] == "design_run"
    assert entry["preset"] == "xt3"
    assert entry["git_sha"] == "deadbeef"
    assert entry["params"] == {"n": 30000, "b": 3000, "p": 6}
    assert entry["partition"] == {"b_p": 1920, "b_f": 1080}
    assert entry["predicted"]["t_tp"] == 10.0
    assert entry["measured"]["gflops"] == 18.5
    assert entry["des"]["events_per_s"] == 5e5
    assert entry["critical_path"]["dominant"] == "cpu"
    assert entry["note"] == "hello"


def test_design_run_entry_rejects_non_overlap():
    with pytest.raises(LedgerError, match="not an overlap record"):
        design_run_entry({"kind": "header"})


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedface")
    assert current_git_sha() == "feedface"
    assert design_run_entry(_overlap_record())["git_sha"] == "feedface"


def test_entries_from_metrics_requires_overlap_records():
    with pytest.raises(LedgerError, match="no overlap records"):
        entries_from_metrics([{"kind": "header", "schema": 1}])


def test_entries_from_metrics_from_real_lu_run(tmp_path, monkeypatch):
    """End-to-end: instrumented LU run -> metrics file -> ledger manifest."""
    monkeypatch.setenv("REPRO_GIT_SHA", "cafe0001")
    design = LuDesign(cray_xd1(), n=6000, b=3000)
    registry = MetricsRegistry()
    report = design.overlap_report(registry=registry)
    path = write_metrics_jsonl(
        tmp_path / "m.jsonl", registry, overlap=[report],
        extra={"app": "lu", "preset": "xd1"},
    )
    entries = entries_from_metrics(read_metrics_jsonl(path), source="test")
    assert len(entries) == 1
    entry = entries[0]
    assert entry["app"] == "lu"
    assert entry["preset"] == "xd1"  # seeded by the metrics header
    assert entry["git_sha"] == "cafe0001"
    # the design's partition decisions flow through to the manifest
    assert entry["partition"]["b_p"] == design.plan.partition.b_p
    assert entry["partition"]["b_f"] == design.plan.partition.b_f
    assert entry["partition"]["l"] == design.plan.balance.l
    assert entry["measured"]["overlap_efficiency"] == report.overlap_efficiency
    # and the whole thing appends + reads back unchanged
    ledger = RunLedger(tmp_path / "l.jsonl")
    ledger.append(entry)
    (back,) = ledger.entries()
    assert back["partition"] == entry["partition"]


def test_experiments_and_bench_entries():
    exp = experiments_entry(
        [("fig5", True), ("fig9-lu", False)], sim_points=40, git_sha="abc"
    )
    assert exp["kind"] == "experiments"
    assert (exp["passed"], exp["failed"]) == (1, 1)
    assert exp["sim_points"] == 40
    good = bench_entry(
        {"timeouts": {"measured": 1e6, "baseline": 1e6, "status": "ok"}},
        tolerance=0.02, git_sha="abc",
    )
    assert good["ok"] is True
    bad = bench_entry(
        {"timeouts": {"measured": 1.0, "baseline": 1e6, "status": "regression"}},
        git_sha="abc",
    )
    assert bad["ok"] is False


# ------------------------------------------------- schema 3 / fault runs


def _fault_result(app="lu", scenario="degraded-link", policy="repartition"):
    """A minimal FaultRunResult.to_dict()-shaped dict."""
    return {
        "app": app,
        "preset": "xd1",
        "scenario": {"name": scenario, "seed": 0, "events": [], "bursts": []},
        "policy": policy,
        "p": 6,
        "p_effective": 6,
        "nominal_makespan": 10.0,
        "nominal_efficiency": 1.1,
        "nominal_partition": {"b_p": 1920, "b_f": 1080},
        "partition": {"b_p": 1888, "b_f": 1112},
        "predicted_latency": 10.0,
        "faulted_makespan": 10.2,
        "faulted_efficiency": 1.08,
        "makespan_inflation": 1.02,
        "efficiency_retention": 0.982,
        "failed": False,
        "failure": None,
        "recovery_latency": 0.0,
        "attribution": {"term": "t_comm", "gloss": "Eq. (2)/(4) network term", "inflation": {}},
        "injected": [],
    }


def test_fault_run_entry_builds_schema3_manifest(tmp_path):
    from repro.obs import fault_run_entry

    entry = fault_run_entry(_fault_result(), git_sha="abc", note="campaign 1")
    assert entry["kind"] == "fault_run"
    assert entry["scenario"]["name"] == "degraded-link"
    assert entry["resilience"]["efficiency_retention"] == 0.982
    assert entry["measured"]["makespan"] == 10.2
    assert entry["note"] == "campaign 1"
    ledger = RunLedger(tmp_path / "l.jsonl")
    appended = ledger.append(entry)
    assert appended["schema"] == LEDGER_SCHEMA == 7
    (back,) = ledger.entries(kind="fault_run")
    assert back["attribution"]["term"] == "t_comm"


def test_fault_run_entry_validates_required_fields():
    from repro.obs import fault_run_entry

    with pytest.raises(LedgerError, match="missing 'app'"):
        fault_run_entry({"scenario": {"name": "x"}, "policy": "fail-fast"})
    with pytest.raises(LedgerError, match="scenario"):
        fault_run_entry({"app": "lu", "scenario": "not-a-dict", "policy": "fail-fast"})


def test_mixed_schema_ledger_reads_and_diffs_cleanly(tmp_path):
    """Schema-2 through schema-6 entries written by older code still
    load, list, resolve and diff next to entries written at the current
    schema 7."""
    from repro.obs import fault_run_entry, render_diff

    path = tmp_path / "l.jsonl"
    schema2 = {
        "kind": "design_run", "app": "lu", "preset": "xd1", "schema": 2,
        "seq": 1, "ts": "2026-01-01T00:00:00Z", "git_sha": "old",
        "params": {"n": 30000}, "partition": {"b_p": 1920, "b_f": 1080},
        "predicted": {"latency": 10.0},
        "measured": {"makespan": 9.0, "overlap_efficiency": 1.1},
    }
    schema3 = dict(
        fault_run_entry(_fault_result(), git_sha="mid"),
        schema=3, seq=2, ts="2026-02-01T00:00:00Z",
    )
    schema4 = dict(
        fault_run_entry(_fault_result(), git_sha="mid2"),
        schema=4, seq=3, ts="2026-03-01T00:00:00Z",
    )
    schema5 = dict(
        fault_run_entry(_fault_result(), git_sha="mid3"),
        schema=5, seq=4, ts="2026-04-01T00:00:00Z",
    )
    schema6 = dict(
        fault_run_entry(_fault_result(), git_sha="mid4"),
        schema=6, seq=5, ts="2026-05-01T00:00:00Z",
    )
    path.write_text(
        json.dumps(schema2, sort_keys=True) + "\n"
        + json.dumps(schema3, sort_keys=True) + "\n"
        + json.dumps(schema4, sort_keys=True) + "\n"
        + json.dumps(schema5, sort_keys=True) + "\n"
        + json.dumps(schema6, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    ledger = RunLedger(path)
    new = ledger.append(fault_run_entry(_fault_result(), git_sha="new"))
    entries = ledger.entries()
    assert [e["schema"] for e in entries] == [2, 3, 4, 5, 6, 7]
    assert new["seq"] == 6  # seq continues across the schema bump
    assert render_diff(entries[0], entries[1])  # mixed-kind diff renders
    assert render_diff(entries[4], entries[5])  # schema 6 vs 7 diff renders
    assert ledger.entries(kind="design_run") == [entries[0]]
    assert ledger.entries(kind="fault_run") == entries[1:]
    assert ledger.resolve(1)["schema"] == 2
    assert ledger.resolve("latest")["schema"] == 7


# ------------------------------------------------- schema 4 / campaigns


def _campaign_manifest():
    """A minimal run_campaign()-shaped manifest."""
    return {
        "kind": "campaign",
        "manifest_schema": 1,
        "preset": "xd1",
        "spec": {"apps": ["lu"], "preset": "xd1", "replicates": 3, "seed": 0},
        "replicates": 3,
        "points": 3,
        "failures": 0,
        "cells": {
            "lu@xd1/nominal": {
                "app": "lu",
                "preset": "xd1",
                "replicates": 3,
                "completed": 3,
                "failures": 0,
                "makespan": {"samples": [9.9, 10.0, 10.1], "median": 10.0},
                "efficiency": {"samples": [1.1, 1.1, 1.1], "median": 1.1},
            }
        },
    }


def test_campaign_entry_builds_schema4_manifest(tmp_path):
    from repro.obs import campaign_entry

    entry = campaign_entry(_campaign_manifest(), git_sha="abc", note="nightly")
    assert entry["kind"] == "campaign"
    assert entry["app"] == "campaign"
    assert entry["preset"] == "xd1"
    assert entry["manifest_schema"] == 1
    assert entry["replicates"] == 3
    assert entry["cells"]["lu@xd1/nominal"]["makespan"]["median"] == 10.0
    assert entry["note"] == "nightly"
    ledger = RunLedger(tmp_path / "l.jsonl")
    appended = ledger.append(entry)
    assert appended["schema"] == LEDGER_SCHEMA == 7
    (back,) = ledger.entries(kind="campaign")
    assert back["cells"] == entry["cells"]


def test_campaign_entry_validates_manifest():
    from repro.obs import campaign_entry

    with pytest.raises(LedgerError, match="not a campaign manifest"):
        campaign_entry({"kind": "design_run"})
    with pytest.raises(LedgerError, match="missing 'cells'"):
        campaign_entry({"kind": "campaign", "spec": {}})


def test_campaign_check_entry_roundtrips(tmp_path):
    from repro.obs import campaign_check_entry

    comparison = {
        "kind": "campaign_check",
        "preset": "xd1",
        "alpha": 0.05,
        "effect_threshold": 0.02,
        "verdict": "fail",
        "flagged": ["lu@xd1/nominal"],
        "cells": {
            "lu@xd1/nominal": {
                "verdict": "fail", "p_value": 0.002, "median_shift": 0.21,
            }
        },
    }
    entry = campaign_check_entry(comparison, git_sha="abc")
    assert entry["kind"] == "campaign_check"
    assert entry["verdict"] == "fail"
    assert entry["flagged"] == ["lu@xd1/nominal"]
    ledger = RunLedger(tmp_path / "l.jsonl")
    ledger.append(entry)
    (back,) = ledger.entries(kind="campaign_check")
    assert back["cells"]["lu@xd1/nominal"]["p_value"] == 0.002

    with pytest.raises(LedgerError, match="not a campaign comparison"):
        campaign_check_entry({"kind": "campaign", "cells": {}})
    with pytest.raises(LedgerError, match="missing 'cells'"):
        campaign_check_entry({"kind": "campaign_check"})


def test_ledger_ts_env_override(tmp_path, monkeypatch):
    from repro.obs.ledger import LEDGER_TS_ENV_VAR

    monkeypatch.setenv(LEDGER_TS_ENV_VAR, "1970-01-01T00:00:00Z")
    ledger = RunLedger(tmp_path / "l.jsonl")
    entry = ledger.append(experiments_entry([("fig5", True)], git_sha="abc"))
    assert entry["ts"] == "1970-01-01T00:00:00Z"


# ------------------------------------------------ schema 5 / explanations


def _explain_manifest():
    """A minimal build_explain()-shaped manifest."""
    return {
        "kind": "explain",
        "explain_schema": 1,
        "cell": "lu@xd1/nominal",
        "app": "lu",
        "preset": "xd1",
        "scenario_name": "nominal",
        "replicate": 2,
        "seeds": {"baseline": 11, "current": 11},
        "delta": {"makespan_s": 2.9, "relative": 0.0247},
        "blame": [
            {"resource": "fpga", "baseline_s": 100.0, "current_s": 102.9,
             "delta_s": 2.9, "share": 1.0,
             "term": "FPGA compute T_f (Eqs. 1, 2, 4, 6)"},
        ],
        "top_blame": "fpga",
        "top_term": "FPGA compute T_f (Eqs. 1, 2, 4, 6)",
        "verdict": "model",
    }


def test_explain_entry_builds_schema5_manifest(tmp_path):
    from repro.obs import explain_entry

    entry = explain_entry(_explain_manifest(), git_sha="abc", note="ci")
    assert entry["kind"] == "explain"
    assert entry["cell"] == "lu@xd1/nominal"
    assert entry["app"] == "lu"
    assert entry["verdict"] == "model"
    assert entry["top_blame"] == "fpga"
    assert entry["explain"]["blame"][0]["delta_s"] == 2.9
    assert entry["note"] == "ci"
    ledger = RunLedger(tmp_path / "l.jsonl")
    appended = ledger.append(entry)
    assert appended["schema"] == LEDGER_SCHEMA == 7
    (back,) = ledger.entries(kind="explain")
    assert back["explain"] == entry["explain"]


def test_explain_entry_validates_manifest():
    from repro.obs import explain_entry

    with pytest.raises(LedgerError, match="not an explain manifest"):
        explain_entry({"kind": "campaign"})
    with pytest.raises(LedgerError, match="blame"):
        explain_entry({"kind": "explain", "cell": "x", "verdict": "model"})


def test_campaign_entry_carries_workers_telemetry(tmp_path):
    from repro.obs import campaign_entry

    workers = {
        "executor": {"mode": "parallel", "workers": 2, "tasks": 8, "chunks": 8},
        "cache": {"lookups": 8, "hits": 4, "misses": 4, "puts": 4, "evictions": 0},
        "cache_hit_rate": 0.5,
    }
    entry = campaign_entry(_campaign_manifest(), workers=workers)
    assert entry["workers"]["executor"]["workers"] == 2
    # The embedded manifest stays telemetry-free (bitwise-deterministic).
    assert "workers" not in entry["cells"]["lu@xd1/nominal"]
    no_telemetry = campaign_entry(_campaign_manifest())
    assert "workers" not in no_telemetry
    empty = campaign_entry(_campaign_manifest(), workers={})
    assert "workers" not in empty


def test_old_reader_rejects_schema5_explain_lines(tmp_path, monkeypatch):
    """A schema-4 reader must refuse schema-5 lines loudly, not misread
    them."""
    import repro.obs.ledger as ledger_mod
    from repro.obs import explain_entry

    path = tmp_path / "l.jsonl"
    RunLedger(path).append(explain_entry(_explain_manifest(), git_sha="x"))
    monkeypatch.setattr(ledger_mod, "LEDGER_SCHEMA", 4)
    with pytest.raises(LedgerError, match="unsupported ledger schema"):
        RunLedger(path).entries()


# ----------------------------------------------------- schema 6 / tune


def _tune_manifest():
    """A minimal run_tune()-shaped manifest."""
    point = {"b_f": 1000}
    objectives = {
        "gflops": 28.67, "latency": 1.88,
        "slice_utilisation": 0.978, "freq_mhz": 130.0,
    }
    return {
        "kind": "tune",
        "manifest_schema": 1,
        "app": "block_mm",
        "preset": "xd1",
        "spec": {
            "space": {"kind": "block_mm", "machine": "xd1",
                      "fixed": {"b": 3000, "k": 8}, "axes": {"b_f": [0, 1000]}},
            "seed": 0, "eta": 4, "refine": 1,
        },
        "space": {"size": 2, "grid_size": 2, "infeasible": 0, "axes": ["b_f"]},
        "budget": {"des": 1, "des_used": 1},
        "evals": {"analytic": 2, "des": 1},
        "exhaustive_des": 2,
        "savings": {"des_evals_saved": 1, "fraction_of_exhaustive": 0.5},
        "incumbent": {"point": point, "objectives": objectives, "fidelity": "des"},
        "front": [{"point": point, "objectives": objectives, "fidelity": "des"}],
        "rungs": [
            {"rung": 0, "fidelity": "analytic", "evaluated": 2, "kept": 1,
             "best": {"point": point, "gflops": 28.67}},
        ],
        "objectives": {"gflops": "max", "slice_utilisation": "min"},
    }


def test_tune_entry_builds_schema6_manifest(tmp_path):
    from repro.obs import tune_entry

    entry = tune_entry(_tune_manifest(), git_sha="abc", note="ci")
    assert entry["kind"] == "tune"
    assert entry["app"] == "block_mm"
    assert entry["preset"] == "xd1"
    assert entry["incumbent"]["point"] == {"b_f": 1000}
    assert entry["front"][0]["objectives"]["gflops"] == 28.67
    assert entry["budget"] == {"des": 1, "des_used": 1}
    assert entry["exhaustive_des"] == 2
    assert entry["savings"]["fraction_of_exhaustive"] == 0.5
    assert entry["note"] == "ci"
    ledger = RunLedger(tmp_path / "l.jsonl")
    appended = ledger.append(entry)
    assert appended["schema"] == LEDGER_SCHEMA == 7
    (back,) = ledger.entries(kind="tune")
    assert back["front"] == entry["front"]


def test_tune_entry_validates_manifest():
    from repro.obs import tune_entry

    with pytest.raises(LedgerError, match="not a tune manifest"):
        tune_entry({"kind": "campaign"})
    broken = _tune_manifest()
    del broken["front"]
    with pytest.raises(LedgerError, match="missing 'front'"):
        tune_entry(broken)


def test_tune_entry_telemetry_rides_on_entry_only(tmp_path):
    from repro.obs import tune_entry

    workers = {"executor": {"mode": "parallel", "workers": 4, "tasks": 3}}
    entry = tune_entry(_tune_manifest(), workers=workers)
    assert entry["workers"]["executor"]["workers"] == 4
    assert "workers" not in tune_entry(_tune_manifest())


def test_old_reader_rejects_schema6_tune_lines(tmp_path, monkeypatch):
    """A schema-5 reader must refuse schema-6 lines loudly, not misread
    them."""
    import repro.obs.ledger as ledger_mod
    from repro.obs import tune_entry

    path = tmp_path / "l.jsonl"
    entry = dict(tune_entry(_tune_manifest(), git_sha="x"), schema=6, seq=1,
                 ts="2026-01-01T00:00:00Z")
    path.write_text(json.dumps(entry, sort_keys=True) + "\n", encoding="utf-8")
    monkeypatch.setattr(ledger_mod, "LEDGER_SCHEMA", 5)
    with pytest.raises(LedgerError, match="unsupported ledger schema"):
        RunLedger(path).entries()


# -------------------------------------------------- schema 7 / service


def _old_service_line(seq):
    """A schema-7 ``service`` line as the removed job server wrote it."""
    return {
        "kind": "service", "app": "service", "source": "service",
        "schema": 7, "seq": seq, "ts": "2026-06-01T00:00:00Z",
        "git_sha": "old", "job": "j-000001", "job_kind": "design",
        "outcome": "computed", "key": "ab" * 32, "priority": "default",
        "client": "cli", "queue_wait_s": 0.002, "run_s": 0.41,
        "attempts": 1, "dedup_count": 2, "result_hash": "cd" * 32,
    }


def test_old_service_lines_still_read_but_are_no_longer_written(tmp_path):
    """Schema-7 ``service`` lines from existing ledgers list, resolve,
    diff and render (the panels skip them); new ones are refused."""
    from repro.obs import fault_run_entry, render_ascii, render_diff, render_html

    path = tmp_path / "l.jsonl"
    path.write_text(json.dumps(_old_service_line(1), sort_keys=True) + "\n",
                    encoding="utf-8")
    ledger = RunLedger(path)
    ledger.append(fault_run_entry(_fault_result(), git_sha="new"))
    entries = ledger.entries()
    assert [e["kind"] for e in entries] == ["service", "fault_run"]
    assert ledger.entries(kind="service") == [entries[0]]
    assert ledger.resolve(1)["job"] == "j-000001"
    assert render_diff(entries[0], entries[1])
    text = render_ascii(entries)
    html = render_html(entries)
    assert "j-000001" not in text and "j-000001" not in html
    with pytest.raises(LedgerError, match="unknown ledger entry kind 'service'"):
        ledger.append(_old_service_line(3))
    assert len(ledger.entries()) == 2


def test_old_reader_rejects_schema7_service_lines(tmp_path, monkeypatch):
    """A schema-6 reader must refuse schema-7 lines loudly, not misread
    them.  Schema 7 introduced the ``service`` kind, which is no longer
    written, so any surviving kind stamped 7 stands in for it."""
    import repro.obs.ledger as ledger_mod
    from repro.obs import fault_run_entry

    path = tmp_path / "l.jsonl"
    RunLedger(path).append(fault_run_entry(_fault_result(), git_sha="x"))
    monkeypatch.setattr(ledger_mod, "LEDGER_SCHEMA", 6)
    with pytest.raises(LedgerError, match="unsupported ledger schema"):
        RunLedger(path).entries()
