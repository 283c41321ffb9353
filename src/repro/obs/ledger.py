"""Append-only, schema-versioned run ledger (``LEDGER_SCHEMA = 7``).

Every instrumented run -- an LU/FW/MM design run, an experiments sweep,
a ``bench_perf_regression`` baseline check, a fault-injection run, a
statistical campaign, a campaign regression check, a regression
*explanation* (paired-trace blame diff) or a guided-search *tune* run
(successive-halving manifest with its Pareto front) -- can append one
*manifest* line to a JSON-lines ledger file.  A manifest records everything needed
to compare runs across commits and machines: git SHA, machine preset,
the partition decisions ``(b_p, b_f, l)`` / ``(l1, l2)`` / ``(m_f, r)``,
the model prediction ``max{T_tp, T_tf}``, the simulated makespan,
``overlap_efficiency``, per-resource utilisation, DES throughput, and a
critical-path attribution summary.

The ledger is the persistence layer of the model-fidelity observatory:
:mod:`repro.obs.fidelity` analyses prediction-error series across
entries, and :mod:`repro.obs.dashboard` renders them.  Schema
documentation lives in ``docs/observability.md``.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of :mod:`repro` (stdlib only).
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Optional

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerError",
    "RunLedger",
    "current_git_sha",
    "design_run_entry",
    "entries_from_metrics",
    "experiments_entry",
    "bench_entry",
    "fault_run_entry",
    "campaign_entry",
    "campaign_check_entry",
    "explain_entry",
    "tune_entry",
]

#: Current ledger schema version.  Schema 1 was the metrics-file format
#: (``METRICS_SCHEMA``); the ledger introduced the cross-run manifest as
#: schema 2; schema 3 added the ``fault_run`` kind (resilience manifests
#: from :mod:`repro.faults`); schema 4 adds the ``campaign`` and
#: ``campaign_check`` kinds (replicated-scenario distribution manifests
#: and statistical regression verdicts from :mod:`repro.campaign`);
#: schema 5 adds the ``explain`` kind (paired-trace blame manifests from
#: :mod:`repro.obs.explain` / :mod:`repro.campaign.explain`) and the
#: optional ``workers`` telemetry block on ``campaign`` entries;
#: schema 6 adds the ``tune`` kind (guided-search manifests from
#: :mod:`repro.tune`: successive-halving rungs, the incumbent design
#: and the Pareto front over GFLOPS / slice utilisation / resilience);
#: schema 7 added the ``service`` kind (job manifests from a co-design
#: job server that has since been removed).  Nothing writes ``service``
#: entries any more and :meth:`RunLedger.append` refuses them, but the
#: version stays 7 so existing schema-7 files -- ``service`` lines
#: included -- remain readable: :meth:`RunLedger.entries` accepts any
#: ``schema <= 7`` and does not check kinds.  Bump on breaking changes
#: to the entry layout.
LEDGER_SCHEMA = 7

#: Entry kinds the observatory understands.  ``design_run`` entries feed
#: the fidelity analysis, ``fault_run`` entries feed the resilience
#: report, ``campaign``/``campaign_check``/``explain`` entries feed the
#: campaign observatory, ``tune`` entries feed the autotuner's Pareto
#: panel; the others are audit records.
ENTRY_KINDS = (
    "design_run", "experiments", "bench", "fault_run", "campaign",
    "campaign_check", "explain", "tune",
)

#: Environment override for :func:`current_git_sha` (useful in CI and
#: in tests where the checkout SHA is not the interesting identity).
GIT_SHA_ENV_VAR = "REPRO_GIT_SHA"

#: Environment override for entry timestamps.  CI's bitwise-determinism
#: gate writes the same sweep twice and compares the ledgers byte for
#: byte; pinning the timestamp removes the one legitimately varying
#: field.
LEDGER_TS_ENV_VAR = "REPRO_LEDGER_TS"


class LedgerError(ValueError):
    """A ledger file or entry violates the schema."""


def current_git_sha(cwd: Optional[str | Path] = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout.

    ``REPRO_GIT_SHA`` overrides the lookup entirely (no subprocess).
    """
    env = os.environ.get(GIT_SHA_ENV_VAR)
    if env:
        return env
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def _utc_now_iso() -> str:
    env = os.environ.get(LEDGER_TS_ENV_VAR)
    if env:
        return env
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class RunLedger:
    """An append-only JSON-lines ledger of run manifests.

    One entry per line; ``append`` assigns the schema version, a
    monotonically increasing ``seq`` and a UTC timestamp, then appends
    atomically-enough for a single writer (one ``write`` of one line in
    append mode).  Existing lines are never rewritten.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            self.path = self.path / "ledger.jsonl"

    # -- write ----------------------------------------------------------

    def append(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Append one entry; fills ``schema``/``seq``/``ts``; returns it."""
        kind = entry.get("kind")
        if kind not in ENTRY_KINDS:
            raise LedgerError(f"unknown ledger entry kind {kind!r}; expected one of {ENTRY_KINDS}")
        entry = dict(entry)
        entry["schema"] = LEDGER_SCHEMA
        entry.setdefault("ts", _utc_now_iso())
        entry["seq"] = self._next_seq()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def _next_seq(self) -> int:
        if not self.path.is_file():
            return 1
        last = 0
        for entry in self.entries():
            last = max(last, int(entry.get("seq", 0)))
        return last + 1

    # -- read -----------------------------------------------------------

    def entries(
        self, app: Optional[str] = None, kind: Optional[str] = None
    ) -> list[dict[str, Any]]:
        """All entries in append order, optionally filtered by app/kind.

        Raises :class:`LedgerError` naming the line for malformed JSON
        or a schema version newer than this reader understands.
        """
        if not self.path.is_file():
            return []
        out: list[dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(f"{self.path}:{lineno}: malformed ledger line ({exc})") from exc
                if not isinstance(entry, dict):
                    raise LedgerError(f"{self.path}:{lineno}: ledger line is not an object")
                schema = entry.get("schema")
                if not isinstance(schema, int) or schema > LEDGER_SCHEMA:
                    raise LedgerError(
                        f"{self.path}:{lineno}: unsupported ledger schema {schema!r} "
                        f"(this reader understands <= {LEDGER_SCHEMA})"
                    )
                if app is not None and entry.get("app") != app:
                    continue
                if kind is not None and entry.get("kind") != kind:
                    continue
                out.append(entry)
        return out

    def resolve(self, ref: str | int) -> dict[str, Any]:
        """One entry by reference: a ``seq`` number, a negative index
        from the end (``-1`` is the latest), or ``"latest"``."""
        entries = self.entries()
        if not entries:
            raise LedgerError(f"ledger {self.path} is empty")
        if ref == "latest":
            return entries[-1]
        try:
            num = int(ref)
        except (TypeError, ValueError):
            raise LedgerError(f"bad entry reference {ref!r}: expected a seq number, "
                              f"a negative index, or 'latest'") from None
        if num < 0:
            try:
                return entries[num]
            except IndexError:
                raise LedgerError(f"index {num} out of range ({len(entries)} entries)") from None
        for entry in entries:
            if entry.get("seq") == num:
                return entry
        raise LedgerError(f"no entry with seq {num} in {self.path}")

    def __len__(self) -> int:
        return len(self.entries())


# ------------------------------------------------------------- builders


def design_run_entry(
    overlap_record: dict[str, Any],
    *,
    preset: Optional[str] = None,
    source: str = "cli",
    git_sha: Optional[str] = None,
    des: Optional[dict[str, Any]] = None,
    critical_path: Optional[dict[str, Any]] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``design_run`` manifest from one metrics-file overlap record.

    ``overlap_record`` is the ``kind == "overlap"`` dict written by
    :meth:`repro.obs.overlap.OverlapReport.to_dict` (meta carries the
    run parameters and the design's partition decisions).
    """
    if overlap_record.get("kind") != "overlap":
        raise LedgerError(f"not an overlap record: kind={overlap_record.get('kind')!r}")
    meta = overlap_record.get("meta") or {}
    params = {
        key: meta[key] for key in ("n", "b", "p", "iterations_run") if meta.get(key) is not None
    }
    predicted = {
        "t_tp": overlap_record.get("t_tp"),
        "t_tf": overlap_record.get("t_tf"),
        "latency": overlap_record.get("predicted_latency"),
    }
    if meta.get("model_latency") is not None:
        predicted["model_latency"] = meta["model_latency"]
    measured = {
        "makespan": overlap_record.get("simulated_makespan"),
        "overlap_efficiency": overlap_record.get("overlap_efficiency"),
        "slowdown_vs_model": overlap_record.get("slowdown_vs_model"),
    }
    if meta.get("gflops") is not None:
        measured["gflops"] = meta["gflops"]
    entry: dict[str, Any] = {
        "kind": "design_run",
        "app": overlap_record.get("app"),
        "preset": preset or "xd1",
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "params": params,
        "partition": dict(meta.get("partition") or {}),
        "predicted": predicted,
        "measured": measured,
        "utilisation": dict(overlap_record.get("utilisation") or {}),
    }
    if des:
        entry["des"] = dict(des)
    if critical_path:
        entry["critical_path"] = dict(critical_path)
    if note:
        entry["note"] = note
    return entry


def _des_stats(records: Iterable[dict[str, Any]], app: str) -> dict[str, Any]:
    """DES counters for ``app`` from metrics records (events, throughput)."""
    out: dict[str, Any] = {}
    for rec in records:
        if rec.get("labels", {}).get("app") != app:
            continue
        name = rec.get("name")
        if name == "des.events_fired":
            out["events_fired"] = rec.get("value")
        elif name == "des.events_per_s":
            out["events_per_s"] = rec.get("value")
    return out


def entries_from_metrics(
    records: list[dict[str, Any]],
    *,
    preset: Optional[str] = None,
    source: str = "cli",
    git_sha: Optional[str] = None,
    critical_paths: Optional[dict[str, dict[str, Any]]] = None,
    note: Optional[str] = None,
) -> list[dict[str, Any]]:
    """``design_run`` manifests for every overlap record in a metrics file.

    ``records`` is the list from :func:`repro.obs.export.read_metrics_jsonl`;
    the header's ``preset`` (when recorded there) seeds the default.
    ``critical_paths`` maps app name -> critical-path summary dict (as
    produced by :meth:`repro.obs.critical_path.CriticalPathReport.to_dict`).
    """
    header = next((r for r in records if r.get("kind") == "header"), {})
    preset = preset or header.get("preset") or "xd1"
    entries = []
    for rec in records:
        if rec.get("kind") != "overlap":
            continue
        app = rec.get("app")
        entries.append(
            design_run_entry(
                rec,
                preset=preset,
                source=source,
                git_sha=git_sha,
                des=_des_stats(records, app) or None,
                critical_path=(critical_paths or {}).get(app),
                note=note,
            )
        )
    if not entries:
        raise LedgerError("no overlap records in metrics file; run with --metrics-out first")
    return entries


def experiments_entry(
    results: Iterable[tuple[str, bool]],
    *,
    sim_points: Optional[int] = None,
    preset: str = "xd1",
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
    fast_path: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """An ``experiments`` manifest: which reproduction checks passed.

    ``fast_path`` (optional) records analytic fast-path coverage for the
    run: ``{"analytic": n, "des": m, "fallback": {reason: count}}`` as
    produced by :func:`repro.sim.analytic.fastpath_summary`.
    """
    checks = {name: bool(ok) for name, ok in results}
    entry: dict[str, Any] = {
        "kind": "experiments",
        "app": "experiments",
        "preset": preset,
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "checks": checks,
        "passed": sum(checks.values()),
        "failed": sum(1 for ok in checks.values() if not ok),
    }
    if sim_points is not None:
        entry["sim_points"] = sim_points
    if fast_path is not None:
        entry["fast_path"] = fast_path
    if note:
        entry["note"] = note
    return entry


def fault_run_entry(
    result: dict[str, Any],
    *,
    preset: Optional[str] = None,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``fault_run`` manifest from one fault-run result dict.

    ``result`` is the dict from
    :meth:`repro.faults.adapt.FaultRunResult.to_dict` (this module stays
    stdlib-only, so it takes the plain dict rather than the object).
    The manifest separates the nominal baseline, the faulted measurement
    and the resilience summary so the dashboard and ``repro faults
    report`` can consume it without re-deriving anything.
    """
    for key in ("app", "scenario", "policy"):
        if not result.get(key):
            raise LedgerError(f"fault-run result is missing {key!r}")
    scenario = result["scenario"]
    if not isinstance(scenario, dict) or not scenario.get("name"):
        raise LedgerError("fault-run result's scenario must be a dict with a name")
    entry: dict[str, Any] = {
        "kind": "fault_run",
        "app": result["app"],
        "preset": preset or result.get("preset") or "xd1",
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "scenario": dict(scenario),
        "policy": result["policy"],
        "p": result.get("p"),
        "p_effective": result.get("p_effective"),
        "partition": dict(result.get("partition") or {}),
        "predicted": {"latency": result.get("predicted_latency")},
        "nominal": {
            "makespan": result.get("nominal_makespan"),
            "overlap_efficiency": result.get("nominal_efficiency"),
        },
        "measured": {
            "makespan": result.get("faulted_makespan"),
            "overlap_efficiency": result.get("faulted_efficiency"),
        },
        "resilience": {
            "makespan_inflation": result.get("makespan_inflation"),
            "efficiency_retention": result.get("efficiency_retention"),
            "recovery_latency": result.get("recovery_latency"),
            "failed": bool(result.get("failed")),
            "failure": result.get("failure"),
        },
        "attribution": dict(result.get("attribution") or {}),
    }
    if note:
        entry["note"] = note
    return entry


def bench_entry(
    outcomes: dict[str, dict[str, Any]],
    *,
    tolerance: Optional[float] = None,
    source: str = "bench",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``bench`` manifest: one baseline-check outcome per benchmark.

    ``outcomes`` maps bench name -> ``{"measured": ..., "baseline": ...,
    "status": "ok" | "regression" | "stale-baseline"}``.
    """
    statuses = {o.get("status") for o in outcomes.values()}
    entry: dict[str, Any] = {
        "kind": "bench",
        "app": "bench",
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "outcomes": outcomes,
        "ok": "regression" not in statuses,
    }
    if tolerance is not None:
        entry["tolerance"] = tolerance
    if note:
        entry["note"] = note
    return entry


def campaign_entry(
    manifest: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
    workers: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """A ``campaign`` manifest: per-cell makespan distributions.

    ``manifest`` is the dict produced by
    :func:`repro.campaign.run_campaign` (this module stays stdlib-only,
    so it takes the plain dict): a ``spec`` block (apps, preset,
    scenarios, replicates, master seed, perturbation model) and a
    ``cells`` map keyed by ``app@preset/scenario`` holding each cell's
    replicate samples, merged histogram and median/IQR/p95/p99 summary.

    ``workers`` optionally attaches executor telemetry for the run (the
    :attr:`repro.parallel.SweepExecutor.last_telemetry` dict plus cache
    stats): per-worker spans, queue waits, imbalance and stragglers.
    It rides on the ledger entry only -- never inside the campaign
    manifest itself, which must stay bitwise-deterministic.
    """
    if manifest.get("kind") != "campaign":
        raise LedgerError(f"not a campaign manifest: kind={manifest.get('kind')!r}")
    for key in ("spec", "cells"):
        if not isinstance(manifest.get(key), dict):
            raise LedgerError(f"campaign manifest is missing {key!r}")
    spec = manifest["spec"]
    entry: dict[str, Any] = {
        "kind": "campaign",
        "app": "campaign",
        "preset": spec.get("preset") or "xd1",
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "manifest_schema": manifest.get("manifest_schema"),
        "spec": dict(spec),
        "cells": dict(manifest["cells"]),
        "replicates": manifest.get("replicates"),
        "points": manifest.get("points"),
        "failures": manifest.get("failures"),
    }
    if workers:
        entry["workers"] = dict(workers)
    if note:
        entry["note"] = note
    return entry


def campaign_check_entry(
    comparison: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``campaign_check`` manifest: statistical regression verdicts.

    ``comparison`` is the dict from
    :func:`repro.campaign.compare_campaigns`: per-cell Mann-Whitney
    p-values, median shifts and pass/warn/fail verdicts for a campaign
    against a baseline campaign.
    """
    if manifest_kind := comparison.get("kind"):
        if manifest_kind != "campaign_check":
            raise LedgerError(
                f"not a campaign comparison: kind={manifest_kind!r}"
            )
    if not isinstance(comparison.get("cells"), dict):
        raise LedgerError("campaign comparison is missing 'cells'")
    entry: dict[str, Any] = {
        "kind": "campaign_check",
        "app": "campaign",
        "preset": comparison.get("preset") or "xd1",
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "verdict": comparison.get("verdict"),
        "alpha": comparison.get("alpha"),
        "effect_threshold": comparison.get("effect_threshold"),
        "cells": dict(comparison["cells"]),
        "flagged": list(comparison.get("flagged") or ()),
    }
    if note:
        entry["note"] = note
    return entry


def tune_entry(
    manifest: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
    workers: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """A ``tune`` manifest: one guided design-space search.

    ``manifest`` is the dict produced by :func:`repro.tune.run_tune`
    (this module stays stdlib-only, so it takes the plain dict): the
    search spec, rung-by-rung successive-halving summary, DES budget
    accounting, the incumbent design and the Pareto front over
    {GFLOPS, FPGA slice utilisation, resilience-under-faults}.  The
    incumbent and front are hoisted so dashboards index them without
    descending into the embedded manifest.

    ``workers`` optionally attaches executor/cache telemetry for the
    run; like campaign entries, it rides on the ledger entry only --
    the manifest itself stays bitwise-deterministic.
    """
    if manifest.get("kind") != "tune":
        raise LedgerError(f"not a tune manifest: kind={manifest.get('kind')!r}")
    for key in ("spec", "incumbent", "front", "rungs"):
        if key not in manifest:
            raise LedgerError(f"tune manifest is missing {key!r}")
    entry: dict[str, Any] = {
        "kind": "tune",
        "app": manifest.get("app"),
        "preset": manifest.get("preset") or "xd1",
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "manifest_schema": manifest.get("manifest_schema"),
        "spec": dict(manifest["spec"]),
        "space": dict(manifest.get("space") or {}),
        "budget": dict(manifest.get("budget") or {}),
        "evals": dict(manifest.get("evals") or {}),
        "exhaustive_des": manifest.get("exhaustive_des"),
        "savings": dict(manifest.get("savings") or {}),
        "incumbent": dict(manifest["incumbent"]),
        "front": list(manifest["front"]),
        "rungs": list(manifest["rungs"]),
        "objectives": dict(manifest.get("objectives") or {}),
    }
    if manifest.get("scenario") is not None:
        entry["scenario"] = dict(manifest["scenario"])
    if workers:
        entry["workers"] = dict(workers)
    if note:
        entry["note"] = note
    return entry


def explain_entry(
    manifest: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """An ``explain`` manifest: a paired-trace blame diff for one cell.

    ``manifest`` is the dict from
    :func:`repro.obs.explain.build_explain`: one flagged replicate
    re-simulated under both builds, the two critical paths diffed per
    resource class / activity phase / concrete lane, each delta glossed
    with the paper Eq-term it loads onto, plus the verdict (``model`` /
    ``improvement`` / ``inconclusive``).  The manifest is embedded
    verbatim -- it is already deterministic and self-contained -- with
    the cell identity hoisted so dashboards can index without descending.
    """
    if manifest.get("kind") != "explain":
        raise LedgerError(f"not an explain manifest: kind={manifest.get('kind')!r}")
    for key in ("cell", "blame", "verdict"):
        if key not in manifest:
            raise LedgerError(f"explain manifest is missing {key!r}")
    entry: dict[str, Any] = {
        "kind": "explain",
        "app": manifest.get("app"),
        "preset": manifest.get("preset") or "xd1",
        "cell": manifest["cell"],
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "verdict": manifest.get("verdict"),
        "top_blame": manifest.get("top_blame"),
        "explain": dict(manifest),
    }
    if note:
        entry["note"] = note
    return entry
