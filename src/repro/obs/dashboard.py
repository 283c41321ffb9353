"""Dashboard rendering for the model-fidelity observatory.

Two renderers over the same ledger content:

* :func:`render_ascii` -- a terminal/CI-log view: per app x preset
  fidelity trend (latest / mean / range / drift plus a text sparkline),
  the latest critical-path attribution per app, the latest resilience
  outcome per fault scenario (``fault_run`` entries), and the campaign
  panel: per-cell makespan distributions with drift arrows against the
  previous campaign plus the latest statistical check verdicts
  (``campaign`` / ``campaign_check`` entries), the latest regression
  explanation per cell (``explain`` entries: blame-ranked lane deltas
  with their model terms), the newest campaign's worker telemetry
  (per-worker busy bars, queue waits, stragglers, cache hit rate), and
  the guided-tuning panel: the latest ``tune`` entry per app x preset
  with its incumbent, DES-eval savings and Pareto front;
* :func:`render_html` -- a self-contained HTML page (inline CSS + SVG,
  no external assets or scripts) with the same content: a fidelity
  table with trend sparklines, per-resource critical-path bars, the
  resilience table, the campaign distribution / verdict / explain /
  worker tables, and the guided-tuning Pareto-front tables.

Both are pure functions of the ledger entries so tests can pin them;
the CLI front-end is ``repro-xd1 obs dashboard``.
"""

from __future__ import annotations

from html import escape
from typing import Any, Optional

from .critical_path import MODEL_TERMS
from .fidelity import DEFAULT_BAND, FidelityStat, fidelity_report

__all__ = ["render_ascii", "render_html", "text_sparkline"]

#: Text sparkline levels, low to high (ASCII-safe for CI logs).
_SPARK_LEVELS = " .:-=+*#@"


def text_sparkline(values: list[float], width: int = 24) -> str:
    """An ASCII sparkline of a series (newest values right-aligned)."""
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[len(_SPARK_LEVELS) // 2] * len(tail)
    top = len(_SPARK_LEVELS) - 1
    return "".join(_SPARK_LEVELS[round((v - lo) / span * top)] for v in tail)


def _latest_critical_paths(entries: list[dict[str, Any]]) -> dict[tuple[str, str], dict]:
    """Newest ``critical_path`` summary per (app, preset)."""
    out: dict[tuple[str, str], dict] = {}
    for entry in entries:
        cp = entry.get("critical_path")
        if entry.get("kind") == "design_run" and cp:
            out[(str(entry.get("app")), str(entry.get("preset")))] = cp
    return out


def _latest_fault_runs(entries: list[dict[str, Any]]) -> dict[tuple[str, str, str], dict]:
    """Newest ``fault_run`` manifest per (app, scenario, policy)."""
    out: dict[tuple[str, str, str], dict] = {}
    for entry in entries:
        if entry.get("kind") != "fault_run":
            continue
        scenario = entry.get("scenario") or {}
        key = (
            str(entry.get("app")),
            str(scenario.get("name", "?")),
            str(entry.get("policy")),
        )
        out[key] = entry
    return out


def _campaign_series(
    entries: list[dict[str, Any]],
) -> dict[str, tuple[dict, Optional[dict]]]:
    """(latest, previous) ``campaign`` entry per preset, in ledger order."""
    by_preset: dict[str, list[dict]] = {}
    for entry in entries:
        if entry.get("kind") == "campaign" and isinstance(entry.get("cells"), dict):
            by_preset.setdefault(str(entry.get("preset")), []).append(entry)
    return {
        preset: (runs[-1], runs[-2] if len(runs) > 1 else None)
        for preset, runs in by_preset.items()
    }


def _latest_campaign_check(entries: list[dict[str, Any]]) -> Optional[dict]:
    """The newest ``campaign_check`` entry, if any."""
    latest = None
    for entry in entries:
        if entry.get("kind") == "campaign_check":
            latest = entry
    return latest


def _latest_explains(entries: list[dict[str, Any]]) -> dict[str, dict]:
    """Newest ``explain`` entry per cell (schema 5), in ledger order."""
    out: dict[str, dict] = {}
    for entry in entries:
        if entry.get("kind") == "explain" and entry.get("cell"):
            out[str(entry["cell"])] = entry
    return out


def _latest_worker_telemetry(entries: list[dict[str, Any]]) -> Optional[dict]:
    """The newest ``campaign`` entry's ``workers`` telemetry block."""
    latest = None
    for entry in entries:
        if entry.get("kind") == "campaign" and isinstance(entry.get("workers"), dict):
            latest = entry["workers"]
    return latest


def _latest_tunes(entries: list[dict[str, Any]]) -> dict[tuple[str, str], dict]:
    """Newest ``tune`` entry per (app, preset) (schema 6), in ledger order."""
    out: dict[tuple[str, str], dict] = {}
    for entry in entries:
        if entry.get("kind") == "tune" and entry.get("incumbent"):
            out[(str(entry.get("app")), str(entry.get("preset")))] = entry
    return out


def _tune_point_label(point: dict[str, Any]) -> str:
    return " ".join(f"{k}={point[k]}" for k in sorted(point))


def _cell_drift(cell: dict, prev_cell: Optional[dict]) -> Optional[float]:
    """Relative median shift of a cell vs the previous campaign's cell."""
    if not prev_cell:
        return None
    cur = (cell.get("makespan") or {}).get("median")
    prev = (prev_cell.get("makespan") or {}).get("median")
    if cur is None or not prev:
        return None
    return (cur - prev) / prev


# ------------------------------------------------------------------ ASCII


def render_ascii(entries: list[dict[str, Any]], band: float = DEFAULT_BAND) -> str:
    """The terminal dashboard: fidelity trends + dominant bottlenecks."""
    stats = fidelity_report(entries, band=band)
    lines = [
        "model-fidelity observatory",
        f"  ledger entries: {len(entries)}  |  band: overlap_efficiency >= {band:.2f}",
        "",
        "fidelity (predicted max{T_tp, T_tf} vs simulated makespan):",
    ]
    if not stats:
        lines.append("  (no design_run entries yet -- record some runs first)")
    for st in stats:
        status = "ok   " if st.latest >= band else "BELOW"
        lines.append(
            f"  [{status}] {st.app}@{st.preset:<6} latest {st.latest:.4f}  "
            f"mean {st.mean:.4f}  range [{st.minimum:.4f}, {st.maximum:.4f}]  "
            f"drift {st.drift:+.4f}  n={st.count}  |{text_sparkline(st.efficiencies)}|"
        )
    cps = _latest_critical_paths(entries)
    if cps:
        lines.append("")
        lines.append("critical-path attribution (latest run per app):")
        for (app, preset), cp in sorted(cps.items()):
            dominant = cp.get("dominant", "?")
            lines.append(
                f"  {app}@{preset}: dominant {dominant} "
                f"({100 * cp.get('dominant_fraction', 0.0):.1f}% of makespan, "
                f"coverage {100 * cp.get('coverage', 0.0):.1f}%) -- "
                f"{MODEL_TERMS.get(dominant, '')}"
            )
            makespan = cp.get("makespan") or 0.0
            for res, secs in (cp.get("by_resource") or {}).items():
                share = secs / makespan if makespan > 0 else 0.0
                bar = "#" * max(1, round(share * 30)) if share > 0 else ""
                lines.append(f"    {res:<5} {100 * share:5.1f}%  {bar}")
    faults = _latest_fault_runs(entries)
    if faults:
        lines.append("")
        lines.append("resilience (latest fault run per app x scenario x policy):")
        for (app, scenario, policy), entry in sorted(faults.items()):
            res = entry.get("resilience") or {}
            if res.get("failed"):
                failure = res.get("failure") or {}
                what = failure.get("process") or failure.get("stage") or "?"
                lines.append(f"  [ABORT] {app} {scenario} / {policy}: {what}")
                continue
            retention = res.get("efficiency_retention")
            inflation = res.get("makespan_inflation")
            term = (entry.get("attribution") or {}).get("term") or "-"
            lines.append(
                f"  [ok   ] {app} {scenario} / {policy}: "
                f"retention {'-' if retention is None else format(retention, '.1%')}  "
                f"inflation {'-' if inflation is None else format(inflation, '.3f') + 'x'}  "
                f"attributed to {term}"
            )
    campaigns = _campaign_series(entries)
    if campaigns:
        lines.append("")
        lines.append("campaigns (per-cell makespan distributions, latest per preset):")
        for preset in sorted(campaigns):
            latest, previous = campaigns[preset]
            prev_cells = (previous or {}).get("cells") or {}
            lines.append(
                f"  preset {preset}: {latest.get('replicates')} replicates x "
                f"{len(latest.get('cells') or {})} cells, "
                f"{latest.get('failures', 0)} failed replicates"
            )
            for key in sorted(latest.get("cells") or {}):
                cell = latest["cells"][key]
                mk = cell.get("makespan") or {}
                drift = _cell_drift(cell, prev_cells.get(key))
                if drift is None:
                    arrow = "      -"
                else:
                    mark = "^" if drift > 0.001 else "v" if drift < -0.001 else "="
                    arrow = f"{mark}{drift:+.1%}"
                lines.append(
                    "    {key:<28} median {median}  iqr {iqr}  p95 {p95}  "
                    "n={done}/{total}  |{spark}|  drift {arrow}".format(
                        key=key,
                        median=_fmt_s(mk.get("median")),
                        iqr=_fmt_s(mk.get("iqr")),
                        p95=_fmt_s(mk.get("p95")),
                        done=cell.get("completed", 0),
                        total=cell.get("replicates", 0),
                        spark=text_sparkline([float(v) for v in mk.get("samples") or []]),
                        arrow=arrow,
                    )
                )
    check = _latest_campaign_check(entries)
    if check:
        lines.append("")
        lines.append(
            f"campaign regression check (latest): verdict {check.get('verdict')}  "
            f"alpha {check.get('alpha')}  effect {check.get('effect_threshold')}  "
            f"flagged {len(check.get('flagged') or [])}"
        )
        cells = check.get("cells") or {}
        for key in sorted(cells):
            cell = cells[key]
            verdict = str(cell.get("verdict", "?"))
            shift = cell.get("median_shift")
            p = cell.get("p_value")
            lines.append(
                "  [{mark:<4}] {key}  shift {shift}  p {p}{note}".format(
                    mark="FAIL" if verdict == "fail" else verdict,
                    key=key,
                    shift="-" if shift is None else f"{shift:+.2%}",
                    p="-" if p is None else f"{p:.4g}",
                    note=f"  ({cell['note']})" if cell.get("note") else "",
                )
            )
    explains = _latest_explains(entries)
    if explains:
        lines.append("")
        lines.append("regression explanations (latest explain per cell):")
        for key in sorted(explains):
            entry = explains[key]
            manifest = entry.get("explain") or {}
            delta = manifest.get("delta") or {}
            rel = delta.get("relative")
            lines.append(
                "  {key}: verdict {verdict}  delta {d} ({rel})  "
                "replicate {rep}".format(
                    key=key,
                    verdict=entry.get("verdict", "?"),
                    d="-" if delta.get("makespan_s") is None
                    else f"{delta['makespan_s']:+.4g}s",
                    rel="-" if rel is None else f"{rel:+.2%}",
                    rep=manifest.get("replicate", "?"),
                )
            )
            for row in (manifest.get("blame") or [])[:3]:
                share = row.get("share")
                lines.append(
                    "    blame {res:<5} {d:+.4g}s{share}  {term}".format(
                        res=row.get("resource", "?"),
                        d=row.get("delta_s", 0.0),
                        share="" if share is None else f" (share {share:.0%})",
                        term=row.get("term", ""),
                    )
                )
    tunes = _latest_tunes(entries)
    if tunes:
        lines.append("")
        lines.append("guided tuning (latest tune run per app x preset):")
        for (app, preset), entry in sorted(tunes.items()):
            inc = entry.get("incumbent") or {}
            obj = inc.get("objectives") or {}
            budget = entry.get("budget") or {}
            savings = entry.get("savings") or {}
            frac = savings.get("fraction_of_exhaustive")
            lines.append(
                "  {app}@{preset}: incumbent {pt} -> {gf:.2f} GFLOPS, "
                "{su:.1%} slices ({fid})".format(
                    app=app,
                    preset=preset,
                    pt=_tune_point_label(inc.get("point") or {}),
                    gf=obj.get("gflops", 0.0),
                    su=obj.get("slice_utilisation", 0.0),
                    fid=inc.get("fidelity", "?"),
                )
            )
            lines.append(
                "    DES evals {used}/{bud} (exhaustive {ex}, "
                "{frac} of exhaustive)  front {n} points  rungs {r}".format(
                    used=budget.get("des_used", "?"),
                    bud=budget.get("des", "?"),
                    ex=entry.get("exhaustive_des", "?"),
                    frac="-" if frac is None else f"{frac:.1%}",
                    n=len(entry.get("front") or []),
                    r=len(entry.get("rungs") or []),
                )
            )
            for row in entry.get("front") or []:
                robj = row.get("objectives") or {}
                res = robj.get("resilience")
                lines.append(
                    "    front {pt:<28} {gf:7.2f} GFLOPS  {su:.1%} slices"
                    "{res}  [{fid}]".format(
                        pt=_tune_point_label(row.get("point") or {}),
                        gf=robj.get("gflops", 0.0),
                        su=robj.get("slice_utilisation", 0.0),
                        res="" if res is None else f"  retention {res:.1%}",
                        fid=row.get("fidelity", "?"),
                    )
                )
    workers = _latest_worker_telemetry(entries)
    if workers:
        lines.append("")
        lines.append("sweep worker telemetry (latest campaign):")
        lines.extend(f"  {line}" for line in _worker_lines(workers))
    return "\n".join(lines)


def _worker_lines(workers: dict[str, Any]) -> list[str]:
    """The worker-telemetry block as plain text lines (shared by the
    ASCII dashboard and the CLI footer)."""
    ex = workers.get("executor") or {}
    out: list[str] = []
    if ex:
        out.append(
            "mode {mode}  workers {w}  tasks {t}  chunks {c}  elapsed {e}".format(
                mode=ex.get("mode", "?"),
                w=ex.get("workers", "?"),
                t=ex.get("tasks", "?"),
                c=ex.get("chunks", "?"),
                e="-" if ex.get("elapsed_s") is None else f"{ex['elapsed_s']:.3f}s",
            )
        )
    qw = ex.get("queue_wait_s") or {}
    if qw:
        stragglers = ex.get("stragglers") or []
        out.append(
            "queue wait mean {mean:.4f}s max {mx:.4f}s  imbalance {imb:.2f}x  "
            "stragglers: {st}".format(
                mean=qw.get("mean", 0.0),
                mx=qw.get("max", 0.0),
                imb=ex.get("imbalance", 1.0),
                st=", ".join(f"w{i}" for i in stragglers) if stragglers else "none",
            )
        )
    per_worker = ex.get("per_worker") or []
    busy_max = max((w.get("busy_s", 0.0) for w in per_worker), default=0.0)
    for w in per_worker:
        busy = w.get("busy_s", 0.0)
        bar = "#" * max(1, round(busy / busy_max * 24)) if busy_max > 0 else ""
        out.append(
            f"w{w.get('worker')} pid {w.get('pid')}  chunks {w.get('chunks')}  "
            f"tasks {w.get('tasks')}  busy {busy:.3f}s  |{bar}|"
        )
    cache = workers.get("cache")
    if cache:
        rate = workers.get("cache_hit_rate")
        out.append(
            "cache: {lk} lookups, {h} hits, {m} misses ({rate})".format(
                lk=cache.get("lookups", 0),
                h=cache.get("hits", 0),
                m=cache.get("misses", 0),
                rate="-" if rate is None else f"{rate:.1%} hit rate",
            )
        )
    return out


def _fmt_s(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}s"


# ------------------------------------------------------------------- HTML

_HTML_STYLE = """
:root {
  --surface: #fcfcfb; --page: #f9f9f7; --ink: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --grid: #e7e6e3; --series: #2a78d6;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --page: #0d0d0d; --ink: #ffffff; --ink-2: #c3c2b7;
    --muted: #898781; --grid: #383835; --series: #3987e5;
    --good: #0ca30c; --critical: #d03b3b;
  }
}
body { background: var(--page); color: var(--ink); margin: 2rem auto; max-width: 60rem;
       font: 14px/1.5 ui-sans-serif, system-ui, sans-serif; }
h1, h2 { font-weight: 600; } h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
.sub { color: var(--ink-2); }
table { border-collapse: collapse; width: 100%; background: var(--surface);
        border: 1px solid var(--grid); }
th, td { text-align: left; padding: 0.4rem 0.7rem; border-bottom: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; font-size: 0.85rem; }
.num { text-align: right; }
.status { font-size: 0.8rem; font-weight: 600; }
.status.ok::before { content: "\\2713 "; } .status.ok { color: var(--good); }
.status.below::before { content: "\\2717 "; } .status.below { color: var(--critical); }
.bar { height: 10px; background: var(--series); border-radius: 0 4px 4px 0; min-width: 2px; }
.bartrack { background: var(--surface); width: 180px; }
.lane { color: var(--ink-2); font-size: 0.85rem; }
svg.spark polyline { fill: none; stroke: var(--series); stroke-width: 2; }
svg.spark line { stroke: var(--grid); stroke-width: 1; }
"""


def _spark_svg(values: list[float], band: float, width: int = 140, height: int = 32) -> str:
    """Inline SVG sparkline of one efficiency series with the band line."""
    if not values:
        return ""
    tail = values[-24:]
    lo = min(tail + [band]) - 1e-9
    hi = max(tail + [band]) + 1e-9
    pad = 0.08 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y(v: float) -> float:
        return height - 3 - (v - lo) / (hi - lo) * (height - 6)

    if len(tail) == 1:
        xs = [width / 2]
    else:
        xs = [3 + i * (width - 6) / (len(tail) - 1) for i in range(len(tail))]
    points = " ".join(f"{x:.1f},{y(v):.1f}" for x, v in zip(xs, tail))
    band_y = y(band)
    return (
        f'<svg class="spark" width="{width}" height="{height}" role="img" '
        f'aria-label="efficiency trend, {len(tail)} runs">'
        f'<line x1="0" y1="{band_y:.1f}" x2="{width}" y2="{band_y:.1f}"/>'
        f'<polyline points="{points}"/>'
        + (f'<circle cx="{xs[-1]:.1f}" cy="{y(tail[-1]):.1f}" r="3" fill="var(--series)"/>')
        + "</svg>"
    )


def _fidelity_rows(stats: list[FidelityStat], band: float) -> str:
    rows = []
    for st in stats:
        ok = st.latest >= band
        rows.append(
            "<tr>"
            f"<td>{escape(st.app)}@{escape(st.preset)}</td>"
            f'<td class="status {"ok" if ok else "below"}">{"ok" if ok else "below band"}</td>'
            f'<td class="num">{st.latest:.4f}</td>'
            f'<td class="num">{st.mean:.4f}</td>'
            f'<td class="num">[{st.minimum:.4f}, {st.maximum:.4f}]</td>'
            f'<td class="num">{st.drift:+.4f}</td>'
            f'<td class="num">{st.count}</td>'
            f"<td>{_spark_svg(st.efficiencies, band)}</td>"
            "</tr>"
        )
    return "\n".join(rows)


def _critical_path_tables(entries: list[dict[str, Any]]) -> str:
    blocks = []
    for (app, preset), cp in sorted(_latest_critical_paths(entries).items()):
        makespan = cp.get("makespan") or 0.0
        dominant = cp.get("dominant", "?")
        rows = []
        for res, secs in (cp.get("by_resource") or {}).items():
            share = secs / makespan if makespan > 0 else 0.0
            rows.append(
                "<tr>"
                f"<td>{escape(res)}</td>"
                f'<td class="num">{secs:.4g}s</td>'
                f'<td class="num">{100 * share:.1f}%</td>'
                f'<td class="bartrack"><div class="bar" style="width:{max(2, round(share * 180))}px"></div></td>'
                f'<td class="lane">{escape(MODEL_TERMS.get(res, ""))}</td>'
                "</tr>"
            )
        blocks.append(
            f"<h2>{escape(app)}@{escape(preset)} critical path</h2>"
            f'<p class="sub">dominant resource: <strong>{escape(dominant)}</strong> '
            f"({100 * cp.get('dominant_fraction', 0.0):.1f}% of the makespan; "
            f"chain coverage {100 * cp.get('coverage', 0.0):.1f}%)</p>"
            "<table><thead><tr><th>resource</th><th class='num'>chain time</th>"
            "<th class='num'>share</th><th>share of makespan</th><th>model term</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return "\n".join(blocks)


def _resilience_table(entries: list[dict[str, Any]]) -> str:
    faults = _latest_fault_runs(entries)
    if not faults:
        return ""
    rows = []
    for (app, scenario, policy), entry in sorted(faults.items()):
        res = entry.get("resilience") or {}
        failed = bool(res.get("failed"))
        retention = res.get("efficiency_retention")
        inflation = res.get("makespan_inflation")
        recovery = res.get("recovery_latency")
        gloss = (entry.get("attribution") or {}).get("gloss") or "-"
        if failed:
            failure = res.get("failure") or {}
            gloss = f"aborted: {failure.get('process') or failure.get('stage') or '?'}"
        rows.append(
            "<tr>"
            f"<td>{escape(app)}</td><td>{escape(scenario)}</td><td>{escape(policy)}</td>"
            f'<td class="status {"below" if failed else "ok"}">'
            f'{"aborted" if failed else "ok"}</td>'
            f'<td class="num">{"-" if inflation is None else f"{inflation:.3f}x"}</td>'
            f'<td class="num">{"-" if retention is None else f"{retention:.1%}"}</td>'
            f'<td class="num">{"-" if recovery is None else f"{recovery:.3f}s"}</td>'
            f'<td class="lane">{escape(gloss)}</td>'
            "</tr>"
        )
    return (
        "<h2>Resilience under fault injection</h2>"
        '<p class="sub">latest fault run per app &times; scenario &times; policy '
        "(docs/robustness.md)</p>"
        "<table><thead><tr><th>app</th><th>scenario</th><th>policy</th><th>status</th>"
        "<th class='num'>inflation</th><th class='num'>retention</th>"
        "<th class='num'>recovery</th><th>attributed to</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _campaign_tables(entries: list[dict[str, Any]]) -> str:
    campaigns = _campaign_series(entries)
    if not campaigns:
        return ""
    blocks = []
    for preset in sorted(campaigns):
        latest, previous = campaigns[preset]
        prev_cells = (previous or {}).get("cells") or {}
        rows = []
        for key in sorted(latest.get("cells") or {}):
            cell = latest["cells"][key]
            mk = cell.get("makespan") or {}
            eff = cell.get("efficiency") or {}
            samples = [float(v) for v in mk.get("samples") or []]
            median = mk.get("median")
            eff_median = eff.get("median")
            eff_cell = "-" if eff_median is None else f"{eff_median:.4f}"
            drift = _cell_drift(cell, prev_cells.get(key))
            if drift is None:
                drift_html = '<span class="sub">&ndash;</span>'
            elif drift > 0.001:
                drift_html = f'<span class="status below">&#9650; {drift:+.1%}</span>'
            elif drift < -0.001:
                drift_html = f'<span class="status ok">&#9660; {drift:+.1%}</span>'
            else:
                drift_html = f'<span class="sub">= {drift:+.1%}</span>'
            spark = (
                _spark_svg(samples, band=median)
                if samples and median is not None
                else ""
            )
            rows.append(
                "<tr>"
                f"<td>{escape(key)}</td>"
                f'<td class="num">{_fmt_s(median)}</td>'
                f'<td class="num">{_fmt_s(mk.get("iqr"))}</td>'
                f'<td class="num">{_fmt_s(mk.get("p95"))}</td>'
                f'<td class="num">{_fmt_s(mk.get("p99"))}</td>'
                f'<td class="num">{eff_cell}</td>'
                f'<td class="num">{cell.get("completed", 0)}/{cell.get("replicates", 0)}</td>'
                f"<td>{spark}</td>"
                f"<td>{drift_html}</td>"
                "</tr>"
            )
        blocks.append(
            f"<h2>Campaign distributions ({escape(preset)})</h2>"
            f'<p class="sub">{latest.get("replicates")} seeded replicates per cell; '
            "drift vs the previous campaign on this preset (line = cell median)</p>"
            "<table><thead><tr><th>cell</th><th class='num'>median</th>"
            "<th class='num'>IQR</th><th class='num'>p95</th><th class='num'>p99</th>"
            "<th class='num'>eff</th><th class='num'>replicates</th>"
            "<th>distribution</th><th>drift</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return "\n".join(blocks)


def _campaign_check_table(entries: list[dict[str, Any]]) -> str:
    check = _latest_campaign_check(entries)
    if not check:
        return ""
    verdict = str(check.get("verdict", "?"))
    rows = []
    cells = check.get("cells") or {}
    for key in sorted(cells):
        cell = cells[key]
        cell_verdict = str(cell.get("verdict", "?"))
        shift = cell.get("median_shift")
        p = cell.get("p_value")
        rows.append(
            "<tr>"
            f"<td>{escape(key)}</td>"
            f'<td class="status {"below" if cell_verdict == "fail" else "ok"}">'
            f"{escape(cell_verdict)}</td>"
            f'<td class="num">{"-" if shift is None else f"{shift:+.2%}"}</td>'
            f'<td class="num">{"-" if p is None else f"{p:.4g}"}</td>'
            f'<td class="lane">{escape(str(cell.get("note") or ""))}</td>'
            "</tr>"
        )
    return (
        "<h2>Campaign regression check</h2>"
        f'<p class="sub">latest verdict: <strong>{escape(verdict)}</strong> '
        f"(alpha {check.get('alpha')}, effect threshold "
        f"{check.get('effect_threshold')}, "
        f"{len(check.get('flagged') or [])} flagged)</p>"
        "<table><thead><tr><th>cell</th><th>verdict</th>"
        "<th class='num'>median shift</th><th class='num'>p-value</th>"
        "<th>note</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _explain_table(entries: list[dict[str, Any]]) -> str:
    explains = _latest_explains(entries)
    if not explains:
        return ""
    rows = []
    for key in sorted(explains):
        entry = explains[key]
        manifest = entry.get("explain") or {}
        delta = manifest.get("delta") or {}
        rel = delta.get("relative")
        top = (manifest.get("blame") or [{}])[0]
        verdict = str(entry.get("verdict", "?"))
        d = delta.get("makespan_s")
        top_d = top.get("delta_s")
        rows.append(
            "<tr>"
            f"<td>{escape(key)}</td>"
            f'<td class="status {"below" if verdict == "model" else "ok"}">'
            f"{escape(verdict)}</td>"
            f'<td class="num">{"-" if d is None else format(d, "+.4g") + "s"}</td>'
            f'<td class="num">{"-" if rel is None else format(rel, "+.2%")}</td>'
            f"<td>{escape(str(top.get('resource') or '-'))}</td>"
            f'<td class="num">{"-" if top_d is None else format(top_d, "+.4g") + "s"}</td>'
            f'<td class="lane">{escape(str(manifest.get("top_term") or ""))}</td>'
            "</tr>"
        )
    return (
        "<h2>Regression explanations</h2>"
        '<p class="sub">latest paired-trace blame diff per cell '
        "(docs/observability.md &ldquo;Explaining regressions&rdquo;)</p>"
        "<table><thead><tr><th>cell</th><th>verdict</th>"
        "<th class='num'>&Delta; makespan</th><th class='num'>relative</th>"
        "<th>top blame</th><th class='num'>lane &Delta;</th>"
        "<th>model term</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _tune_tables(entries: list[dict[str, Any]]) -> str:
    tunes = _latest_tunes(entries)
    if not tunes:
        return ""
    blocks = []
    for (app, preset), entry in sorted(tunes.items()):
        inc = entry.get("incumbent") or {}
        obj = inc.get("objectives") or {}
        budget = entry.get("budget") or {}
        savings = entry.get("savings") or {}
        frac = savings.get("fraction_of_exhaustive")
        front = entry.get("front") or []
        has_res = any(
            (row.get("objectives") or {}).get("resilience") is not None
            for row in front
        )
        rows = []
        for row in front:
            robj = row.get("objectives") or {}
            res = robj.get("resilience")
            rows.append(
                "<tr>"
                f"<td>{escape(_tune_point_label(row.get('point') or {}))}</td>"
                f'<td class="num">{robj.get("gflops", 0.0):.2f}</td>'
                f'<td class="num">{robj.get("slice_utilisation", 0.0):.1%}</td>'
                + (
                    f'<td class="num">{"-" if res is None else f"{res:.1%}"}</td>'
                    if has_res
                    else ""
                )
                + f'<td class="num">{robj.get("freq_mhz", 0.0):.0f}</td>'
                f"<td>{escape(str(row.get('fidelity', '?')))}</td>"
                "</tr>"
            )
        blocks.append(
            f"<h2>Guided tuning Pareto front ({escape(app)}@{escape(preset)})</h2>"
            f'<p class="sub">incumbent '
            f"<strong>{escape(_tune_point_label(inc.get('point') or {}))}</strong> "
            f"&rarr; {obj.get('gflops', 0.0):.2f} GFLOPS at "
            f"{obj.get('slice_utilisation', 0.0):.1%} slices &middot; "
            f"DES evals {budget.get('des_used', '?')}/{budget.get('des', '?')} "
            f"vs exhaustive {entry.get('exhaustive_des', '?')}"
            + ("" if frac is None else f" ({frac:.1%} of exhaustive)")
            + " &middot; docs/performance.md &ldquo;Guided search&rdquo;</p>"
            "<table><thead><tr><th>design point</th><th class='num'>GFLOPS</th>"
            "<th class='num'>slices</th>"
            + ("<th class='num'>retention</th>" if has_res else "")
            + "<th class='num'>freq MHz</th><th>fidelity</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return "\n".join(blocks)


def _workers_table(entries: list[dict[str, Any]]) -> str:
    workers = _latest_worker_telemetry(entries)
    if not workers:
        return ""
    ex = workers.get("executor") or {}
    per_worker = ex.get("per_worker") or []
    busy_max = max((w.get("busy_s", 0.0) for w in per_worker), default=0.0)
    stragglers = set(ex.get("stragglers") or [])
    rows = []
    for w in per_worker:
        busy = w.get("busy_s", 0.0)
        width = max(2, round(busy / busy_max * 180)) if busy_max > 0 else 2
        status = "straggler" if w.get("worker") in stragglers else "ok"
        rows.append(
            "<tr>"
            f"<td>w{w.get('worker')}</td>"
            f"<td class='num'>{w.get('pid')}</td>"
            f"<td class='num'>{w.get('chunks')}</td>"
            f"<td class='num'>{w.get('tasks')}</td>"
            f"<td class='num'>{busy:.3f}s</td>"
            f'<td class="bartrack"><div class="bar" style="width:{width}px"></div></td>'
            f'<td class="status {"below" if status == "straggler" else "ok"}">{status}</td>'
            "</tr>"
        )
    qw = ex.get("queue_wait_s") or {}
    cache = workers.get("cache") or {}
    rate = workers.get("cache_hit_rate")
    sub = (
        f"mode {escape(str(ex.get('mode', '?')))} &middot; "
        f"{ex.get('tasks', '?')} tasks in {ex.get('chunks', '?')} chunks &middot; "
        f"queue wait mean {qw.get('mean', 0.0):.4f}s / max {qw.get('max', 0.0):.4f}s "
        f"&middot; imbalance {ex.get('imbalance', 1.0):.2f}x"
    )
    if cache:
        sub += (
            f" &middot; cache {cache.get('hits', 0)}/{cache.get('lookups', 0)} hits"
            + ("" if rate is None else f" ({rate:.1%})")
        )
    table = (
        "<table><thead><tr><th>worker</th><th class='num'>pid</th>"
        "<th class='num'>chunks</th><th class='num'>tasks</th>"
        "<th class='num'>busy</th><th>busy share</th><th>status</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        if rows
        else '<p class="sub">serial run &mdash; no worker pool.</p>'
    )
    return f"<h2>Sweep worker telemetry</h2><p class='sub'>{sub}</p>{table}"


def render_html(
    entries: list[dict[str, Any]],
    band: float = DEFAULT_BAND,
    title: str = "Model-fidelity observatory",
) -> str:
    """The self-contained HTML dashboard page."""
    stats = fidelity_report(entries, band=band)
    fidelity_table = (
        "<table><thead><tr><th>series</th><th>status</th><th class='num'>latest</th>"
        "<th class='num'>mean</th><th class='num'>range</th><th class='num'>drift</th>"
        "<th class='num'>runs</th><th>trend (band line = floor)</th></tr></thead>"
        f"<tbody>{_fidelity_rows(stats, band)}</tbody></table>"
        if stats
        else '<p class="sub">No design_run entries recorded yet.</p>'
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{escape(title)}</title>
<style>{_HTML_STYLE}</style>
</head>
<body>
<h1>{escape(title)}</h1>
<p class="sub">{len(entries)} ledger entries &middot; fidelity band: overlap_efficiency &ge; {band:.2f}
(the paper's Section 4.5 &ldquo;&gt;85% of max{{T_tp, T_tf}}&rdquo; claim)</p>
<h2>Prediction fidelity by app &times; preset</h2>
{fidelity_table}
{_critical_path_tables(entries)}
{_resilience_table(entries)}
{_campaign_tables(entries)}
{_campaign_check_table(entries)}
{_explain_table(entries)}
{_tune_tables(entries)}
{_workers_table(entries)}
</body>
</html>
"""
