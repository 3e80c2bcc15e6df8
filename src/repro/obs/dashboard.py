"""The ``/dashboard`` page: one self-contained HTML operational view.

Stdlib-only server-side rendering — no JavaScript frameworks, no external
assets, no client round trips beyond a ``<meta http-equiv="refresh">``
auto-reload.  The page is built from the same machine-readable documents the
fleet already serves (``/metrics?format=json`` and the trace recorder), so a
gateway and the fleet router share one renderer: the router's roll-up simply
carries extra blocks (``router``, ``replicas``) that light up extra panels.

Histograms are drawn as inline SVG bar sparklines from the exact bucket
counts — the same raws the roll-up merges — so what the dashboard shows is
what the percentile math uses, not a rendered-table approximation.

Each panel carries a stable ``id="panel-…"`` marker; the CI obs-smoke job
asserts their presence, so renaming one is a contract change.
"""

from __future__ import annotations

import html
import time
from typing import List, Mapping, Optional, Sequence

from repro.server.http import HtmlPayload

__all__ = ["render_dashboard", "histogram_svg"]

_REFRESH_SECONDS = 2

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 0; background: #10141a; color: #d7dde4; }
header { padding: 14px 22px; background: #171d26; border-bottom: 1px solid #2a3442;
         display: flex; justify-content: space-between; align-items: baseline; }
header h1 { font-size: 18px; margin: 0; font-weight: 600; }
header .meta { color: #8ba0b5; font-size: 12px; }
main { display: flex; flex-wrap: wrap; gap: 14px; padding: 18px 22px; }
section { background: #171d26; border: 1px solid #2a3442; border-radius: 8px;
          padding: 14px 16px; min-width: 260px; flex: 1 1 300px; }
section h2 { font-size: 13px; margin: 0 0 10px; color: #9db4c9;
             text-transform: uppercase; letter-spacing: 0.06em; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
td, th { padding: 3px 8px 3px 0; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr + tr td { border-top: 1px solid #222b36; }
.big { font-size: 26px; font-weight: 600; color: #f1f5f9; }
.unit { color: #8ba0b5; font-size: 12px; margin-left: 4px; }
.kpis { display: flex; gap: 24px; flex-wrap: wrap; }
.ok { color: #5dd39e; } .warn { color: #f2c14e; } .bad { color: #ef6461; }
.spark { margin-top: 6px; }
code { color: #9db4c9; background: #10141a; padding: 1px 5px; border-radius: 4px; }
.footer { padding: 8px 22px 18px; color: #5b6b7c; font-size: 11px; }
"""


def _fmt(value: object, digits: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}".rstrip("0").rstrip(".") or "0"
    return html.escape(str(value))


def _fmt_ms(seconds: object) -> str:
    try:
        return f"{float(seconds) * 1e3:.1f}"
    except (TypeError, ValueError):
        return "–"


def histogram_svg(
    counts: Sequence[int],
    width: int = 260,
    height: int = 48,
    color: str = "#4f9cf9",
) -> str:
    """Inline SVG bar sparkline of bucket counts (empty buckets stay gaps)."""
    counts = [max(0, int(c)) for c in counts]
    peak = max(counts) if counts else 0
    if peak == 0:
        return (
            f'<svg class="spark" width="{width}" height="{height}">'
            f'<text x="4" y="{height - 6}" fill="#5b6b7c" font-size="11">'
            "no samples yet</text></svg>"
        )
    bar = width / len(counts)
    bars = []
    for index, count in enumerate(counts):
        if count == 0:
            continue
        h = max(2.0, (count / peak) * (height - 4))
        bars.append(
            f'<rect x="{index * bar + 0.5:.1f}" y="{height - h:.1f}" '
            f'width="{max(1.0, bar - 1):.1f}" height="{h:.1f}" fill="{color}">'
            f"<title>bucket {index}: {count}</title></rect>"
        )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'role="img" aria-label="histogram">{"".join(bars)}</svg>'
    )


def _kpi(label: str, value: str, unit: str = "", tone: str = "") -> str:
    cls = f"big {tone}".strip()
    unit_html = f'<span class="unit">{unit}</span>' if unit else ""
    return (
        f'<div><div class="unit">{html.escape(label)}</div>'
        f'<div class="{cls}">{value}{unit_html}</div></div>'
    )


def _rows(pairs: Sequence[tuple]) -> str:
    return "".join(
        f"<tr><td>{html.escape(str(name))}</td><td class='num'>{value}</td></tr>"
        for name, value in pairs
    )


def _latency_panel(name: str, summary: Mapping, raw: Optional[Mapping]) -> str:
    cells = ""
    if summary.get("count"):
        cells = _rows(
            [
                ("count", _fmt(summary.get("count"))),
                ("p50 (ms)", _fmt_ms(summary.get("p50"))),
                ("p90 (ms)", _fmt_ms(summary.get("p90"))),
                ("p99 (ms)", _fmt_ms(summary.get("p99"))),
                ("max (ms)", _fmt_ms(summary.get("max"))),
            ]
        )
    else:
        cells = "<tr><td>no samples yet</td></tr>"
    svg = histogram_svg(raw.get("counts", [])) if raw else ""
    return (
        f'<section id="panel-latency-{html.escape(name)}">'
        f"<h2>latency · {html.escape(name)}</h2>"
        f"<table>{cells}</table>{svg}</section>"
    )


def render_dashboard(
    metrics: Mapping[str, object],
    traces: Sequence[Mapping[str, object]] = (),
    title: str = "repro dashboard",
    health: Optional[Mapping[str, object]] = None,
) -> HtmlPayload:
    """Render the operational dashboard for one gateway or the fleet router.

    ``metrics`` is the ``/metrics?format=json`` document (gateway snapshot or
    router roll-up — the renderer keys off which blocks are present);
    ``traces`` is a list of recent trace documents from the local recorder;
    ``health`` the ``/healthz`` payload for the build/uptime strip.
    """
    counters: Mapping = metrics.get("counters", {}) or {}
    latency: Mapping = metrics.get("latency", {}) or {}
    cache: Mapping = metrics.get("cache", {}) or {}
    histograms: Mapping = metrics.get("histograms", {}) or {}
    health = health or {}

    shed_rate = float(counters.get("shed_rate", 0.0) or 0.0)
    hit_rate = float(counters.get("hit_rate", 0.0) or 0.0)
    expired = int(counters.get("deadline_expired", 0) or 0)
    degraded = int(counters.get("degraded", 0) or 0)
    router_block: Mapping = metrics.get("router", {}) or {}
    breakers_open = int(router_block.get("breakers_open", 0) or 0)
    status = str(health.get("status", "ok"))
    tone = "ok" if status == "ok" else ("warn" if status == "draining" else "bad")

    sections: List[str] = []

    # --- headline KPIs -------------------------------------------------
    sections.append(
        '<section id="panel-overview"><h2>overview</h2><div class="kpis">'
        + _kpi("status", f'<span class="{tone}">{html.escape(status)}</span>')
        + _kpi("received", _fmt(counters.get("received", 0)))
        + _kpi("cache hit rate", f"{hit_rate * 100:.1f}", "%")
        + _kpi(
            "shed rate",
            f"{shed_rate * 100:.1f}",
            "%",
            tone="bad" if shed_rate > 0.05 else "",
        )
        + _kpi("queue depth", _fmt(counters.get("queue_depth", 0)))
        + _kpi(
            "deadline expired",
            _fmt(expired),
            tone="warn" if expired else "",
        )
        + _kpi("degraded", _fmt(degraded), tone="warn" if degraded else "")
        + (
            _kpi(
                "breakers open",
                _fmt(breakers_open),
                tone="bad" if breakers_open else "ok",
            )
            if router_block
            else ""
        )
        + "</div></section>"
    )

    # --- latency histograms -------------------------------------------
    for name in ("request", "cache_hit", "solve_miss"):
        if name in latency or name in histograms:
            sections.append(
                _latency_panel(name, latency.get(name, {}), histograms.get(name))
            )

    # --- batching: each solve is one batch of the waiters it answers ----
    batch_raw = histograms.get("batch_size")
    sections.append(
        '<section id="panel-batching"><h2>micro-batching</h2><table>'
        + _rows(
            [
                ("batches", _fmt(counters.get("batches", 0))),
                ("batched jobs", _fmt(counters.get("batched_jobs", 0))),
                ("deduped jobs", _fmt(counters.get("deduped_jobs", 0))),
                (
                    "mean batch size (waiters per solve)",
                    _fmt(counters.get("mean_batch_size", 0.0)),
                ),
            ]
        )
        + "</table>"
        + (histogram_svg(batch_raw.get("counts", []), color="#8d6fe8") if batch_raw else "")
        + "</section>"
    )

    # --- cache -------------------------------------------------------
    sections.append(
        '<section id="panel-cache"><h2>cache</h2><table>'
        + _rows(
            [
                ("tier hits", _fmt(cache.get("hits", 0))),
                ("tier misses", _fmt(cache.get("misses", 0))),
                ("stores", _fmt(cache.get("stores", 0))),
            ]
        )
        + "</table></section>"
    )

    # --- fleet panel (router roll-up only) -----------------------------
    replicas = metrics.get("replicas") or health.get("replicas")
    if replicas:
        rows = []
        for replica in replicas:
            up = replica.get("reporting", replica.get("up", False))
            breaker = str(replica.get("breaker", "closed"))
            breaker_tone = "ok" if breaker == "closed" else (
                "warn" if breaker == "half-open" else "bad"
            )
            depth = replica.get("queue_depth_ewma")
            rows.append(
                "<tr>"
                f"<td><code>{html.escape(str(replica.get('node', '?')))}</code></td>"
                f"<td class='{'ok' if up else 'bad'}'>{'up' if up else 'down'}</td>"
                f"<td class='{breaker_tone}'>{html.escape(breaker)}</td>"
                f"<td class='num'>{_fmt(depth) if depth is not None else '–'}</td>"
                f"<td class='num'>{_fmt(replica.get('routed', 0))}</td>"
                f"<td class='num'>{_fmt(replica.get('failures', 0))}</td>"
                "</tr>"
            )
        router: Mapping = metrics.get("router", {}) or {}
        router_rows = _rows(
            [
                ("routed", _fmt(router.get("routed", 0))),
                ("retries", _fmt(router.get("retries", 0))),
                ("failovers", _fmt(router.get("failovers", 0))),
                ("unavailable (503)", _fmt(router.get("unavailable", 0))),
                ("shed at front door", _fmt(router.get("shed_overload", 0))),
                ("deadline expired", _fmt(router.get("deadline_expired", 0))),
                ("breakers open", _fmt(router.get("breakers_open", 0))),
            ]
        ) if router else ""
        sections.append(
            '<section id="panel-fleet"><h2>fleet</h2>'
            "<table><tr><th>replica</th><th>health</th><th>breaker</th>"
            "<th class='num'>depth</th>"
            "<th class='num'>routed</th><th class='num'>failures</th></tr>"
            + "".join(rows)
            + "</table>"
            + (f"<table style='margin-top:10px'>{router_rows}</table>" if router_rows else "")
            + "</section>"
        )

    # --- recent traces -------------------------------------------------
    trace_rows = []
    for doc in list(traces)[:12]:
        trace_id = str(doc.get("trace_id", "?"))
        status_str = str(doc.get("status", "?"))
        duration_ms = float(doc.get("duration", 0.0) or 0.0) * 1e3
        metadata = doc.get("metadata") or {}
        fingerprint = str(metadata.get("fingerprint") or "")[:12]
        trace_rows.append(
            "<tr>"
            f"<td><a style='color:#4f9cf9' href='/debug/traces/{html.escape(trace_id)}'>"
            f"<code>{html.escape(trace_id)}</code></a></td>"
            f"<td class='{'ok' if status_str == 'ok' else 'bad'}'>{html.escape(status_str)}</td>"
            f"<td class='num'>{duration_ms:.1f}</td>"
            f"<td class='num'>{len(doc.get('spans') or [])}</td>"
            f"<td><code>{html.escape(fingerprint)}</code></td>"
            "</tr>"
        )
    sections.append(
        '<section id="panel-traces"><h2>recent traces</h2><table>'
        "<tr><th>trace</th><th>status</th><th class='num'>ms</th>"
        "<th class='num'>spans</th><th>fingerprint</th></tr>"
        + ("".join(trace_rows) or "<tr><td>no traces recorded yet</td></tr>")
        + "</table></section>"
    )

    uptime = health.get("uptime_seconds", counters.get("uptime_s", 0))
    meta_bits = [
        f"uptime {_fmt(uptime)}s",
        f"rev <code>{html.escape(str(health.get('git_rev', '?')))}</code>",
        f"refreshes every {_REFRESH_SECONDS}s",
    ]
    page = (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<meta http-equiv='refresh' content='{_REFRESH_SECONDS}'>"
        f"<title>{html.escape(title)}</title><style>{_STYLE}</style></head>"
        "<body><header>"
        f"<h1>{html.escape(title)}</h1>"
        f"<div class='meta'>{' · '.join(meta_bits)}</div>"
        "</header><main>"
        + "".join(sections)
        + "</main><div class='footer'>repro.obs dashboard · rendered "
        f"{time.strftime('%Y-%m-%d %H:%M:%S')}</div></body></html>"
    )
    return HtmlPayload(page)
