"""The dashboard renderer: panel markers, both document shapes, robustness."""

from repro.obs.dashboard import histogram_svg, render_dashboard
from repro.server.http import HtmlPayload

GATEWAY_DOC = {
    "counters": {
        "received": 10, "ok": 9, "hit_rate": 0.5, "shed_rate": 0.1,
        "queue_depth": 1, "batches": 3, "batched_jobs": 7, "deduped_jobs": 1,
        "mean_batch_size": 2.3, "uptime_s": 5.0,
    },
    "latency": {"request": {"count": 9, "p50": 0.01, "p90": 0.02, "p99": 0.05,
                            "max": 0.07, "mean": 0.015}},
    "cache": {"hits": 4, "misses": 5, "stores": 5},
    "histograms": {"request": {"counts": [0, 2, 5, 2, 0], "bounds": []},
                   "batch_size": {"counts": [1, 2], "bounds": []}},
}


class TestRenderDashboard:
    def test_gateway_panels_present(self):
        page = render_dashboard(GATEWAY_DOC, title="gw :1")
        assert isinstance(page, HtmlPayload)
        for marker in ("panel-overview", "panel-latency-request",
                       "panel-batching", "panel-cache", "panel-traces", "<svg"):
            assert marker in page
        assert "panel-fleet" not in page  # no replicas block on a gateway

    def test_cache_panel_shows_the_tier_counters(self):
        page = render_dashboard(GATEWAY_DOC)
        panel = page[page.index('id="panel-cache"'):]
        panel = panel[:panel.index("</section>")]
        for label, value in (("tier hits", 4), ("tier misses", 5), ("stores", 5)):
            assert f"<td>{label}</td><td class='num'>{value}</td>" in panel
        assert "flight" not in panel and "lock" not in panel

    def test_router_rollup_adds_fleet_panel(self):
        doc = dict(
            GATEWAY_DOC,
            router={"routed": 5, "retries": 1, "failovers": 0, "unavailable": 0},
            replicas=[
                {"node": "127.0.0.1:1", "reporting": True, "routed": 3, "failures": 0},
                {"node": "127.0.0.1:2", "reporting": False, "routed": 2, "failures": 1},
            ],
        )
        page = render_dashboard(doc, title="router")
        assert "panel-fleet" in page and "127.0.0.1:2" in page

    def test_traces_and_health_render(self):
        traces = [{"trace_id": "abc", "status": "ok", "duration": 0.02,
                   "spans": [1, 2], "metadata": {"fingerprint": "deadbeef"}}]
        health = {"status": "ok", "uptime_seconds": 7.5, "git_rev": "cafe123"}
        page = render_dashboard(GATEWAY_DOC, traces=traces, health=health)
        assert "/debug/traces/abc" in page
        assert "cafe123" in page

    def test_empty_document_renders(self):
        page = render_dashboard({})
        assert "panel-overview" in page and "no traces recorded yet" in page

    def test_markup_is_escaped(self):
        traces = [{"trace_id": "<script>", "status": "ok", "duration": 0.0,
                   "spans": [], "metadata": {}}]
        page = render_dashboard({}, traces=traces, title="<b>t</b>")
        assert "<script>" not in page
        assert "<b>t</b>" not in page


class TestHistogramSvg:
    def test_empty_counts_render_placeholder(self):
        assert "no samples" in histogram_svg([])
        assert "no samples" in histogram_svg([0, 0, 0])

    def test_bars_scale_to_peak(self):
        svg = histogram_svg([1, 0, 4])
        assert svg.count("<rect") == 2  # empty buckets draw no bar
        assert "bucket 2: 4" in svg
