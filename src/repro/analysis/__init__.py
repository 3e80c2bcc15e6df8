"""Rendering and reporting helpers (the textual Figures and Tables)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.render": ["render_device", "render_partition", "render_floorplan"],
    "repro.analysis.report": [
        "format_table",
        "table1_rows",
        "table2_rows",
        "sweep_table_rows",
        "SWEEP_HEADERS",
        "sim_latency_rows",
        "SIM_LATENCY_HEADERS",
        "sim_utilization_rows",
        "SIM_UTILIZATION_HEADERS",
        "server_counter_rows",
        "SERVER_COUNTER_HEADERS",
    ],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
