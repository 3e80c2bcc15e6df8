"""Async solve gateway: the network front door of the solver fleet.

Everything built below this package — the MILP pipeline and the solve
service — is a blocking library call.  ``repro.server`` turns it into a
system: an asyncio JSON-over-HTTP gateway that validates and fingerprints
incoming solve requests (:mod:`~repro.server.protocol`; a repeated body is
keyed from a bounded decode memo without a parse), answers repeats inline
from the content-addressed :class:`~repro.service.cache.SolveCache`,
starts each cache miss's solve as soon as a solver thread is free, solving
concurrent repeats of one job once (:mod:`~repro.server.batcher`), and runs
every solve on one thread pool off the event loop
(:mod:`~repro.server.workers`).  Admission control
(:mod:`~repro.server.admission`) sheds load with 429s — per-client token
buckets at the front door, a bounded solver queue behind the cache — and
``/healthz`` + ``/metrics`` expose queue depth, hit rate and latency
histograms through the :mod:`repro.analysis` tables.

Start one with ``python -m repro.server``; throw load at it with
:mod:`repro.server.loadgen` (open-loop Poisson arrivals reusing
:mod:`repro.sim.traffic`, or closed-loop concurrent clients)::

    python -m repro.server --port 8765 &
    python -m repro.server.loadgen --port 8765 --mode closed --clients 4

Everything is stdlib ``asyncio`` — no new dependencies.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.server.gateway": ["GatewayConfig", "SolveGateway", "BackgroundGateway"],
    "repro.server.batcher": ["MicroBatcher"],
    "repro.server.workers": ["WorkerPool"],
    "repro.server.admission": [
        "AdmissionController",
        "AdmissionDecision",
        "TokenBucket",
    ],
    "repro.server.metrics": ["GatewayMetrics", "LatencyHistogram"],
    "repro.server.protocol": [
        "ProtocolError",
        "job_from_dict",
        "job_to_dict",
        "problem_from_dict",
        "device_from_dict",
        "relocation_from_list",
    ],
    "repro.server.loadgen": [
        "GatewayClient",
        "LoadResult",
        "demo_payloads",
        "closed_loop",
        "open_loop",
        "run_closed_loop",
        "run_open_loop",
    ],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
