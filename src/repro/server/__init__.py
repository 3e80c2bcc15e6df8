"""Async solve gateway: the network front door of the solver fleet.

Everything built below this package — the MILP pipeline, the batch service,
the portfolio — is a blocking library call.  ``repro.server`` turns it into a
system: an asyncio JSON-over-HTTP gateway that validates and fingerprints
incoming solve requests (:mod:`~repro.server.protocol`; a repeated body is
keyed from a bounded decode memo without a parse), answers repeats inline
from the content-addressed :class:`~repro.service.cache.SolveCache`,
hands cache misses to the first free worker shard, batching the ones that
arrive while every shard is busy and solving concurrent repeats of one job
once (:mod:`~repro.server.batcher`), and executes batches on worker shards that
run MILP solves or portfolio races off the event loop and stream each result
back as it lands (:mod:`~repro.server.workers`).  Admission control
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

from repro.server.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.server.batcher import MicroBatcher
from repro.server.gateway import BackgroundGateway, GatewayConfig, SolveGateway
from repro.server.metrics import GatewayMetrics, LatencyHistogram
from repro.server.protocol import (
    ProtocolError,
    device_from_dict,
    job_from_dict,
    job_to_dict,
    problem_from_dict,
    relocation_from_list,
)
from repro.server.workers import WorkerPool

#: Load-generator names resolved lazily (PEP 562) so ``python -m
#: repro.server.loadgen`` does not re-execute an already-imported module.
_LOADGEN_NAMES = (
    "GatewayClient",
    "LoadResult",
    "demo_payloads",
    "closed_loop",
    "open_loop",
    "run_closed_loop",
    "run_open_loop",
)


def __getattr__(name: str):
    if name in _LOADGEN_NAMES:
        from repro.server import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GatewayConfig",
    "SolveGateway",
    "BackgroundGateway",
    "MicroBatcher",
    "WorkerPool",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "GatewayMetrics",
    "LatencyHistogram",
    "ProtocolError",
    "job_from_dict",
    "job_to_dict",
    "problem_from_dict",
    "device_from_dict",
    "relocation_from_list",
    "GatewayClient",
    "LoadResult",
    "demo_payloads",
    "closed_loop",
    "open_loop",
    "run_closed_loop",
    "run_open_loop",
]
