"""A canned solver answer and a payload sender shared by the gateway tests."""

from __future__ import annotations

import asyncio
from typing import List

from repro.server.loadgen import GatewayClient
from repro.service.jobs import SolveJob
from repro.service.results import JobResult


def canned_result(job: SolveJob, **fields) -> JobResult:
    """An optimal stub answer to ``job``; ``fields`` replace its defaults."""
    defaults = dict(
        status="optimal", feasible=True, objective=1.0, solve_time=0.0,
        wall_time=0.0, backend="stub",
    )
    defaults.update(fields)
    return JobResult(
        fingerprint=job.fingerprint, job_name=job.name, mode=job.mode, **defaults
    )


def send_all(gateway, payloads) -> List[int]:
    """POST each payload to ``gateway`` in turn over one keep-alive
    connection and return the response statuses."""

    async def scenario():
        async with GatewayClient(gateway.host, gateway.port) as client:
            return [(await client.solve(payload))[0] for payload in payloads]

    return asyncio.run(scenario())
