"""The serving workloads: ``miss_stream``, ``hit_stream`` and ``mixed_rw``.

One load-generator process, one event-loop thread, two keep-alive
connections, closed loop: each client sends its next request only after the
previous answer arrived, as a CAD flow waits for its floorplan.  Responses
are kept as raw bytes while the clock runs and checked afterwards, so the
checker's CPU time does not slow the load.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from checker import check_answer, wasted_frames
from common import Stopwatch, cpu_ticks, percentile, steal_share
from fleet import Connection, Fleet
from inputs import Request, RequestGenerator

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Clients sending first-seen jobs, per workload.
MISS_CLIENTS = {"miss_stream": 2, "mixed_rw": 1}
#: Seconds of ``--seconds`` per template cycle of each miss client.  A run
#: sends round(seconds / this) whole cycles per client (at least one): the
#: same jobs on every run whatever the machine's speed, where a stop on the
#: clock would make the mix depend on where time ran out.  At 15 s,
#: ``miss_stream`` sends two cycles (about 35 s of solving on a 2-core x86
#: VM), so its p50 is the mean of two batches, not one; ``mixed_rw`` sends
#: one, beside about 2000 hits.
MISS_CYCLE_S = {"miss_stream": 7.5, "mixed_rw": 15.0}


@dataclasses.dataclass
class Sample:
    kind: str  # "miss" or "hit"
    request: Request
    status: int  # 0 = the connection failed
    latency: float
    payload: bytes
    done_at: float


def solve_catalog(generator: RequestGenerator, directory: Path) -> None:
    """Solve the hit catalog once into the template cache directory."""
    from repro.service.cache import SolveCache
    from repro.service.executor import execute_job

    cache = SolveCache(directory)
    for request in generator.catalog:
        result = execute_job(request.job)
        if result.status not in ("optimal", "feasible"):
            raise RuntimeError(f"catalog job {request.template} failed: {result.error}")
        cache.put(result)


async def _send(conn: Connection, request: Request, kind: str, samples: List[Sample]) -> None:
    started = time.perf_counter()
    try:
        status, payload = await conn.request("POST", "/solve", request.wire)
    except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError):
        await conn.close()
        status, payload = 0, b""
    done = time.perf_counter()
    samples.append(Sample(kind, request, status, done - started, payload, done))


async def _first_touch(port: int, generator: RequestGenerator, with_catalog: bool) -> None:
    """Load every catalog entry from disk once, and warm the solver stack."""
    conn = await Connection(port).open()
    try:
        touches = list(generator.catalog) if with_catalog else []
        for request in touches + [generator.warmup]:
            status, _payload = await conn.request("POST", "/solve", request.wire)
            if status != 200:
                raise RuntimeError(f"set-up request {request.template} answered {status}")
    finally:
        await conn.close()


async def drive(workload: str, port: int, generator: RequestGenerator, seconds: float,
                misses: List[Request]) -> List[Sample]:
    """Closed-loop traffic of one workload; returns every sample in order.

    ``misses`` holds whole template cycles of first-seen jobs, in cycle
    order.  The ``n`` miss clients send them in rounds: round ``r`` sends
    ``misses[r * n : (r + 1) * n]`` at once, one job per client, and the next
    round starts when every answer of this one is in, as a flow that waits for
    all of its floorplans.  With a cycle length prime to ``n`` each client
    meets every template once per cycle, and which solves share a batch and
    the cores is fixed in advance, not left to which client finished first.
    Hit clients stop when the miss side is done, or after ``seconds`` when
    there is none.
    """
    samples: List[Sample] = []
    start = time.perf_counter()
    miss_done = asyncio.Event()

    async def miss_rounds(clients: int) -> None:
        conns = [await Connection(port).open() for _ in range(clients)]
        try:
            for first in range(0, len(misses), clients):
                await asyncio.gather(*(
                    _send(conn, request, "miss", samples)
                    for conn, request in zip(conns, misses[first:first + clients])
                ))
        finally:
            for conn in conns:
                await conn.close()

    async def hit_client(until_misses: bool) -> None:
        conn = await Connection(port).open()
        try:
            while not (miss_done.is_set() if until_misses
                       else time.perf_counter() - start >= seconds):
                await _send(conn, generator.catalog[generator.next_hit()], "hit", samples)
        finally:
            await conn.close()

    async def misses_then_signal(clients: int) -> None:
        await miss_rounds(clients)
        miss_done.set()

    if workload == "miss_stream":
        await misses_then_signal(MISS_CLIENTS[workload])
    elif workload == "hit_stream":
        await asyncio.gather(hit_client(False), hit_client(False))
    else:
        await asyncio.gather(misses_then_signal(MISS_CLIENTS[workload]), hit_client(True))
    return samples


def verify(samples: List[Sample]) -> Dict[int, Optional[int]]:
    """Check every 200 answer; maps sample index -> wasted frames (None = bad).

    Identical (request, answer) byte pairs share one verdict.
    """
    verdicts: Dict[tuple, Optional[int]] = {}
    out: Dict[int, Optional[int]] = {}
    for index, sample in enumerate(samples):
        if sample.status != 200:
            continue
        key = (sample.request.fingerprint, hashlib.sha256(sample.payload).digest())
        if key not in verdicts:
            verdict: Optional[int] = None
            try:
                response = json.loads(sample.payload)
                if not check_answer(sample.request.body, response):
                    floorplan = response["result"]["floorplan"]
                    verdict = wasted_frames(sample.request.body, floorplan["placements"])
            except (ValueError, KeyError, TypeError, IndexError):
                verdict = None
            verdicts[key] = verdict
        out[index] = verdicts[key]
    return out


@dataclasses.dataclass
class ServingRun:
    """Everything one serving run measured, from which the metrics are computed."""

    generator: RequestGenerator
    setup_times: List[float]
    samples: List[Sample]
    wall: float
    rss_mb: float
    steal_share: float
    #: Stolen share of the busy CPU time in the timed phase (see Stopwatch).
    stolen: float
    verdicts: Dict[int, Optional[int]]
    extra: Dict[str, object]

    def ok(self, kind: Optional[str] = None) -> List[Sample]:
        return [
            s for i, s in enumerate(self.samples)
            if self.verdicts.get(i) is not None and (kind is None or s.kind == kind)
        ]

    def latencies_ms(self, kind: Optional[str] = None) -> List[float]:
        return [s.latency * 1e3 for s in self.ok(kind)]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.status != 200)

    def end_to_end(self) -> Dict[str, float]:
        latencies = self.latencies_ms()
        return {
            "setup_s": statistics.median(self.setup_times),
            "latency_p50_ms": percentile(latencies, 50) * (1.0 - self.stolen),
            "verified_share": len(self.ok()) / len(self.samples),
            "rss_mb": self.rss_mb,
        }

    def workload_figures(self) -> Dict[str, float]:
        """The workload-specific outcome figures (reported in the traced run)."""
        solved = [
            self.verdicts[i] for i, s in enumerate(self.samples)
            if s.kind == "miss" and self.verdicts.get(i) is not None
        ]
        hits = self.latencies_ms("hit")
        return {
            "throughput_rps": len(self.ok()) / self.wall,
            "solves_per_s": len(solved) / self.wall,
            "latency_p90_ms": percentile(self.latencies_ms(), 90),
            "latency_p99_ms": percentile(self.latencies_ms(), 99),
            "hit_latency_p99_ms": percentile(hits, 99),
            "wasted_frames_mean": statistics.fmean(solved) if solved else 0.0,
            "failed_share": self.failed / len(self.samples),
        }

    def input_shares(self) -> Dict[str, float]:
        hits = [s for s in self.samples if s.kind == "hit"]
        misses = [s for s in self.samples if s.kind == "miss"]
        return {
            "hit_stream.paper_scale_share": (
                sum(s.request.paper_scale for s in hits) / len(hits) if hits else 0.0
            ),
            "miss.relocation_share": (
                sum(s.request.relocation for s in misses) / len(misses) if misses else 0.0
            ),
        }


def run_serving(workload: str, seed: int, seconds: float, root: Path, work: Path,
                observer=None) -> ServingRun:
    """One run of a serving workload.

    ``observer`` (the traced run) gets ``before(fleet)`` and
    ``after(fleet, samples, before)`` calls around the timed phase; the
    latter's return value lands in :attr:`ServingRun.extra`.
    """
    generator = RequestGenerator(seed)
    uses_catalog = workload != "miss_stream"
    template = work / "template"
    template.mkdir(parents=True)
    if uses_catalog:
        solve_catalog(generator, template)
    misses = []
    if workload in MISS_CLIENTS:
        cycles = max(1, round(seconds / MISS_CYCLE_S[workload]))
        total = cycles * generator.cycle_length * MISS_CLIENTS[workload]
        misses = [generator.next_miss() for _ in range(total)]

    setup_times: List[float] = []
    fleet: Optional[Fleet] = None
    try:
        for attempt in range(SETUPS):
            cache_dir = work / f"cache{attempt}"
            shutil.copytree(template, cache_dir)
            fleet = Fleet(root, cache_dir)
            clock = Stopwatch()
            fleet.start()
            asyncio.run(_first_touch(fleet.port, generator, uses_catalog))
            setup_times.append(clock.stop())
            if attempt < SETUPS - 1:
                fleet.stop()
        assert fleet is not None
        before = observer.before(fleet) if observer else None
        ticks = cpu_ticks()
        clock = Stopwatch()
        started = time.perf_counter()
        samples = asyncio.run(drive(workload, fleet.port, generator, seconds, misses))
        wall = max(s.done_at for s in samples) - started
        clock.stop()
        steal = steal_share(ticks, cpu_ticks())
        extra = observer.after(fleet, samples, before) if observer else {}
        rss_mb = fleet.peak_rss_mb()
    finally:
        if fleet is not None:
            fleet.stop()
    return ServingRun(
        generator=generator,
        setup_times=setup_times,
        samples=samples,
        wall=wall,
        rss_mb=rss_mb,
        steal_share=steal,
        stolen=clock.stolen,
        verdicts=verify(samples),
        extra=extra,
    )
