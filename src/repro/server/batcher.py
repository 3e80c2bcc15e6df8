"""Deduplicated dispatch of cache-miss solve jobs onto the solver threads.

Cache misses go to the solver one job per solve, at most ``limit`` at once
(the gateway passes its worker pool's thread count, so a dispatched job never
waits in the pool for a thread):

* a submission starts its solve at once when fewer than ``limit`` solves are
  running, so an idle gateway starts a miss's solve without a batching window;
* otherwise it waits in ``pending``, and each solve that ends starts the
  oldest pending job.

A submission whose fingerprint is already pending or in flight joins that
fingerprint's waiters instead of queueing a second solve, so concurrent
requests for one job (the thundering-herd shape of a cache miss under fan-in
traffic) are solved once for every waiter.  Each solve is counted as one
batch of the waiters it answers (``on_answer``), including those that joined
it while it ran.

Deadlines are checked when a job's solve starts: a waiter whose deadline has
passed by then gets :class:`DeadlineExpired` instead of a solve, and the
minimum remaining budget across a fingerprint's surviving waiters, measured
at that instant, is what the solver clamps to.  A budget cannot clamp a solve
that has already begun, so a waiter that joined a running solve, like one
still waiting for a solver thread, leaves with :class:`DeadlineExpired` when
its deadline passes; a job whose every waiter left before its solve started
is never solved.

When a solve returns, the first waiter of its fingerprint gets the result as
solved and the others a ``cached=True`` copy.  A failed solve fails only its
own waiters, and a cancelled one fails them with :class:`RuntimeError`.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import functools
import time
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.obs.trace import Span, Trace
from repro.service.jobs import SolveJob
from repro.service.results import JobResult

__all__ = ["BatcherDraining", "DeadlineExpired", "MicroBatcher"]

#: Trace context a submission may carry through the batcher: the request
#: trace plus the parent span new batcher spans hang under.
TraceCtx = Tuple[Trace, Optional[Span]]

#: One waiting submission: (job, waiter, trace ctx, submitted perf_counter,
#: monotonic deadline).
Entry = Tuple[SolveJob, asyncio.Future, Optional[TraceCtx], float, Optional[float]]


class BatcherDraining(RuntimeError):
    """Submission refused because the batcher is shutting down (retryable)."""


class DeadlineExpired(RuntimeError):
    """The waiter's budget ran out before its job's solve could answer it.

    Raised out of :meth:`MicroBatcher.submit` instead of solving: a client
    that already gave up must not have compute spent on its behalf.  The
    gateway maps this to a 504 with ``Retry-After``.
    """

#: Signature of the downstream solver: one job plus the remaining budget of
#: its most impatient waiter (seconds; ``None`` is unbudgeted) in, its result
#: out, already in the solve cache.
Solve = Callable[[SolveJob, Optional[float]], Awaitable[JobResult]]


class MicroBatcher:
    """Dispatch awaitable solve submissions onto free solver threads, deduplicated.

    Single-event-loop object: ``submit`` must be called from the loop the
    batcher dispatches on.  ``limit`` is the number of solves that may run at
    once.  ``queue_depth`` (waiters pending or in flight) is what the
    admission controller bounds.
    """

    def __init__(
        self,
        solve: Solve,
        limit: int = 8,
        on_answer: Optional[Callable[[int], None]] = None,
    ) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self._solve = solve
        self.limit = limit
        self._on_answer = on_answer
        #: every fingerprint pending or in flight -> its waiters, oldest first
        self._waiters: Dict[str, List[Entry]] = {}
        #: fingerprints whose solve has not started yet, oldest first (an
        #: ordered set)
        self._pending: "collections.OrderedDict[str, None]" = collections.OrderedDict()
        self._tasks: Set[asyncio.Future] = set()
        self._running = 0
        self._depth = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Waiters accepted but not yet answered (pending + in flight)."""
        return self._depth

    def holds(self, fingerprint: str) -> bool:
        """Is ``fingerprint`` pending or in flight here (a submit would join it)?"""
        return fingerprint in self._waiters

    async def submit(
        self,
        job: SolveJob,
        trace_ctx: Optional[TraceCtx] = None,
        deadline: Optional[float] = None,
    ) -> JobResult:
        """Enqueue one job and wait for its (possibly shared) result.

        ``trace_ctx`` (the request trace and the span batcher work should
        nest under) rides alongside the job; when present, the time the job
        waited for a solver thread is recorded as a ``batch.assembly`` span
        annotated with the number of waiters the solve holds when it starts.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a waiter
        whose deadline has passed when its job's solve starts is dropped with
        :class:`DeadlineExpired` instead of being solved, and the minimum
        remaining budget across a fingerprint's surviving waiters at that
        instant is handed to the solver so nobody blocks past their budget.
        A waiter whose budget cannot clamp the solve (it is still waiting for
        a thread, or joined a solve already running) raises
        :class:`DeadlineExpired` at its deadline instead of blocking.
        """
        if self._closed:
            raise BatcherDraining("batcher is draining; no new submissions")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = (job, future, trace_ctx, time.perf_counter(), deadline)
        fingerprint = job.fingerprint
        self._depth += 1
        waiters = self._waiters.get(fingerprint)
        joined_running = waiters is not None and fingerprint not in self._pending
        if waiters is not None:
            waiters.append(entry)  # pending or in flight: never solved twice
        else:
            self._waiters[fingerprint] = [entry]
            self._pending[fingerprint] = None
            self._dispatch()
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), deadline - time.monotonic()
            )
        except asyncio.TimeoutError:
            if future.done() or not (joined_running or fingerprint in self._pending):
                # answered meanwhile, or its solve started with this budget
                # clamping it: that answer is on its way
                return await future
            self._withdraw(fingerprint, entry)
            raise DeadlineExpired(
                f"deadline passed while {job.short_id} waited for its solve"
            ) from None

    def _withdraw(self, fingerprint: str, entry: Entry) -> None:
        """Take one waiter off ``fingerprint``'s list before its answer.

        A pending fingerprint left without waiters is forgotten, so it never
        reaches a solver; a running one keeps its list for the answer.
        """
        waiters = self._waiters[fingerprint]
        waiters[:] = [waiter for waiter in waiters if waiter is not entry]
        self._depth -= 1
        if not waiters and fingerprint in self._pending:
            del self._pending[fingerprint]
            del self._waiters[fingerprint]

    def _dispatch(self) -> None:
        """Start the oldest pending jobs' solves while a thread is free."""
        while self._pending and self._running < self.limit:
            now = time.monotonic()
            entries = self._drop_expired(self._pending.popitem(last=False)[0], now)
            if not entries:
                continue
            deadlines = [entry[4] for entry in entries if entry[4] is not None]
            budget = min(deadlines) - now if deadlines else None
            dispatched = time.perf_counter()
            for _job, _future, ctx, submitted, _deadline in entries:
                if ctx is not None:
                    trace, parent = ctx
                    trace.add_span(
                        "batch.assembly",
                        submitted,
                        dispatched,
                        parent=parent,
                        waiters=len(entries),
                    )
            self._running += 1
            job = entries[0][0]
            task = asyncio.ensure_future(self._solve(job, budget))
            self._tasks.add(task)
            task.add_done_callback(functools.partial(self._solved, job, dispatched))

    def _drop_expired(self, fingerprint: str, now: float) -> List[Entry]:
        """Fail the waiters of ``fingerprint`` whose deadline has passed.

        Returns the survivors; a fingerprint left with none is forgotten, so
        it never reaches a solver.
        """
        live: List[Entry] = []
        for entry in self._waiters[fingerprint]:
            job, future, _ctx, _submitted, deadline = entry
            if deadline is None or now < deadline:
                live.append(entry)
                continue
            self._depth -= 1
            if not future.done():
                future.set_exception(
                    DeadlineExpired(
                        f"deadline passed while {job.short_id} waited for a solver thread"
                    )
                )
        if live:
            self._waiters[fingerprint] = live
        else:
            del self._waiters[fingerprint]
        return live

    def _solved(self, job: SolveJob, dispatched: float, task: asyncio.Future) -> None:
        """The solve of ``job`` ended: answer its waiters, start the next job.

        A done callback, so it also runs for a solve cancelled before its
        coroutine began; the waiters of a cancelled solve get
        :class:`RuntimeError`, and a failed one fails only its own waiters.
        """
        self._tasks.discard(task)
        if task.cancelled():
            outcome: Union[JobResult, BaseException] = RuntimeError(
                f"the solve of {job.short_id} was cancelled"
            )
        else:
            outcome = task.exception() or task.result()
        self._answer(job.fingerprint, outcome, dispatched)
        self._running -= 1
        self._dispatch()

    def _answer(
        self,
        fingerprint: str,
        outcome: Union[JobResult, BaseException],
        dispatched: float,
    ) -> None:
        """Resolve every waiter on one fingerprint (it leaves the queue first)
        and count them as one batch.

        The first waiter still waiting gets the result as solved, with the
        solver's stage timings laid under its trace to end now, when the
        result arrived (but never before the ``dispatched`` instant, the
        earliest its solve can have begun); the rest, including waiters that
        joined while the solve ran, get a ``cached=True`` copy.
        """
        entries = self._waiters.pop(fingerprint)
        self._depth -= len(entries)
        if self._on_answer is not None:
            self._on_answer(len(entries))
        fresh = True
        for _job, future, ctx, submitted, _deadline in entries:
            if future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
                continue
            result = outcome
            if not result.cached:
                if not fresh:
                    result = dataclasses.replace(result, cached=True)
                elif ctx is not None and ctx[1] is not None:
                    trace, parent = ctx
                    trace.add_stage_spans(
                        result.stages,
                        parent,
                        start=max(dispatched, submitted),
                        end=time.perf_counter(),
                    )
            fresh = False
            future.set_result(result)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new work and wait until every accepted job is answered (idempotent)."""
        self._closed = True
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
