"""Portfolio racing: several strategies, one instance, one winner.

MILP floorplanning run times are heavy-tailed: O mode can prove optimality on
one instance in seconds and stall for minutes on the next, while the HO
variants and the annealing heuristic are fast but weaker.  Racing the
strategies side by side under a shared deadline buys the robustness of the
whole portfolio at the wall-clock cost of (roughly) its fastest member —
the classic algorithm-portfolio trick.

Two selection policies are provided:

* ``"first_feasible"`` — return as soon as any strategy produces a
  verified-feasible floorplan (lowest latency, non-deterministic winner);
* ``"best"`` — wait for every strategy (or the deadline) and pick the best
  feasible result by ``(wasted frames, wirelength)`` (deterministic winner
  given deterministic strategy results).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.floorplan.metrics import ObjectiveWeights, evaluate_floorplan
from repro.floorplan.problem import FloorplanProblem
from repro.floorplan.verify import verify_floorplan
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.service.executor import check_executor, execute_job, make_pool
from repro.service.jobs import SolveJob, problem_spec_dict, relocation_spec_dict
from repro.service.results import JobResult
from repro.utils.timing import Timer

POLICIES = ("first_feasible", "best")


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One member of the racing portfolio.

    ``kind`` is ``"milp"`` (a :class:`~repro.floorplan.solver.FloorplanSolver`
    run in the given mode with the given HO heuristic) or ``"annealing"``
    (the simulated-annealing baseline plus geometric free-area reservation).
    """

    name: str
    kind: str = "milp"
    mode: str = "O"
    heuristic: str = "tessellation"

    def __post_init__(self) -> None:
        if self.kind not in ("milp", "annealing"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")


#: The portfolio of Section II/VI strategies raced by default.
DEFAULT_STRATEGIES: Tuple[Strategy, ...] = (
    Strategy("O", kind="milp", mode="O"),
    Strategy("HO-tessellation", kind="milp", mode="HO", heuristic="tessellation"),
    Strategy("HO-first-fit", kind="milp", mode="HO", heuristic="first-fit"),
    Strategy("annealing", kind="annealing"),
)

#: The brown-out strategy: while a gateway is overloaded its worker shards
#: answer each fresh job with this heuristic instead of a MILP solve, one job
#: at a time on the shard thread, and flag the results ``degraded``.
BROWNOUT_STRATEGY = Strategy("annealing", kind="annealing")


@dataclasses.dataclass
class PortfolioResult:
    """Outcome of one race."""

    outcomes: Dict[str, JobResult]
    winner: Optional[str]
    policy: str
    wall_time: float

    @property
    def winner_result(self) -> Optional[JobResult]:
        """The winning strategy's result (``None`` when nothing was feasible)."""
        return self.outcomes.get(self.winner) if self.winner else None

    def summary(self) -> str:
        parts = []
        for name, outcome in self.outcomes.items():
            mark = "*" if name == self.winner else " "
            wasted = outcome.wasted_frames
            parts.append(
                f"{mark}{name}: {outcome.status}"
                + (f" wasted={wasted}" if wasted is not None else "")
            )
        head = f"winner={self.winner or 'none'} ({self.policy}, {self.wall_time:.2f}s)"
        return head + " | " + "; ".join(parts)


def run_strategy(
    strategy: Strategy,
    problem: FloorplanProblem,
    relocation: Optional[RelocationSpec] = None,
    options: Optional[SolverOptions] = None,
    weights: Optional[ObjectiveWeights] = None,
    lexicographic: bool = False,
) -> JobResult:
    """Run one portfolio member to completion (pool-worker entry point)."""
    if strategy.kind == "milp":
        job = SolveJob(
            problem=problem,
            relocation=relocation,
            mode=strategy.mode,
            options=options or SolverOptions(),
            heuristic=strategy.heuristic,
            weights=weights,
            lexicographic=lexicographic,
            tag=strategy.name,
        )
        return execute_job(job)
    try:
        return _run_annealing(strategy, problem, relocation)
    except Exception as exc:  # noqa: BLE001 — a crashed member must not kill the race
        return JobResult(
            fingerprint=_heuristic_fingerprint(strategy, problem, relocation),
            job_name=f"{problem.name}[{strategy.name}]",
            status="error",
            feasible=False,
            objective=float("nan"),
            solve_time=0.0,
            wall_time=0.0,
            backend="annealing",
            mode="heuristic",
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_annealing(
    strategy: Strategy,
    problem: FloorplanProblem,
    relocation: Optional[RelocationSpec],
) -> JobResult:
    from repro.baselines.annealing import annealing_floorplan
    from repro.floorplan.ho import HOSeedError, HOSeeder

    fingerprint = _heuristic_fingerprint(strategy, problem, relocation)
    timer = Timer()
    with timer:
        floorplan = annealing_floorplan(problem)
        if floorplan is not None and relocation is not None and len(relocation) > 0:
            try:
                floorplan = HOSeeder(problem).add_free_areas(floorplan, relocation)
            except HOSeedError as exc:
                return JobResult(
                    fingerprint=fingerprint,
                    job_name=f"{problem.name}[{strategy.name}]",
                    status="no_free_areas",
                    feasible=False,
                    objective=float("nan"),
                    solve_time=timer.lap(),
                    wall_time=timer.lap(),
                    backend="annealing",
                    mode="heuristic",
                    error=str(exc),
                )
    if floorplan is None or not floorplan.is_complete:
        return JobResult(
            fingerprint=fingerprint,
            job_name=f"{problem.name}[{strategy.name}]",
            status="infeasible",
            feasible=False,
            objective=float("nan"),
            solve_time=timer.elapsed,
            wall_time=timer.elapsed,
            backend="annealing",
            mode="heuristic",
        )
    verification = verify_floorplan(floorplan)
    metrics = evaluate_floorplan(floorplan)
    return JobResult(
        fingerprint=fingerprint,
        job_name=f"{problem.name}[{strategy.name}]",
        status=floorplan.solver_status,
        feasible=verification.is_feasible,
        objective=metrics.objective,
        solve_time=floorplan.solve_time or timer.elapsed,
        wall_time=timer.elapsed,
        backend="annealing",
        mode="heuristic",
        metrics=metrics.as_dict(),
        floorplan=floorplan.to_dict(),
    )


def _heuristic_fingerprint(
    strategy: Strategy,
    problem: FloorplanProblem,
    relocation: Optional[RelocationSpec],
) -> str:
    spec = {
        "strategy": strategy.name,
        "kind": strategy.kind,
        "problem": problem_spec_dict(problem),
        "relocation": relocation_spec_dict(relocation),
    }
    encoded = json.dumps(spec, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def run_portfolio(
    problem: FloorplanProblem,
    relocation: Optional[RelocationSpec] = None,
    options: Optional[SolverOptions] = None,
    weights: Optional[ObjectiveWeights] = None,
    strategies: Sequence[Strategy] = DEFAULT_STRATEGIES,
    deadline: Optional[float] = None,
    policy: str = "best",
    executor: str = "process",
    max_workers: Optional[int] = None,
) -> PortfolioResult:
    """Race ``strategies`` on one instance under a shared deadline.

    Parameters
    ----------
    deadline:
        Shared wall-clock budget in seconds.  Strategies that have not
        finished when it expires are recorded with status ``"deadline"``
        (running MILP workers are abandoned, not interrupted).
    policy:
        ``"first_feasible"`` or ``"best"`` (see module docstring).
    executor:
        ``"process"`` (default), ``"thread"``, or ``"serial"``.  Serial mode
        runs strategies one after another in submission order — fully
        deterministic, used by the tests.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    check_executor(executor)
    strategies = list(strategies)
    names = [strategy.name for strategy in strategies]
    if len(set(names)) != len(names):
        raise ValueError("strategy names must be unique")

    timer = Timer()
    outcomes: Dict[str, JobResult] = {}
    with timer:
        if executor == "serial":
            _race_serial(
                strategies, outcomes, timer, deadline, policy,
                problem, relocation, options, weights,
            )
        else:
            _race_pool(
                strategies, outcomes, timer, deadline, policy, executor,
                max_workers, problem, relocation, options, weights,
            )

    winner = _pick_winner(names, outcomes, policy)
    ordered = {name: outcomes[name] for name in names if name in outcomes}
    return PortfolioResult(
        outcomes=ordered, winner=winner, policy=policy, wall_time=timer.elapsed
    )


# ----------------------------------------------------------------------
def _race_serial(
    strategies, outcomes, timer, deadline, policy,
    problem, relocation, options, weights,
) -> None:
    for strategy in strategies:
        if deadline is not None and timer.lap() >= deadline:
            outcomes[strategy.name] = _unfinished_result(strategy, problem, "deadline")
            continue
        outcomes[strategy.name] = run_strategy(
            strategy, problem, relocation, options, weights
        )
        if policy == "first_feasible" and outcomes[strategy.name].feasible:
            break


def _race_pool(
    strategies, outcomes, timer, deadline, policy, executor,
    max_workers, problem, relocation, options, weights,
) -> None:
    # No `with` block: the context manager's shutdown(wait=True) would join
    # still-running workers and blow straight through the deadline.  Instead
    # the pool is shut down without waiting — queued strategies are cancelled,
    # already-running ones are abandoned to finish in the background.
    pool = make_pool(executor, max_workers or len(strategies), len(strategies))
    reason = "cancelled"
    try:
        future_to_name = {
            pool.submit(
                run_strategy, strategy, problem, relocation, options, weights
            ): strategy.name
            for strategy in strategies
        }
        pending = set(future_to_name)
        while pending:
            budget = None
            if deadline is not None:
                budget = max(0.0, deadline - timer.lap())
            done, pending = wait(pending, timeout=budget, return_when=FIRST_COMPLETED)
            if not done:  # deadline expired with strategies still running
                reason = "deadline"
                break
            for future in done:
                name = future_to_name[future]
                outcomes[name] = future.result()
            if policy == "first_feasible" and any(
                outcomes[future_to_name[f]].feasible for f in done
            ):
                reason = "cancelled"  # another strategy already won
                break
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    strategies_by_name = {strategy.name: strategy for strategy in strategies}
    for future, name in future_to_name.items():
        if name in outcomes:
            continue
        # a strategy may have finished in the same wave the race ended on
        if future.done() and not future.cancelled():
            try:
                outcomes[name] = future.result()
                continue
            except Exception:  # noqa: BLE001 — fall through to the placeholder
                pass
        outcomes[name] = _unfinished_result(strategies_by_name[name], problem, reason)


def _unfinished_result(
    strategy: Strategy, problem: FloorplanProblem, reason: str
) -> JobResult:
    message = (
        "shared portfolio deadline expired"
        if reason == "deadline"
        else "race ended before this strategy finished"
    )
    return JobResult(
        fingerprint="",
        job_name=f"{problem.name}[{strategy.name}]",
        status=reason,
        feasible=False,
        objective=float("nan"),
        solve_time=0.0,
        wall_time=0.0,
        backend="",
        mode=strategy.mode if strategy.kind == "milp" else "heuristic",
        error=message,
    )


def _pick_winner(
    names: List[str], outcomes: Dict[str, JobResult], policy: str
) -> Optional[str]:
    feasible = [name for name in names if name in outcomes and outcomes[name].feasible]
    if not feasible:
        return None
    if policy == "first_feasible":
        # serial mode stopped at the first feasible outcome; pool mode may
        # have collected several in the final wave — earliest wall time wins.
        return min(feasible, key=lambda name: (outcomes[name].wall_time, name))
    return min(feasible, key=lambda name: outcomes[name].objective_key())
