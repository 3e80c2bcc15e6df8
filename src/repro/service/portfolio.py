"""Strategy portfolio: several strategies, one instance, one winner.

MILP floorplanning run times are heavy-tailed: O mode can prove optimality on
one instance in seconds and stall for minutes on the next, while the HO
variants and the annealing heuristic are fast but weaker.  The portfolio runs
the strategies one after another, in-process, under a shared deadline and
keeps the best feasible result by ``(wasted frames, wirelength)`` — a
deterministic winner given deterministic strategy results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.floorplan.metrics import ObjectiveWeights, evaluate_floorplan
from repro.floorplan.problem import FloorplanProblem
from repro.floorplan.verify import verify_floorplan
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.service.executor import execute_job
from repro.service.jobs import SolveJob, problem_spec_dict, relocation_spec_dict
from repro.service.results import JobResult
from repro.utils.timing import Timer


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One member of the portfolio.

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


#: The portfolio of Section II/VI strategies run by default.
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
    """Outcome of one portfolio run."""

    outcomes: Dict[str, JobResult]
    winner: Optional[str]
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
        head = f"winner={self.winner or 'none'} ({self.wall_time:.2f}s)"
        return head + " | " + "; ".join(parts)


def run_strategy(
    strategy: Strategy,
    problem: FloorplanProblem,
    relocation: Optional[RelocationSpec] = None,
    options: Optional[SolverOptions] = None,
    weights: Optional[ObjectiveWeights] = None,
) -> JobResult:
    """Run one portfolio member to completion."""
    if strategy.kind == "milp":
        job = SolveJob(
            problem=problem,
            relocation=relocation,
            mode=strategy.mode,
            options=options or SolverOptions(),
            heuristic=strategy.heuristic,
            weights=weights,
            tag=strategy.name,
        )
        return execute_job(job)
    try:
        return _run_annealing(strategy, problem, relocation)
    except Exception as exc:  # noqa: BLE001 — a crashed member must not kill the portfolio
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
) -> PortfolioResult:
    """Run ``strategies`` in order on one instance and keep the best result.

    ``deadline`` is a shared wall-clock budget in seconds, checked before
    each strategy starts: a strategy not yet started when it has passed is
    recorded with status ``"deadline"``.  A running strategy is never
    interrupted.
    """
    strategies = list(strategies)
    names = [strategy.name for strategy in strategies]
    if len(set(names)) != len(names):
        raise ValueError("strategy names must be unique")

    timer = Timer()
    outcomes: Dict[str, JobResult] = {}
    with timer:
        for strategy in strategies:
            if deadline is not None and timer.lap() >= deadline:
                outcomes[strategy.name] = _unfinished_result(strategy, problem)
            else:
                outcomes[strategy.name] = run_strategy(
                    strategy, problem, relocation, options, weights
                )
    return PortfolioResult(
        outcomes=outcomes, winner=_pick_winner(names, outcomes), wall_time=timer.elapsed
    )


def _unfinished_result(strategy: Strategy, problem: FloorplanProblem) -> JobResult:
    return JobResult(
        fingerprint="",
        job_name=f"{problem.name}[{strategy.name}]",
        status="deadline",
        feasible=False,
        objective=float("nan"),
        solve_time=0.0,
        wall_time=0.0,
        backend="",
        mode=strategy.mode if strategy.kind == "milp" else "heuristic",
        error="shared portfolio deadline expired",
    )


def _pick_winner(names: List[str], outcomes: Dict[str, JobResult]) -> Optional[str]:
    feasible = [name for name in names if outcomes[name].feasible]
    if not feasible:
        return None
    return min(feasible, key=lambda name: outcomes[name].objective_key())
