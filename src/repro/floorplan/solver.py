"""User-facing floorplanning facade.

:class:`FloorplanSolver` wires together the base MILP (:mod:`milp_builder`),
the relocation extension (:mod:`repro.relocation.constraints`), the HO seeding
machinery (:mod:`ho`) and the MILP backends, and returns a
:class:`SolveReport` bundling the floorplan, the raw solver result, the
measured metrics and an independent feasibility verification.

Typical usage::

    problem = sdr_problem()
    spec = RelocationSpec.as_constraint({"Carrier Recovery": 2, "Demodulator": 2})
    solver = FloorplanSolver(problem, relocation=spec, mode="HO",
                             options=SolverOptions(time_limit=60))
    report = solver.solve()
    print(render_floorplan(report.floorplan))
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.floorplan.metrics import (
    FloorplanMetrics,
    ObjectiveWeights,
    evaluate_floorplan,
    wasted_frames,
)
from repro.floorplan.candidates import enumerate_areas
from repro.floorplan.milp_builder import AreaSpec, FloorplanMILP, build_floorplan_milp
from repro.floorplan.placement import Floorplan
from repro.floorplan.problem import FloorplanProblem
from repro.floorplan.verify import VerificationReport, verify_floorplan
from repro.milp import MILPSolution, SolverOptions, solve
from repro.obs.trace import collect_stages, record_stage, stage_timer


@dataclasses.dataclass
class SolveReport:
    """Everything produced by one :meth:`FloorplanSolver.solve` call."""

    floorplan: Floorplan
    solution: MILPSolution
    metrics: Optional[FloorplanMetrics]
    verification: Optional[VerificationReport]
    milp: FloorplanMILP
    #: Solver stage timings (name/seconds dicts) collected by
    #: :func:`repro.obs.trace.collect_stages` during :func:`run_job`; ``None``
    #: outside service solves.  :class:`~repro.service.results.JobResult`
    #: carries them to the gateway, which attaches per-stage spans to the
    #: request trace.
    stages: Optional[List[Dict[str, object]]] = None

    @property
    def feasible(self) -> bool:
        """Whether a verified-feasible floorplan was obtained."""
        return (
            self.solution.status.has_solution
            and self.verification is not None
            and self.verification.is_feasible
        )

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"status: {self.solution.status.value} (backend {self.solution.backend}, "
            f"{self.solution.solve_time:.2f}s)",
        ]
        if self.metrics is not None:
            lines.append(
                f"wasted frames: {self.metrics.wasted_frames}, "
                f"wirelength: {self.metrics.wirelength:.1f}, "
                f"free-compatible areas: {self.metrics.free_compatible_areas}"
            )
        if self.verification is not None:
            lines.append(f"verification: {self.verification.summary()}")
        return "\n".join(lines)


class FloorplanSolver:
    """Relocation-aware MILP floorplanner (O and HO modes).

    Parameters
    ----------
    problem:
        The floorplanning instance.
    relocation:
        Optional :class:`~repro.relocation.spec.RelocationSpec`; when omitted
        the solver behaves exactly like the base floorplanner of [10].
    mode:
        ``"O"`` explores the full search space; ``"HO"`` constrains the MILP
        with the sequence pair of a heuristic seed.
    options:
        MILP backend options (time limit, gap, backend choice).
    heuristic:
        Heuristic used to produce the HO seed (``"tessellation"``,
        ``"first-fit"`` or ``"annealing"``).
    seed_floorplan:
        Optional externally-provided heuristic floorplan used as the HO seed
        (free-compatible areas are added on top if the spec requires them).
    prune:
        In :func:`~repro.floorplan.milp_builder.build_floorplan_milp`, drop
        candidate rectangles that cannot satisfy an HO fixed relation or
        cannot beat the heuristic seed (exact; on by default).
    """

    def __init__(
        self,
        problem: FloorplanProblem,
        relocation=None,
        mode: str = "O",
        options: SolverOptions | None = None,
        heuristic: str = "tessellation",
        seed_floorplan: Floorplan | None = None,
        prune: bool = True,
    ) -> None:
        mode = mode.upper()
        if mode not in ("O", "HO"):
            raise ValueError(f"mode must be 'O' or 'HO', got {mode!r}")
        self.problem = problem
        self.relocation = relocation
        self.mode = mode
        self.options = options or SolverOptions()
        self.heuristic = heuristic
        self.seed_floorplan = seed_floorplan
        self.prune = prune
        self._seed = None  # populated lazily in HO mode

    # ------------------------------------------------------------------
    def build(self, weights: ObjectiveWeights | None = None) -> FloorplanMILP:
        """Build the (relocation-extended) MILP for ``weights`` without solving it.

        Every area's candidate rectangles are enumerated once; the heuristic
        seed's placers and the builder both select from them.  The seed is
        the incumbent the builder filters candidates with and the model's MIP
        start; in HO mode its sequence pair also fixes the relative positions.
        """
        from repro.floorplan.ho import HOSeeder, HOSeedError
        from repro.relocation.constraints import apply_relocation_constraints

        extra_areas = []
        if self.relocation is not None and len(self.relocation) > 0:
            extra_areas = self.relocation.build_area_specs(self.problem)

        started = time.perf_counter()
        areas = [AreaSpec.for_region(region) for region in self.problem.regions] + extra_areas
        candidates = enumerate_areas(self.problem.device, areas)
        enumerate_seconds = time.perf_counter() - started

        started = time.perf_counter()
        try:
            seed = HOSeeder(self.problem, candidates).build_seed(
                spec=self.relocation, heuristic=self.heuristic, initial=self.seed_floorplan
            )
        except HOSeedError:
            if self.mode == "HO":
                raise
            seed = None  # O mode solves without an incumbent
        record_stage(
            "floorplan.ho_seed",
            time.perf_counter() - started,
            seed_status=seed.floorplan.solver_status if seed is not None else "failed",
            seed_wasted_frames=wasted_frames(seed.floorplan) if seed is not None else None,
        )
        fixed_relations: Dict[Tuple[str, str], str] | None = None
        if self.mode == "HO":
            self._seed = seed
            fixed_relations = seed.fixed_relations()

        started = time.perf_counter()
        milp = build_floorplan_milp(
            self.problem,
            extra_areas=extra_areas,
            fixed_relations=fixed_relations,
            model_name=f"{self.problem.name}[{self.mode}]",
            prune=self.prune,
            incumbent=seed.floorplan if seed is not None else None,
            weights=weights,
            candidates=candidates,
        )
        if extra_areas:
            apply_relocation_constraints(milp)
        record_stage(
            "floorplan.build",
            enumerate_seconds + time.perf_counter() - started,
            mode=self.mode,
            candidates=milp.enumerated,
            candidates_related=milp.related,
            candidates_kept=milp.kept,
        )
        return milp

    # ------------------------------------------------------------------
    def solve(
        self,
        weights: ObjectiveWeights | None = None,
        lexicographic: bool = False,
    ) -> SolveReport:
        """Solve the instance.

        Parameters
        ----------
        weights:
            Objective weights of eq. 14 (defaults to
            :meth:`ObjectiveWeights.paper_default`).
        lexicographic:
            Reproduce the Section VI protocol: first minimize wasted frames,
            then — with the wasted-frame count fixed at its optimum — minimize
            wirelength.
        """
        weights = weights or ObjectiveWeights.paper_default()
        milp = self.build(weights=_phase1_weights(weights) if lexicographic else weights)

        if lexicographic:
            return self._solve_lexicographic(milp, weights)

        solution = self._search(milp)
        return self._finalize(milp, solution, weights)

    def _search(self, milp: FloorplanMILP) -> MILPSolution:
        """Solve ``milp`` from its start, presolving unless it is an HO search.

        Searched from the seed, an HO model (relations fixed by the seed's
        sequence pair) solves faster without HiGHS's presolve: the deadline
        instance answers in 21 s instead of 51 s.  An O model keeps it: SDR
        takes ~17 s with presolve and 28-37 s without.
        """
        presolve = milp.start is None or self.mode == "O"
        return solve(milp.model, self.options, start=milp.start, presolve=presolve)

    # ------------------------------------------------------------------
    def _solve_lexicographic(
        self, milp: FloorplanMILP, weights: ObjectiveWeights
    ) -> SolveReport:
        # Phase 1 (installed by the build): wasted frames plus the relocation
        # term, since missing areas are part of the primary cost in Section V.
        phase1_weights = _phase1_weights(weights)
        first = self._search(milp)
        if not first.status.has_solution:
            return self._finalize(milp, first, phase1_weights)

        # Phase 2: cap the area cost at its phase-1 value and polish wires.
        milp.cap_wasted_frames(milp.wasted_frames_expr.evaluate(first.values))
        phase2_weights = ObjectiveWeights(
            wirelength=1.0,
            perimeter=weights.perimeter,
            wasted_frames=0.0,
            relocation=weights.relocation,
        )
        milp.set_objective(phase2_weights)
        second = solve(milp.model, self.options)
        if second.status.has_solution:
            return self._finalize(milp, second, phase2_weights)
        return self._finalize(milp, first, phase1_weights)

    # ------------------------------------------------------------------
    def _finalize(
        self, milp: FloorplanMILP, solution: MILPSolution, weights: ObjectiveWeights
    ) -> SolveReport:
        return _finalize_report(milp, solution, weights, seed=self._seed)


def _phase1_weights(weights: ObjectiveWeights) -> ObjectiveWeights:
    """Phase-1 weights of the lexicographic protocol: area and relocation only."""
    return ObjectiveWeights(
        wirelength=0.0, perimeter=0.0, wasted_frames=1.0, relocation=weights.relocation
    )


def run_job(job) -> SolveReport:
    """Solve one job: the entry point of :func:`repro.service.executor.execute_job`.

    ``job`` is any object exposing the :class:`~repro.service.jobs.SolveJob`
    attributes (``problem``, ``relocation``, ``mode``, ``options``,
    ``heuristic``, ``weights``, ``lexicographic``) — duck-typed so this module
    does not depend on the service layer.  The function holds no state, so
    any thread may run it; the report carries the solve's stage timings.
    """
    solver = FloorplanSolver(
        job.problem,
        relocation=job.relocation,
        mode=job.mode,
        options=job.options,
        heuristic=job.heuristic,
    )
    # Collect solver stage timings (floorplan.ho_seed, floorplan.build,
    # milp.lower, milp.search, floorplan.postsolve) on this thread so the serving layers
    # can attach them to the request trace — the collector is thread-local,
    # and each solve runs start to end on one of the gateway's solver threads.
    with collect_stages() as stages:
        report = solver.solve(weights=job.weights, lexicographic=job.lexicographic)
    report.stages = stages or None
    return report


def _finalize_report(
    milp: FloorplanMILP, solution: MILPSolution, weights: ObjectiveWeights, seed=None
) -> SolveReport:
    with stage_timer("floorplan.postsolve"):
        floorplan = milp.extract(solution)
        if seed is not None:
            floorplan.metadata["ho_seed_status"] = seed.floorplan.solver_status
        metrics = None
        verification = None
        if solution.status.has_solution and floorplan.is_complete:
            metrics = evaluate_floorplan(floorplan, weights)
            verification = verify_floorplan(floorplan)
    return SolveReport(
        floorplan=floorplan,
        solution=solution,
        metrics=metrics,
        verification=verification,
        milp=milp,
    )
