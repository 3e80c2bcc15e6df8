"""Stochastic arrival processes emitting timed mode-activation requests.

Four generator families cover the scenarios the online benchmarks need:

* :class:`PoissonTraffic` — homogeneous Poisson arrivals (batched exponential
  gap-sampling by default, order-statistics inversion on request);
* :class:`InhomogeneousPoissonTraffic` — time-varying rate λ(t) simulated by
  the inversion / order-statistics method of the IPPP package (PAPERS.md):
  draw N ~ Poisson(Λ(T)), then map sorted uniforms through the inverse
  cumulative rate.  The tests compare it with the classic Lewis–Shedler
  thinning loop;
* :class:`MMPPTraffic` — a two-state Markov-modulated Poisson process for
  bursty traffic (quiet/burst phases with exponential sojourns), vectorized
  per phase by memorylessness;
* :class:`TraceReplayTraffic` — deterministic replay of a (possibly timed)
  :class:`~repro.runtime.scheduler.ModeSchedule`.

Every generator is seeded through :func:`repro.utils.rng.make_rng`, so a
``generate(horizon)`` call is bit-for-bit reproducible.

Stream layout: arrival *times* consume ``make_rng(seed)``, region picks
``make_rng(seed + 1)``, mode picks ``make_rng(seed + 2)`` and MMPP phase
sojourns ``make_rng(seed + 3)``.  Hoisting the draws onto independent streams
(the idiom :class:`~repro.sim.faults.RandomFaults` established) is what lets
the batched numpy implementation produce *bitwise identical* request streams
to per-event loops: ``rng.exponential(s, size=n)`` consumes the same
underlying draws as ``n`` scalar calls and ``np.cumsum`` accumulates strictly
left-to-right.  The equivalence property tests pin this against the per-event
reference generators in ``tests/sim/traffic_oracles.py``.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import TYPE_CHECKING, Callable, List, Sequence

import numpy as np

from repro.utils.rng import make_rng

if TYPE_CHECKING:  # the runtime stack loads only when a capture is replayed
    from repro.runtime.scheduler import ModeSchedule


@dataclasses.dataclass(frozen=True)
class ModeRequest:
    """One timed request: reconfigure ``region`` to ``mode`` at ``time``."""

    time: float
    region: str
    mode: str


def batched_poisson_times(rng, rate: float, horizon: float) -> np.ndarray:
    """Arrival instants of a homogeneous Poisson process, batch-generated.

    Draws exponential gaps in blocks and cumulative-sums them; the result is
    bitwise identical to the scalar ``time += rng.exponential(1/rate)`` loop
    because both consume the same draws in the same order and accumulate with
    the same sequence of float64 additions.
    """
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    scale = 1.0 / rate
    block = max(64, int(rate * horizon * 1.2) + 32)
    gaps = rng.exponential(scale, size=block)
    times = np.cumsum(gaps)
    while times[-1] < horizon:
        gaps = np.concatenate([gaps, rng.exponential(scale, size=block)])
        times = np.cumsum(gaps)
    return times[times < horizon]


class TrafficModel(abc.ABC):
    """Base class of arrival generators."""

    @abc.abstractmethod
    def generate(self, horizon: float) -> List[ModeRequest]:
        """All requests with ``time < horizon``, in non-decreasing time order."""

    @staticmethod
    def _check_horizon(horizon: float) -> float:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return float(horizon)


class _RandomModeMixin:
    """Uniform region/mode picking shared by the stochastic generators.

    Picks live on their own seeded streams (``seed + 1`` for regions,
    ``seed + 2`` for modes) so the arrival-time stream is identical between
    the vectorized generators and their per-event test references.
    """

    regions: Sequence[str]
    modes_per_region: int
    seed: int

    def _check_population(self) -> None:
        if not self.regions:
            raise ValueError("need at least one region to generate traffic")
        if self.modes_per_region <= 0:
            raise ValueError("modes_per_region must be positive")

    def _mode_names(self) -> List[str]:
        return [f"mode{index + 1}" for index in range(self.modes_per_region)]

    def _materialize(self, times: np.ndarray) -> List[ModeRequest]:
        """Attach batch-drawn region/mode picks to sorted arrival times."""
        count = len(times)
        region_idx = make_rng(self.seed + 1).integers(len(self.regions), size=count)
        mode_idx = make_rng(self.seed + 2).integers(self.modes_per_region, size=count)
        regions, modes = self.regions, self._mode_names()
        return [
            ModeRequest(time=float(time), region=regions[r], mode=modes[m])
            for time, r, m in zip(times, region_idx, mode_idx)
        ]


class PoissonTraffic(_RandomModeMixin, TrafficModel):
    """Homogeneous Poisson arrivals at ``rate`` requests per second.

    ``method="gap"`` (default) batch-samples exponential gaps — bitwise
    identical to the per-event gap-sampling loop.
    ``method="inversion"`` uses the order-statistics construction
    (N ~ Poisson(rate·T), sorted uniforms scaled to the horizon); it draws a
    different stream but the same distribution, which the property tests
    check KS-style.
    """

    def __init__(
        self,
        regions: Sequence[str],
        rate: float,
        modes_per_region: int = 3,
        seed: int = 0,
        method: str = "gap",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if method not in ("gap", "inversion"):
            raise ValueError(f"method must be 'gap' or 'inversion', got {method!r}")
        self.regions = list(regions)
        self.rate = float(rate)
        self.modes_per_region = modes_per_region
        self.seed = seed
        self.method = method
        self._check_population()

    def generate(self, horizon: float) -> List[ModeRequest]:
        horizon = self._check_horizon(horizon)
        rng = make_rng(self.seed)
        if self.method == "inversion":
            count = int(rng.poisson(self.rate * horizon))
            times = np.sort(rng.random(count)) * horizon
            times = times[times < horizon]
        else:
            times = batched_poisson_times(rng, self.rate, horizon)
        return self._materialize(times)


#: Samples of the tabulated cumulative rate Λ(t) the IPPP inversion uses.
LAMBDA_GRID_POINTS = 1025


class InhomogeneousPoissonTraffic(_RandomModeMixin, TrafficModel):
    """Inhomogeneous Poisson arrivals with rate ``rate_fn(t)``.

    The default path is the IPPP inversion method: the cumulative rate
    Λ(t) = ∫₀ᵗ λ(s) ds is tabulated by the trapezoid rule on
    :data:`LAMBDA_GRID_POINTS` samples, N ~ Poisson(Λ(T)) arrivals are drawn,
    and sorted uniforms on [0, Λ(T)] are mapped through the inverse of Λ by linear interpolation.
    ``rate_fn`` must satisfy ``0 <= rate_fn(t) <= rate_max`` over the horizon
    (checked on the grid; violations raise, as the thinning loop always did).

    It agrees with the Lewis–Shedler thinning loop distributionally (same
    seed, KS-tested) but not draw-for-draw.
    """

    def __init__(
        self,
        regions: Sequence[str],
        rate_fn: Callable[[float], float],
        rate_max: float,
        modes_per_region: int = 3,
        seed: int = 0,
    ) -> None:
        if rate_max <= 0:
            raise ValueError(f"rate_max must be positive, got {rate_max}")
        self.regions = list(regions)
        self.rate_fn = rate_fn
        self.rate_max = float(rate_max)
        self.modes_per_region = modes_per_region
        self.seed = seed
        self._check_population()

    def _rates_on_grid(self, grid: np.ndarray) -> np.ndarray:
        rates = np.array([float(self.rate_fn(t)) for t in grid])
        bad = (rates < 0) | (rates > self.rate_max + 1e-9)
        if bad.any():
            where = int(np.argmax(bad))
            raise ValueError(
                f"rate_fn({grid[where]:.6f}) = {rates[where]} "
                f"outside [0, rate_max={self.rate_max}]"
            )
        return rates

    def generate(self, horizon: float) -> List[ModeRequest]:
        horizon = self._check_horizon(horizon)
        rng = make_rng(self.seed)
        grid = np.linspace(0.0, horizon, LAMBDA_GRID_POINTS)
        rates = self._rates_on_grid(grid)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(grid))]
        )
        total = float(cumulative[-1])
        count = int(rng.poisson(total)) if total > 0 else 0
        marks = np.sort(rng.random(count)) * total
        times = np.interp(marks, cumulative, grid)
        times = times[times < horizon]
        return self._materialize(times)


def sinusoidal_rate(
    base: float, amplitude: float, period: float
) -> Callable[[float], float]:
    """A diurnal-style rate ``base + amplitude * sin(2*pi*t / period)``.

    ``amplitude <= base`` keeps the rate non-negative; the dominating rate
    for thinning is ``base + amplitude``.
    """
    if base <= 0 or period <= 0:
        raise ValueError("base and period must be positive")
    if not 0 <= amplitude <= base:
        raise ValueError("amplitude must be within [0, base]")

    def rate(time: float) -> float:
        return base + amplitude * math.sin(2.0 * math.pi * time / period)

    return rate


class MMPPTraffic(_RandomModeMixin, TrafficModel):
    """Two-state Markov-modulated Poisson process (quiet/burst phases).

    The modulating chain alternates between state 0 (rate ``rates[0]``) and
    state 1 (rate ``rates[1]``); sojourn times in each state are exponential
    with the given means.  This is the standard bursty-traffic model: long
    quiet stretches punctuated by high-rate bursts.

    Phase sojourns are drawn on their own stream (``seed + 3``), so the
    vectorized path and a per-event loop see *identical* phase
    boundaries; within each phase, memorylessness makes per-phase
    order-statistics regeneration exact, which the distributional property
    tests check window by window.
    """

    def __init__(
        self,
        regions: Sequence[str],
        rates: Sequence[float] = (1.0, 10.0),
        mean_sojourns: Sequence[float] = (10.0, 2.0),
        modes_per_region: int = 3,
        seed: int = 0,
    ) -> None:
        if len(rates) != 2 or len(mean_sojourns) != 2:
            raise ValueError("MMPP is two-state: need exactly 2 rates and 2 sojourns")
        if any(rate <= 0 for rate in rates) or any(s <= 0 for s in mean_sojourns):
            raise ValueError("rates and mean sojourns must be positive")
        self.regions = list(regions)
        self.rates = tuple(float(rate) for rate in rates)
        self.mean_sojourns = tuple(float(s) for s in mean_sojourns)
        self.modes_per_region = modes_per_region
        self.seed = seed
        self._check_population()

    def phase_segments(self, horizon: float) -> List[tuple]:
        """``(start, end, state)`` segments of the modulating chain on [0, T)."""
        rng = make_rng(self.seed + 3)
        segments: List[tuple] = []
        state, time = 0, 0.0
        while time < horizon:
            sojourn = float(rng.exponential(self.mean_sojourns[state]))
            segments.append((time, min(time + sojourn, horizon), state))
            time += sojourn
            state = 1 - state
        return segments

    def generate(self, horizon: float) -> List[ModeRequest]:
        horizon = self._check_horizon(horizon)
        rng = make_rng(self.seed)
        parts: List[np.ndarray] = []
        for start, end, state in self.phase_segments(horizon):
            length = end - start
            if length <= 0:
                continue
            count = int(rng.poisson(self.rates[state] * length))
            if count:
                parts.append(start + np.sort(rng.random(count)) * length)
        if parts:
            times = np.concatenate(parts)
            times = times[times < horizon]
        else:
            times = np.empty(0)
        return self._materialize(times)


class TraceReplayTraffic(TrafficModel):
    """Deterministic replay of a :class:`ModeSchedule` as timed requests.

    Dwell times become activation timestamps through
    :meth:`ModeSchedule.timed_steps`; an untimed schedule replays as a burst
    at ``t=0`` in the original order.  ``offset`` shifts the whole replay.
    """

    def __init__(self, schedule: ModeSchedule, offset: float = 0.0) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.schedule = schedule
        self.offset = float(offset)

    @classmethod
    def from_capture(cls, capture: dict, offset: float = 0.0) -> "TraceReplayTraffic":
        """Replay a production capture (:mod:`repro.obs.capture`).

        The capture's embedded schedule encodes each captured solve request
        as one activation (region = job name, mode = fingerprint tag) with
        dwells equal to the observed inter-arrival gaps, so the simulator
        sees the production request sequence at its original cadence.
        """
        from repro.runtime.scheduler import ModeSchedule

        schedule = ModeSchedule.from_dict(capture.get("schedule", {}))
        if not schedule.steps:
            raise ValueError("capture carries no replayable requests")
        return cls(schedule, offset=offset)

    def generate(self, horizon: float) -> List[ModeRequest]:
        horizon = self._check_horizon(horizon)
        return [
            ModeRequest(time=self.offset + time, region=region, mode=mode)
            for time, region, mode in self.schedule.timed_steps()
            if self.offset + time < horizon
        ]
