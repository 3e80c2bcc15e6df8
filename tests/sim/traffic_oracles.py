"""Per-event reference generators for the vectorized traffic models.

Each oracle draws one arrival at a time from the same seeded streams the
vectorized generator uses: arrival times from ``make_rng(seed)``, region
picks from ``seed + 1``, mode picks from ``seed + 2`` and MMPP phase sojourns
from ``seed + 3``.  For homogeneous Poisson gap-sampling the streams must be
identical; the inhomogeneous (Lewis–Shedler thinning) and MMPP oracles match
their generators in distribution only.
"""

from typing import List

from repro.sim.traffic import (
    InhomogeneousPoissonTraffic,
    MMPPTraffic,
    ModeRequest,
    PoissonTraffic,
)
from repro.utils.rng import make_rng


def _picker(traffic):
    """Per-event region/mode pick consuming the pick streams one draw at a time."""
    region_rng = make_rng(traffic.seed + 1)
    mode_rng = make_rng(traffic.seed + 2)
    regions = traffic.regions
    modes = [f"mode{index + 1}" for index in range(traffic.modes_per_region)]

    def pick(time: float) -> ModeRequest:
        region = regions[int(region_rng.integers(len(regions)))]
        mode = modes[int(mode_rng.integers(traffic.modes_per_region))]
        return ModeRequest(time=time, region=region, mode=mode)

    return pick


def poisson_reference(traffic: PoissonTraffic, horizon: float) -> List[ModeRequest]:
    """The scalar gap-sampling loop ``PoissonTraffic.generate`` replaced."""
    rng = make_rng(traffic.seed)
    pick = _picker(traffic)
    requests: List[ModeRequest] = []
    time = float(rng.exponential(1.0 / traffic.rate))
    while time < horizon:
        requests.append(pick(time))
        time += float(rng.exponential(1.0 / traffic.rate))
    return requests


def thinning_reference(
    traffic: InhomogeneousPoissonTraffic, horizon: float
) -> List[ModeRequest]:
    """Lewis–Shedler thinning of a ``rate_max`` process by ``rate_fn``."""
    rng = make_rng(traffic.seed)
    pick = _picker(traffic)
    requests: List[ModeRequest] = []
    time = float(rng.exponential(1.0 / traffic.rate_max))
    while time < horizon:
        rate = float(traffic.rate_fn(time))
        if rate < 0 or rate > traffic.rate_max + 1e-9:
            raise ValueError(
                f"rate_fn({time:.6f}) = {rate} outside [0, rate_max={traffic.rate_max}]"
            )
        if rng.random() < rate / traffic.rate_max:
            requests.append(pick(time))
        time += float(rng.exponential(1.0 / traffic.rate_max))
    return requests


def mmpp_reference(traffic: MMPPTraffic, horizon: float) -> List[ModeRequest]:
    """Gap-sampling restarted at each phase switch of the modulating chain."""
    phase_rng = make_rng(traffic.seed + 3)
    rng = make_rng(traffic.seed)
    pick = _picker(traffic)
    requests: List[ModeRequest] = []
    state, time = 0, 0.0
    phase_end = float(phase_rng.exponential(traffic.mean_sojourns[state]))
    while time < horizon:
        gap = float(rng.exponential(1.0 / traffic.rates[state]))
        if time + gap >= phase_end:
            # no arrival before the phase switch: jump states and retry
            time = phase_end
            state = 1 - state
            phase_end = time + float(phase_rng.exponential(traffic.mean_sojourns[state]))
            continue
        time += gap
        if time >= horizon:
            break
        requests.append(pick(time))
    return requests
