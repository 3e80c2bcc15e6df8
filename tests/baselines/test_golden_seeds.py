"""Golden heuristic seeds: the rectangles every greedy placer returns.

The greedy placers, the relocation-aware greedy and the HO seeder feed the
MILP its incumbent and its sequence-pair relations, so any change to which
rectangle they pick changes the model the solver searches.  This table pins
their exact output — every region rectangle, every reserved free-compatible
area and the ``solver_status`` — on the SDR instance (without relocation and
with the SDR2 spec, hard and soft) and on the five miss instances of the
serving benchmark, rebuilt from :mod:`repro.workloads`.  ``free-areas`` is
``HOSeeder.add_free_areas`` on the tessellation seed, the HO seeder's
fallback when the relocation-aware greedy fails; a short annealing run pins
the annealer's greedy start.
"""

import pytest

from repro.baselines import (
    AnnealingOptions,
    annealing_floorplan,
    first_fit_floorplan,
    relocation_aware_greedy,
    tessellation_floorplan,
)
from repro.device.catalog import synthetic_device
from repro.floorplan.ho import HOSeedError, HOSeeder
from repro.relocation.spec import RelocationSpec
from repro.workloads.sdr import sdr2_spec, sdr_problem
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem


def _synthetic(width, height, regions, utilization, seed):
    def build():
        config = SyntheticWorkloadConfig(num_regions=regions, utilization=utilization, seed=seed)
        return synthetic_problem(
            synthetic_device(width, height), config,
            name=f"syn{width}x{height}-{regions}r-u{utilization}-s{seed}",
        )
    return build


def _free_areas_on_tessellation(problem, spec):
    """``HOSeeder.add_free_areas`` on top of the tessellation seed."""
    try:
        return HOSeeder(problem).add_free_areas(tessellation_floorplan(problem), spec)
    except HOSeedError:
        return "HOSeedError"


PLACERS = {
    "first-fit": lambda problem, spec: first_fit_floorplan(problem),
    "tessellation": lambda problem, spec: tessellation_floorplan(problem),
    "tessellation-unaligned": lambda problem, spec: tessellation_floorplan(
        problem, align_rows=False
    ),
    "annealing": lambda problem, spec: annealing_floorplan(
        problem, AnnealingOptions(iterations=300)
    ),
    "relocation-greedy": relocation_aware_greedy,
    "ho-seed": lambda problem, spec: HOSeeder(problem).build_seed(spec).floorplan,
    "free-areas": _free_areas_on_tessellation,
}
_PLACERS = ("first-fit", "tessellation", "tessellation-unaligned", "annealing")
_RELOCATION = ("relocation-greedy", "ho-seed")

#: case -> (problem builder, relocation spec, placers pinned on it)
CASES = {
    "sdr": (sdr_problem, None, _PLACERS + _RELOCATION),
    "sdr2-hard": (sdr_problem, sdr2_spec(hard=True), _RELOCATION + ("free-areas",)),
    "sdr2-soft": (sdr_problem, sdr2_spec(hard=False), _RELOCATION + ("free-areas",)),
    "syn16x8": (_synthetic(16, 8, 2, 0.8, 0), None, _PLACERS + _RELOCATION),
    "syn12x5": (_synthetic(12, 5, 4, 0.5, 0), None, _PLACERS + _RELOCATION),
    "syn12x5-reloc": (
        _synthetic(12, 5, 3, 0.2, 0),
        RelocationSpec.as_constraint({"R0": 1}),
        _PLACERS + _RELOCATION + ("free-areas",),
    ),
    "syn24x8": (_synthetic(24, 8, 2, 0.7, 1), None, _PLACERS + _RELOCATION),
}


def snapshot(floorplan):
    """(status, ((region, (col, row, w, h)), ...), ((area, (col, row, w, h, region)), ...))."""
    if floorplan is None or isinstance(floorplan, str):
        return floorplan

    def box(rect):
        return (rect.col, rect.row, rect.width, rect.height)

    return (
        floorplan.solver_status,
        tuple((name, box(p.rect)) for name, p in floorplan.placements.items()),
        tuple(
            (name, box(p.rect) + (p.compatible_with,)) for name, p in floorplan.free_areas.items()
        ),
    )


@pytest.fixture(scope="module")
def problems():
    return {case: build() for case, (build, _, _) in CASES.items()}


@pytest.mark.parametrize(
    "case, placer",
    [(case, placer) for case, (_, _, placers) in CASES.items() for placer in placers],
)
def test_golden_seed(problems, case, placer):
    spec = CASES[case][1]
    assert snapshot(PLACERS[placer](problems[case], spec)) == GOLDEN[(case, placer)]


GOLDEN = {
    ("sdr", "first-fit"): (
        "first-fit",
        (
            ("Matched Filter", (0, 0, 9, 8)), ("Carrier Recovery", (9, 0, 14, 3)),
            ("Demodulator", (9, 6, 10, 2)), ("Signal Decoder", (15, 3, 5, 3)),
            ("Video Decoder", (20, 3, 13, 5)),
        ),
        (),
    ),
    ("sdr", "tessellation"): (
        "tessellation",
        (
            ("Matched Filter", (5, 0, 5, 8)), ("Carrier Recovery", (19, 0, 8, 1)),
            ("Demodulator", (1, 0, 4, 2)), ("Signal Decoder", (10, 1, 14, 1)),
            ("Video Decoder", (19, 2, 13, 5)),
        ),
        (),
    ),
    ("sdr", "tessellation-unaligned"): (
        "tessellation",
        (
            ("Video Decoder", (0, 0, 13, 5)), ("Matched Filter", (19, 0, 6, 5)),
            ("Carrier Recovery", (5, 5, 8, 1)), ("Signal Decoder", (9, 6, 13, 1)),
            ("Demodulator", (1, 5, 4, 2)),
        ),
        (),
    ),
    ("sdr", "annealing"): (
        "annealing-infeasible",
        (
            ("Video Decoder", (4, 0, 9, 8)), ("Matched Filter", (18, 2, 7, 5)),
            ("Signal Decoder", (26, 0, 3, 7)), ("Carrier Recovery", (31, 4, 2, 4)),
            ("Demodulator", (30, 2, 3, 2)),
        ),
        (),
    ),
    ("sdr", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("Video Decoder", (0, 0, 13, 5)), ("Matched Filter", (19, 0, 6, 5)),
            ("Carrier Recovery", (5, 5, 8, 1)), ("Signal Decoder", (9, 6, 13, 1)),
            ("Demodulator", (1, 5, 4, 2)),
        ),
        (),
    ),
    ("sdr", "ho-seed"): (
        "tessellation",
        (
            ("Matched Filter", (5, 0, 5, 8)), ("Carrier Recovery", (19, 0, 8, 1)),
            ("Demodulator", (1, 0, 4, 2)), ("Signal Decoder", (10, 1, 14, 1)),
            ("Video Decoder", (19, 2, 13, 5)),
        ),
        (),
    ),
    ("sdr2-hard", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("Video Decoder", (0, 0, 13, 5)), ("Matched Filter", (19, 0, 6, 5)),
            ("Carrier Recovery", (5, 5, 8, 1)), ("Signal Decoder", (19, 5, 14, 1)),
            ("Demodulator", (1, 5, 4, 2)),
        ),
        (
            ("Carrier Recovery 1", (5, 6, 8, 1, "Carrier Recovery")),
            ("Carrier Recovery 2", (5, 7, 8, 1, "Carrier Recovery")),
            ("Signal Decoder 1", (19, 6, 14, 1, "Signal Decoder")),
            ("Signal Decoder 2", (19, 7, 14, 1, "Signal Decoder")),
            ("Demodulator 1", (15, 0, 4, 2, "Demodulator")),
            ("Demodulator 2", (15, 2, 4, 2, "Demodulator")),
        ),
    ),
    ("sdr2-hard", "ho-seed"): (
        "relocation-greedy",
        (
            ("Video Decoder", (0, 0, 13, 5)), ("Matched Filter", (19, 0, 6, 5)),
            ("Carrier Recovery", (5, 5, 8, 1)), ("Signal Decoder", (19, 5, 14, 1)),
            ("Demodulator", (1, 5, 4, 2)),
        ),
        (
            ("Carrier Recovery 1", (5, 6, 8, 1, "Carrier Recovery")),
            ("Carrier Recovery 2", (5, 7, 8, 1, "Carrier Recovery")),
            ("Signal Decoder 1", (19, 6, 14, 1, "Signal Decoder")),
            ("Signal Decoder 2", (19, 7, 14, 1, "Signal Decoder")),
            ("Demodulator 1", (15, 0, 4, 2, "Demodulator")),
            ("Demodulator 2", (15, 2, 4, 2, "Demodulator")),
        ),
    ),
    ("sdr2-hard", "free-areas"): "HOSeedError",
    ("sdr2-soft", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("Video Decoder", (0, 0, 13, 5)), ("Matched Filter", (19, 0, 6, 5)),
            ("Carrier Recovery", (5, 5, 8, 1)), ("Signal Decoder", (13, 6, 14, 1)),
            ("Demodulator", (1, 5, 4, 2)),
        ),
        (
            ("Carrier Recovery 1", (5, 6, 8, 1, "Carrier Recovery")),
            ("Carrier Recovery 2", (5, 7, 8, 1, "Carrier Recovery")),
            ("Signal Decoder 1", (13, 7, 14, 1, "Signal Decoder")),
            ("Demodulator 1", (15, 0, 4, 2, "Demodulator")),
            ("Demodulator 2", (15, 2, 4, 2, "Demodulator")),
        ),
    ),
    ("sdr2-soft", "ho-seed"): (
        "relocation-greedy",
        (
            ("Video Decoder", (0, 0, 13, 5)), ("Matched Filter", (19, 0, 6, 5)),
            ("Carrier Recovery", (5, 5, 8, 1)), ("Signal Decoder", (13, 6, 14, 1)),
            ("Demodulator", (1, 5, 4, 2)),
        ),
        (
            ("Carrier Recovery 1", (5, 6, 8, 1, "Carrier Recovery")),
            ("Carrier Recovery 2", (5, 7, 8, 1, "Carrier Recovery")),
            ("Signal Decoder 1", (13, 7, 14, 1, "Signal Decoder")),
            ("Demodulator 1", (15, 0, 4, 2, "Demodulator")),
            ("Demodulator 2", (15, 2, 4, 2, "Demodulator")),
        ),
    ),
    ("sdr2-soft", "free-areas"): (
        "tessellation",
        (
            ("Matched Filter", (5, 0, 5, 8)), ("Carrier Recovery", (19, 0, 8, 1)),
            ("Demodulator", (1, 0, 4, 2)), ("Signal Decoder", (10, 1, 14, 1)),
            ("Video Decoder", (19, 2, 13, 5)),
        ),
        (
            ("Carrier Recovery 1", (19, 7, 8, 1, "Carrier Recovery")),
            ("Demodulator 1", (1, 2, 4, 2, "Demodulator")),
            ("Demodulator 2", (1, 4, 4, 2, "Demodulator")),
        ),
    ),
    ("syn16x8", "first-fit"): (
        "first-fit",
        (
            ("R1", (0, 0, 7, 8)), ("R0", (7, 0, 6, 8)),
        ),
        (),
    ),
    ("syn16x8", "tessellation"): (
        "tessellation",
        (
            ("R1", (0, 0, 14, 4)), ("R0", (0, 4, 9, 4)),
        ),
        (),
    ),
    ("syn16x8", "tessellation-unaligned"): (
        "tessellation",
        (
            ("R1", (0, 0, 9, 6)), ("R0", (11, 0, 4, 8)),
        ),
        (),
    ),
    ("syn16x8", "annealing"): (
        "annealing",
        (
            ("R1", (0, 0, 9, 6)), ("R0", (11, 0, 4, 8)),
        ),
        (),
    ),
    ("syn16x8", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("R1", (0, 0, 9, 6)), ("R0", (11, 0, 4, 8)),
        ),
        (),
    ),
    ("syn16x8", "ho-seed"): (
        "tessellation",
        (
            ("R1", (0, 0, 14, 4)), ("R0", (0, 4, 9, 4)),
        ),
        (),
    ),
    ("syn12x5", "first-fit"): None,
    ("syn12x5", "tessellation"): (
        "tessellation",
        (
            ("R3", (0, 0, 5, 2)), ("R1", (6, 0, 4, 2)), ("R0", (0, 2, 2, 2)),
            ("R2", (7, 2, 3, 1)),
        ),
        (),
    ),
    ("syn12x5", "tessellation-unaligned"): (
        "tessellation",
        (
            ("R3", (0, 0, 3, 3)), ("R1", (6, 0, 4, 2)), ("R0", (0, 3, 2, 2)),
            ("R2", (7, 2, 3, 1)),
        ),
        (),
    ),
    ("syn12x5", "annealing"): (
        "annealing-infeasible",
        (
            ("R3", (0, 0, 2, 5)), ("R1", (2, 1, 8, 1)), ("R0", (10, 0, 2, 4)),
            ("R2", (9, 0, 1, 1)),
        ),
        (),
    ),
    ("syn12x5", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("R3", (0, 0, 3, 3)), ("R1", (6, 0, 4, 2)), ("R0", (0, 3, 2, 2)),
            ("R2", (7, 2, 3, 1)),
        ),
        (),
    ),
    ("syn12x5", "ho-seed"): (
        "tessellation",
        (
            ("R3", (0, 0, 5, 2)), ("R1", (6, 0, 4, 2)), ("R0", (0, 2, 2, 2)),
            ("R2", (7, 2, 3, 1)),
        ),
        (),
    ),
    ("syn12x5-reloc", "first-fit"): (
        "first-fit",
        (
            ("R1", (0, 0, 1, 5)), ("R0", (1, 0, 1, 5)), ("R2", (2, 0, 8, 5)),
        ),
        (),
    ),
    ("syn12x5-reloc", "tessellation"): (
        "tessellation",
        (
            ("R2", (8, 0, 2, 1)), ("R1", (0, 0, 1, 4)), ("R0", (0, 4, 2, 1)),
        ),
        (),
    ),
    ("syn12x5-reloc", "tessellation-unaligned"): (
        "tessellation",
        (
            ("R2", (8, 0, 2, 1)), ("R1", (0, 0, 1, 4)), ("R0", (0, 4, 2, 1)),
        ),
        (),
    ),
    ("syn12x5-reloc", "annealing"): (
        "annealing",
        (
            ("R1", (4, 0, 1, 4)), ("R0", (3, 3, 1, 2)), ("R2", (5, 1, 6, 1)),
        ),
        (),
    ),
    ("syn12x5-reloc", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("R2", (8, 0, 2, 1)), ("R1", (0, 0, 1, 4)), ("R0", (0, 4, 2, 1)),
        ),
        (
            ("R0 1", (1, 0, 2, 1, "R0")),
        ),
    ),
    ("syn12x5-reloc", "ho-seed"): (
        "relocation-greedy",
        (
            ("R2", (8, 0, 2, 1)), ("R1", (0, 0, 1, 4)), ("R0", (0, 4, 2, 1)),
        ),
        (
            ("R0 1", (1, 0, 2, 1, "R0")),
        ),
    ),
    ("syn12x5-reloc", "free-areas"): (
        "tessellation",
        (
            ("R2", (8, 0, 2, 1)), ("R1", (0, 0, 1, 4)), ("R0", (0, 4, 2, 1)),
        ),
        (
            ("R0 1", (1, 0, 2, 1, "R0")),
        ),
    ),
    ("syn24x8", "first-fit"): (
        "first-fit",
        (
            ("R0", (0, 0, 11, 8)), ("R1", (11, 0, 9, 8)),
        ),
        (),
    ),
    ("syn24x8", "tessellation"): (
        "tessellation",
        (
            ("R0", (0, 0, 17, 4)), ("R1", (0, 4, 17, 4)),
        ),
        (),
    ),
    ("syn24x8", "tessellation-unaligned"): (
        "tessellation",
        (
            ("R0", (0, 0, 13, 5)), ("R1", (0, 5, 23, 3)),
        ),
        (),
    ),
    ("syn24x8", "annealing"): (
        "annealing",
        (
            ("R0", (0, 1, 11, 7)), ("R1", (11, 1, 9, 7)),
        ),
        (),
    ),
    ("syn24x8", "relocation-greedy"): (
        "relocation-greedy",
        (
            ("R0", (0, 0, 13, 5)), ("R1", (0, 5, 23, 3)),
        ),
        (),
    ),
    ("syn24x8", "ho-seed"): (
        "tessellation",
        (
            ("R0", (0, 0, 17, 4)), ("R1", (0, 4, 17, 4)),
        ),
        (),
    ),
}
