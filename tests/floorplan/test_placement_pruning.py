"""The candidate-rectangle enumerator against a per-rectangle brute force.

The brute force checks every rectangle of the device on its own through
:meth:`FPGADevice.tile_type_histogram` and
:meth:`FPGADevice.forbidden_cell_count` — no prefix sums — so it is an
independent oracle for the summed-area-table enumerator the MILP is built on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.catalog import synthetic_device
from repro.device.grid import FPGADevice, ForbiddenRect
from repro.device.resources import ResourceType, ResourceVector
from repro.floorplan.candidates import enumerate_candidates
from repro.floorplan.milp_builder import AreaSpec, build_floorplan_milp
from repro.floorplan.problem import FloorplanProblem, Region


def _brute_force(device: FPGADevice, area: AreaSpec):
    """Every feasible ``(x, y, w, h, frames)``, one rectangle at a time."""
    types = device.tile_type_list
    wmax = min(device.width, area.max_width or device.width)
    hmax = min(device.height, area.max_height or device.height)
    found = set()
    for w in range(1, wmax + 1):
        for h in range(1, hmax + 1):
            for x in range(device.width - w + 1):
                for y in range(device.height - h + 1):
                    if device.forbidden_cell_count(x, y, w, h):
                        continue
                    histogram = device.tile_type_histogram(x, y, w, h)
                    supply = ResourceVector.zero()
                    for tile_type, count in zip(types, histogram):
                        supply = supply + tile_type.resources * count
                    if not area.is_free_area and not supply.covers(area.requirements):
                        continue
                    frames = sum(t.frames * n for t, n in zip(types, histogram))
                    found.add((x, y, w, h, frames))
    return found


def _as_set(candidates):
    columns = (candidates.x, candidates.y, candidates.w, candidates.h, candidates.frames)
    return set(zip(*(c.tolist() for c in columns)))


@st.composite
def _device_and_area(draw):
    width = draw(st.integers(3, 11))
    height = draw(st.integers(2, 6))
    base = synthetic_device(
        width,
        height,
        bram_every=draw(st.integers(2, 5)),
        dsp_every=draw(st.integers(3, 7)),
        name="fuzz-dev",
    )
    forbidden = []
    for index in range(draw(st.integers(0, 2))):
        fw = draw(st.integers(1, max(1, width // 3)))
        fh = draw(st.integers(1, height))
        fc = draw(st.integers(0, width - fw))
        fr = draw(st.integers(0, height - fh))
        forbidden.append(ForbiddenRect(f"blk{index}", col=fc, row=fr, width=fw, height=fh))
    device = FPGADevice(
        "fuzz",
        [[base.tile_type_at(c, r) for r in range(height)] for c in range(width)],
        forbidden=forbidden,
    )
    if draw(st.booleans()):
        requirements = ResourceVector.zero()
        area = AreaSpec("free", requirements, compatible_with="r")
    else:
        requirements = ResourceVector(
            CLB=draw(st.integers(0, 6)),
            BRAM=draw(st.integers(0, 2)),
            DSP=draw(st.integers(0, 2)),
        )
        area = AreaSpec(
            "r",
            requirements,
            max_width=draw(st.one_of(st.none(), st.integers(1, width))),
            max_height=draw(st.one_of(st.none(), st.integers(1, height))),
        )
    return device, area


class TestEnumeratorMatchesBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(_device_and_area())
    def test_random_devices_with_forbidden_rects_and_caps(self, case):
        device, area = case
        candidates = enumerate_candidates(device, area)
        listed = _as_set(candidates)
        assert len(listed) == len(candidates)  # no rectangle listed twice
        assert listed == _brute_force(device, area)

    @pytest.mark.parametrize(
        "spec",
        [
            AreaSpec("clb", ResourceVector(CLB=4)),
            AreaSpec("bram", ResourceVector(BRAM=2), max_width=2),
            AreaSpec("dsp_tall", ResourceVector(DSP=3), max_width=1),
            AreaSpec("mixed", ResourceVector(CLB=3, DSP=1), max_width=3, max_height=4),
            AreaSpec("free", ResourceVector.zero(), compatible_with="clb"),
        ],
        ids=lambda s: s.name,
    )
    def test_matches_brute_force(self, spec):
        device = synthetic_device(14, 6, bram_every=5, dsp_every=9, name="mask-dev")
        assert _as_set(enumerate_candidates(device, spec)) == _brute_force(device, spec)

    def test_unsatisfiable_requirements_give_no_candidates(self):
        device = synthetic_device(10, 5, bram_every=4, dsp_every=9, name="empty-dev")
        spec = AreaSpec("r", ResourceVector(DSP=10_000), max_width=2)
        assert len(enumerate_candidates(device, spec)) == 0

    def test_resource_missing_from_device_gives_no_candidates(self):
        device = synthetic_device(6, 3, bram_every=2, dsp_every=100, name="no-dsp")
        assert all(
            t.resources.get(ResourceType.DSP) == 0 for t in device.tile_type_list
        )
        assert len(enumerate_candidates(device, AreaSpec("r", ResourceVector(DSP=1)))) == 0


class TestBuilderIntegration:
    def test_one_binary_per_candidate(self):
        device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="shape-dev")
        problem = FloorplanProblem(
            device, [Region("A", ResourceVector(DSP=2), max_width=1)], name="shape"
        )
        milp = build_floorplan_milp(problem, prune=False)
        assert len(milp.z["A"]) == len(milp.candidates["A"]) == milp.enumerated
        assert milp.model.stats().num_binary == len(milp.z["A"])
        for i in range(len(milp.candidates["A"])):
            assert milp.candidates["A"].rect(i).width == 1

    def test_infeasible_region_makes_model_infeasible(self):
        from repro.milp import SolveStatus, SolverOptions, solve

        device = synthetic_device(20, 4, bram_every=4, dsp_every=9, name="inf-dev")
        # more DSP than a single column can supply, but the width cap allows
        # only one column: geometrically infeasible while the aggregate
        # demand still fits the device
        per_column = sum(
            device.tile_type_at(9, r).resources.get(ResourceType.DSP)
            for r in range(device.height)
        )
        assert per_column > 0
        problem = FloorplanProblem(
            device,
            [Region("A", ResourceVector(DSP=per_column + 1), max_width=1)],
            name="inf",
        )
        for prune in (False, True):
            milp = build_floorplan_milp(problem, prune=prune)
            result = solve(milp.model, SolverOptions(time_limit=60))
            assert result.status is SolveStatus.INFEASIBLE

    def test_no_incumbent_keeps_every_candidate(self):
        device = synthetic_device(10, 4, bram_every=4, dsp_every=9, name="off-dev")
        problem = FloorplanProblem(device, [Region("A", ResourceVector(CLB=3))], name="off")
        milp = build_floorplan_milp(problem)
        assert milp.kept == milp.enumerated > 0
        assert milp.filter_weights is None
        assert np.all(milp.candidates["A"].frames > 0)
