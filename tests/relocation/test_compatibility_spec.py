"""Unit tests for compatibility predicates and relocation specs."""

import pytest

from repro.floorplan import Rect
from repro.relocation import (
    RelocationRequest,
    RelocationSpec,
    areas_compatible,
    enumerate_free_compatible_areas,
)
from repro.relocation.compatibility import select_disjoint_areas
from tests.relocation.free_area_oracle import compatible_column_offsets, is_free_compatible


class TestCompatibility:
    def test_figure1_example(self, two_type_partition):
        """Figure 1: same column signature => compatible, shifted signature => not."""
        # BRAM columns of simple_two_type_device are 4 and 9
        area_a = Rect(3, 0, 3, 2)   # CLB, BRAM, CLB
        area_b = Rect(8, 3, 3, 2)   # CLB, BRAM, CLB  (same relative layout)
        area_c = Rect(4, 0, 3, 2)   # BRAM, CLB, CLB  (shifted layout)
        assert areas_compatible(two_type_partition, area_a, area_b)
        assert areas_compatible(two_type_partition, area_b, area_a)
        assert not areas_compatible(two_type_partition, area_a, area_c)

    def test_shape_mismatch_not_compatible(self, two_type_partition):
        assert not areas_compatible(two_type_partition, Rect(0, 0, 2, 2), Rect(0, 2, 2, 3))
        assert not areas_compatible(two_type_partition, Rect(0, 0, 2, 2), Rect(0, 2, 3, 2))

    def test_out_of_bounds_not_compatible(self, two_type_partition):
        inside = Rect(0, 0, 2, 2)
        outside = Rect(two_type_partition.width - 1, 0, 2, 2)
        assert not areas_compatible(two_type_partition, inside, outside)

    def test_same_rect_is_compatible_with_itself(self, two_type_partition):
        rect = Rect(1, 1, 2, 2)
        assert areas_compatible(two_type_partition, rect, rect)

    def test_free_compatible_requires_no_overlap(self, two_type_partition):
        region = Rect(0, 0, 2, 2)
        candidate = Rect(0, 2, 2, 2)
        assert is_free_compatible(two_type_partition, region, candidate)
        blocker = Rect(1, 2, 2, 2)
        assert not is_free_compatible(two_type_partition, region, candidate, [blocker])

    def test_free_compatible_rejects_forbidden(self, fx70t_device):
        from repro.device.partition import columnar_partition

        partition = columnar_partition(fx70t_device)
        region = Rect(0, 0, 2, 3)
        # columns 13-14 rows 3-5 are the PPC block
        candidate = Rect(12, 3, 2, 3)
        assert not is_free_compatible(partition, region, candidate)

    def test_compatible_column_offsets(self, two_type_partition):
        # signature CLB,BRAM,CLB occurs at columns 3 and 8 only
        offsets = compatible_column_offsets(two_type_partition, Rect(3, 0, 3, 2))
        assert offsets == [3, 8]
        with pytest.raises(ValueError):
            compatible_column_offsets(two_type_partition, Rect(11, 0, 3, 1))

    def test_enumeration_excludes_original_and_blockers(self, two_type_partition):
        region = Rect(3, 0, 3, 2)
        candidates = enumerate_free_compatible_areas(two_type_partition, region)
        assert region not in candidates
        assert all(c.width == 3 and c.height == 2 for c in candidates)
        # occupying the other BRAM column halves the options
        blocked = enumerate_free_compatible_areas(
            two_type_partition, region, occupied=[Rect(8, 0, 3, 6)]
        )
        assert len(blocked) < len(candidates)

    def test_select_disjoint(self):
        candidates = [Rect(0, 0, 2, 2), Rect(1, 0, 2, 2), Rect(4, 0, 2, 2), Rect(4, 2, 2, 2)]
        chosen = select_disjoint_areas(candidates, 3)
        assert len(chosen) == 3
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                assert not a.overlaps(b)


class TestRelocationSpec:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            RelocationRequest("A", copies=0)
        with pytest.raises(ValueError):
            RelocationRequest("A", copies=1, weight=0)

    def test_duplicate_requests_rejected(self):
        with pytest.raises(ValueError):
            RelocationSpec([RelocationRequest("A", 1), RelocationRequest("A", 2)])

    def test_constraint_and_metric_constructors(self):
        hard = RelocationSpec.as_constraint({"A": 2})
        soft = RelocationSpec.as_metric({"A": 2}, weights={"A": 3.0})
        assert hard.request_for("A").hard and not soft.request_for("A").hard
        assert soft.request_for("A").weight == 3.0
        assert hard.total_copies == 2 and "A" in hard and len(hard) == 1
        assert hard.has_hard_requests and not soft.has_hard_requests
        assert not RelocationSpec.empty()

    def test_area_naming_matches_paper_convention(self):
        spec = RelocationSpec.as_constraint({"Signal Decoder": 3})
        assert spec.area_name("Signal Decoder", 2) == "Signal Decoder 2"

    def test_build_area_specs(self, tiny_problem):
        spec = RelocationSpec.as_constraint({"beta": 2})
        areas = spec.build_area_specs(tiny_problem)
        assert len(areas) == 2
        assert all(a.compatible_with == "beta" and not a.soft for a in areas)
        assert all(a.requirements.is_zero() for a in areas)
        soft_spec = RelocationSpec.as_metric({"beta": 1})
        assert soft_spec.build_area_specs(tiny_problem)[0].soft

    def test_build_area_specs_validates_region(self, tiny_problem):
        spec = RelocationSpec.as_constraint({"nonexistent": 1})
        with pytest.raises(KeyError):
            spec.build_area_specs(tiny_problem)
