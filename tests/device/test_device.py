"""Unit tests for resources, tiles, grids and the device catalog."""

import pytest

from repro.device import (
    BRAM,
    CLB,
    DSP,
    FPGADevice,
    ResourceType,
    ResourceVector,
    TileType,
    TileTypeRegistry,
    simple_two_type_device,
    synthetic_device,
    validate_device,
    virtex5_fx70t_like,
    virtex7_like,
    zynq_like,
)
from repro.device.grid import ForbiddenRect
from repro.device.validation import DeviceValidationError


class TestResourceVector:
    def test_construction_from_strings(self):
        vec = ResourceVector({"CLB": 3, "bram": 1})
        assert vec[ResourceType.CLB] == 3 and vec[ResourceType.BRAM] == 1

    def test_kwargs_construction(self):
        vec = ResourceVector(CLB=2, DSP=1)
        assert vec.total == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(CLB=-1)

    def test_addition_and_scaling(self):
        a = ResourceVector(CLB=2)
        b = ResourceVector(CLB=1, BRAM=1)
        assert (a + b).as_dict() == {"CLB": 3, "BRAM": 1}
        assert (a * 3)[ResourceType.CLB] == 6

    def test_subtract_and_clamp(self):
        a = ResourceVector(CLB=2, BRAM=1)
        b = ResourceVector(CLB=1, BRAM=2)
        with pytest.raises(ValueError):
            a.subtract(b)
        clamped = a.subtract(b, clamp=True)
        assert clamped[ResourceType.BRAM] == 0 and clamped[ResourceType.CLB] == 1

    def test_covers_and_deficit(self):
        cap = ResourceVector(CLB=5, BRAM=2)
        need = ResourceVector(CLB=3, BRAM=2)
        assert cap.covers(need)
        assert not need.covers(cap)
        assert cap.deficit(need).is_zero()
        assert need.deficit(cap).as_dict() == {"CLB": 2}

    def test_equality_and_hash(self):
        assert ResourceVector(CLB=1) == ResourceVector({"CLB": 1})
        assert hash(ResourceVector(CLB=1)) == hash(ResourceVector({ResourceType.CLB: 1}))
        assert ResourceVector() == ResourceVector.zero()

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector({"URAM9": 1})


class TestTileTypes:
    def test_paper_frame_counts(self):
        assert CLB.frames == 36 and BRAM.frames == 30 and DSP.frames == 28

    def test_invalid_frames_rejected(self):
        with pytest.raises(ValueError):
            TileType("BAD", ResourceVector(CLB=1), frames=0)

    def test_registry_conflict_rejected(self):
        registry = TileTypeRegistry()
        clone = TileType("CLB", ResourceVector(CLB=2), frames=36)
        with pytest.raises(ValueError):
            registry.register(clone)

    def test_registry_lookup(self):
        registry = TileTypeRegistry()
        assert registry.get("BRAM") is BRAM
        assert "DSP" in registry and len(registry) == 3
        with pytest.raises(KeyError):
            registry.get("URAM")


class TestFPGADevice:
    def test_from_columns_shape(self):
        device = FPGADevice.from_columns("d", [CLB, BRAM, CLB], height=4)
        assert device.width == 3 and device.height == 4
        assert device.tile_type_at(1, 2) is BRAM

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError):
            FPGADevice("bad", [[CLB, CLB], [CLB]])

    def test_forbidden_mask(self):
        device = FPGADevice.from_columns(
            "d", [CLB] * 4, height=4, forbidden=[ForbiddenRect("X", 1, 1, 2, 2)]
        )
        assert device.is_forbidden(1, 1) and device.is_forbidden(2, 2)
        assert not device.is_forbidden(0, 0)
        assert device.num_usable_tiles == 16 - 4
        assert len(list(device.forbidden_cells())) == 4

    def test_forbidden_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            FPGADevice.from_columns(
                "d", [CLB] * 3, height=3, forbidden=[ForbiddenRect("X", 2, 2, 2, 2)]
            )

    def test_cell_bounds_checked(self):
        device = simple_two_type_device()
        with pytest.raises(IndexError):
            device.tile_type_at(device.width, 0)

    def test_total_resources_and_frames(self):
        device = FPGADevice.from_columns("d", [CLB, BRAM, DSP], height=2)
        resources = device.total_resources()
        assert resources.as_dict() == {"CLB": 2, "BRAM": 2, "DSP": 2}
        assert device.total_frames() == 2 * (36 + 30 + 28)

    def test_column_type_queries(self):
        device = simple_two_type_device()
        assert device.column_is_uniform(0)
        assert device.column_type(4) is BRAM


class TestCatalog:
    def test_fx70t_matches_paper_characteristics(self):
        device = virtex5_fx70t_like()
        counts = {t.name: c for t, c in device.tile_count_by_type().items()}
        # exactly two DSP columns keep the matched filter / video decoder
        # free-compatible areas infeasible (the Section VI counting argument)
        assert counts["DSP"] == 2 * device.height
        assert counts["BRAM"] >= 14  # SDR3 aggregate BRAM demand
        assert counts["CLB"] >= 176  # SDR3 aggregate CLB demand
        assert len(device.forbidden) == 1  # the PowerPC block

    def test_catalog_devices_validate(self):
        for factory in (virtex5_fx70t_like, virtex7_like, zynq_like, simple_two_type_device):
            warnings = validate_device(factory())
            assert isinstance(warnings, list)

    def test_synthetic_device_dimensions(self):
        device = synthetic_device(12, 5, bram_every=4, dsp_every=6)
        assert device.width == 12 and device.height == 5
        assert device.column_type(6).name == "DSP"
        assert device.column_type(4).name == "BRAM"
        assert device.column_type(0).name == "CLB"

    def test_synthetic_forbidden_needs_seed(self):
        with pytest.raises(ValueError):
            synthetic_device(10, 5, forbidden_blocks=1)
        device = synthetic_device(10, 5, forbidden_blocks=2, seed=3)
        assert len(device.forbidden) == 2

    def test_invalid_synthetic_size(self):
        with pytest.raises(ValueError):
            synthetic_device(0, 5)


class TestValidation:
    def test_overlapping_forbidden_rects_rejected(self):
        device = FPGADevice.from_columns(
            "d",
            [CLB] * 4,
            height=4,
            forbidden=[ForbiddenRect("A", 0, 0, 2, 2), ForbiddenRect("B", 1, 1, 2, 2)],
        )
        with pytest.raises(DeviceValidationError):
            validate_device(device)

    def test_non_columnar_device_rejected(self):
        grid = [[CLB, BRAM], [CLB, CLB]]  # column 0 mixes types vertically
        device = FPGADevice("bad", grid)
        with pytest.raises(DeviceValidationError):
            validate_device(device)

    def test_homogeneous_device_warns(self):
        device = FPGADevice.from_columns("homog", [CLB] * 4, height=3)
        warnings = validate_device(device)
        assert any("homogeneous" in w for w in warnings)


class TestRectangleAggregates:
    """The vectorized rectangle queries must match per-cell loops exactly."""

    @pytest.fixture(scope="class")
    def device(self):
        return synthetic_device(
            12, 6, bram_every=4, dsp_every=9, forbidden_blocks=2, seed=5, name="agg"
        )

    def test_tile_type_histogram_matches_cell_loop(self, device):
        for col, row, width, height in [
            (0, 0, 1, 1),
            (0, 0, device.width, device.height),
            (3, 1, 5, 4),
            (8, 2, 4, 3),
        ]:
            histogram = device.tile_type_histogram(col, row, width, height)
            expected = [0] * len(device.tile_type_list)
            for c in range(col, col + width):
                for r in range(row, row + height):
                    expected[device.type_index_at(c, r)] += 1
            assert histogram == expected
            assert sum(histogram) == width * height

    def test_forbidden_cell_count_matches_cell_loop(self, device):
        for col, row, width, height in [
            (0, 0, device.width, device.height),
            (2, 0, 6, 5),
            (5, 3, 3, 2),
        ]:
            count = device.forbidden_cell_count(col, row, width, height)
            expected = sum(
                1
                for c in range(col, col + width)
                for r in range(row, row + height)
                if device.is_forbidden(c, r)
            )
            assert count == expected

    def test_out_of_bounds_rectangles_rejected(self, device):
        with pytest.raises(IndexError):
            device.tile_type_histogram(0, 0, device.width + 1, 1)
        with pytest.raises(IndexError):
            device.forbidden_cell_count(device.width - 1, 0, 2, 1)


def test_resource_vector_refuses_fractional_counts():
    with pytest.raises(ValueError, match="integral"):
        ResourceVector(CLB=2.9)
    with pytest.raises(ValueError, match="integral"):
        ResourceVector({"BRAM": 0.5})
    assert ResourceVector(CLB=3.0) == ResourceVector(CLB=3)
