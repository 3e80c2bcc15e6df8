"""The array-based device interning, aggregates and canonical encoding agree
exactly with the per-cell oracles of :mod:`tests.device.cell_oracle`."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.device import FPGADevice, ResourceVector, TileType
from repro.device.catalog import synthetic_device, virtex5_fx70t_like
from repro.device.grid import ForbiddenRect
from repro.server.protocol import device_from_dict
from repro.service.jobs import device_spec_dict
from tests.device import cell_oracle

SETTINGS = dict(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_RESOURCES = st.dictionaries(
    st.sampled_from(["CLB", "BRAM", "DSP", "IO"]), st.integers(0, 3), max_size=3
)


@st.composite
def devices(draw):
    """A random device whose grid mixes distinct objects of equal types.

    Every drawn type exists as two separate (equal) objects, so interning
    must merge them into one index, keeping the first-seen object.
    """
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 10))
    contents = draw(st.lists(st.tuples(_RESOURCES, st.integers(1, 40)), min_size=1, max_size=4))
    objects = [
        TileType(f"T{index}", ResourceVector(resources), frames)
        for index, (resources, frames) in enumerate(contents)
        for _copy in range(2)
    ]
    picks = draw(
        st.lists(
            st.integers(0, len(objects) - 1), min_size=width * height, max_size=width * height
        )
    )
    grid = [[objects[picks[col * height + row]] for row in range(height)] for col in range(width)]
    rects = []
    for index in range(draw(st.integers(0, 3))):
        col = draw(st.integers(0, width - 1))
        row = draw(st.integers(0, height - 1))
        rect_width = draw(st.integers(1, width - col))
        rect_height = draw(st.integers(1, height - row))
        rects.append(ForbiddenRect(f"F{index}", col, row, rect_width, rect_height))
    return grid, FPGADevice("random", grid, forbidden=rects)


@settings(**SETTINGS)
@given(devices())
def test_interning_matches_first_seen_oracle(case):
    grid, device = case
    type_list, index_grid = cell_oracle.intern(grid)
    assert len(device.tile_type_list) == len(type_list)
    assert all(ours is theirs for ours, theirs in zip(device.tile_type_list, type_list))
    np.testing.assert_array_equal(device.type_index_grid(), np.array(index_grid))


@settings(**SETTINGS)
@given(devices())
def test_aggregates_match_cell_oracle(case):
    _grid, device = case
    assert device.total_resources() == cell_oracle.total_resources(device)
    frames = device.total_frames()
    assert type(frames) is int
    assert frames == cell_oracle.total_frames(device)
    assert device.tile_count_by_type() == cell_oracle.tile_count_by_type(device)


@settings(**SETTINGS)
@given(devices())
def test_spec_dict_matches_cell_oracle_and_round_trips(case):
    _grid, device = case
    spec = device_spec_dict(device)
    assert spec == cell_oracle.device_spec_dict(device)
    assert all(type(cell) is int for cell in spec["grid"] + spec["forbidden"])
    assert device_spec_dict(device_from_dict(spec)) == spec


@pytest.mark.parametrize(
    "device",
    [virtex5_fx70t_like(), synthetic_device(24, 8), synthetic_device(12, 5, bram_every=4)],
    ids=["virtex5", "syn24x8", "syn12x5"],
)
def test_catalog_devices_match_cell_oracle(device):
    assert device.total_resources() == cell_oracle.total_resources(device)
    assert device.total_frames() == cell_oracle.total_frames(device)
    spec = device_spec_dict(device)
    assert spec == cell_oracle.device_spec_dict(device)
    assert device_spec_dict(device_from_dict(spec)) == spec


def test_object_grid_and_nested_lists_build_the_same_device():
    device = virtex5_fx70t_like()
    columns = [[device.tile_type_at(c, r) for r in range(device.height)] for c in range(device.width)]
    again = FPGADevice("again", np.asarray(columns, dtype=object), forbidden=device.forbidden)
    assert device_spec_dict(again) == dict(device_spec_dict(device), name="again")
