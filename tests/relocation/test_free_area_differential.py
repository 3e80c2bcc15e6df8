"""The numpy free-compatible-area search equals the per-cell oracle.

Random columnar devices with forbidden areas, a random placed region and a
random set of occupied rectangles — some of which stick out of the device —
must yield exactly the oracle's rectangles in the oracle's order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import columnar_partition, synthetic_device
from repro.device.grid import FPGADevice, ForbiddenRect
from repro.floorplan import Rect
from repro.relocation.compatibility import enumerate_free_compatible_areas
from tests.relocation import free_area_oracle


@st.composite
def _free_area_cases(draw):
    width, height = draw(st.integers(2, 14)), draw(st.integers(1, 6))
    base = synthetic_device(width, height, bram_every=draw(st.integers(2, 5)),
                            dsp_every=draw(st.integers(3, 7)), name="free-dev")
    forbidden = []
    for i in range(draw(st.integers(0, 3))):
        col, row = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        forbidden.append(ForbiddenRect(
            f"f{i}", col=col, row=row,
            width=draw(st.integers(1, width - col)), height=draw(st.integers(1, height - row)),
        ))
    device = FPGADevice(
        "free",
        [[base.tile_type_at(c, r) for r in range(height)] for c in range(width)],
        forbidden=forbidden,
    )
    w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
    region = Rect(draw(st.integers(0, width - w)), draw(st.integers(0, height - h)), w, h)
    occupied = [
        Rect(draw(st.integers(-3, width + 1)), draw(st.integers(-3, height + 1)),
             draw(st.integers(1, 5)), draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    if draw(st.booleans()):
        occupied.append(region)  # callers usually list the region itself too
    return device, region, occupied


@settings(max_examples=150, deadline=None)
@given(_free_area_cases())
def test_free_compatible_areas_match_per_cell_oracle(case):
    device, region, occupied = case
    partition = columnar_partition(device)
    assert enumerate_free_compatible_areas(partition, region, occupied) == (
        free_area_oracle.enumerate_free_compatible_areas(partition, region, occupied)
    )
