"""Frame addressing.

A configuration frame is the smallest unit of configuration data.  Real Xilinx
frame addresses pack block type, top/bottom flag, row, major (column) and
minor (frame-within-column) fields; for the purposes of relocation the three
coordinates that matter are *column*, *row* and *minor*, because relocating a
bitstream between two compatible areas is exactly a constant shift of the
(column, row) part with the minor field untouched.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.device.grid import FPGADevice
from repro.floorplan.geometry import Rect


@dataclasses.dataclass(frozen=True, order=True)
class FrameAddress:
    """Address of one configuration frame.

    Attributes
    ----------
    col, row:
        Tile coordinates on the device grid.
    minor:
        Index of the frame within the tile (``0 .. frames_per_tile - 1``).
    block_type:
        Name of the tile type the frame configures (``"CLB"``, ``"BRAM"``, ...).
    """

    col: int
    row: int
    minor: int
    block_type: str

    def packed(self, device_width: int, device_height: int, max_minor: int = 64) -> int:
        """Pack the address into a single integer (what a real filter rewrites)."""
        if self.minor >= max_minor:
            raise ValueError(f"minor {self.minor} exceeds packing limit {max_minor}")
        return (self.col * device_height + self.row) * max_minor + self.minor

    def translated(self, dcol: int, drow: int) -> "FrameAddress":
        """The address shifted by a (column, row) offset — the relocation move."""
        return FrameAddress(
            col=self.col + dcol,
            row=self.row + drow,
            minor=self.minor,
            block_type=self.block_type,
        )


def area_frame_addresses(device: FPGADevice, rect: Rect) -> List[FrameAddress]:
    """Frame addresses of every frame configuring the tiles of ``rect``.

    Frames are listed column-major, bottom-to-top, minor-last — a fixed,
    deterministic order shared by bitstream generation and relocation so that
    corresponding frames line up by position.
    """
    addresses: List[FrameAddress] = []
    for col in rect.columns():
        for row in rect.rows():
            tile_type = device.tile_type_at(col, row)
            for minor in range(tile_type.frames):
                addresses.append(
                    FrameAddress(col=col, row=row, minor=minor, block_type=tile_type.name)
                )
    return addresses

