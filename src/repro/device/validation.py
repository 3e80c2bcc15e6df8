"""Structural validation of device descriptions.

These checks catch malformed device definitions early (before they reach the
MILP builder, where the failure mode would be an opaque infeasibility) and are
reused by the property-based tests.
"""

from __future__ import annotations

from typing import List

from repro.device.grid import FPGADevice
from repro.device.partition import ColumnarPartition, PartitionError, columnar_partition


class DeviceValidationError(ValueError):
    """Raised when a device description is structurally inconsistent."""


def validate_device(device: FPGADevice) -> List[str]:
    """Validate a device and return a list of informational warnings.

    The device must admit a columnar partition; this is a hard requirement
    of the paper's model simplification.

    Raises
    ------
    DeviceValidationError
        On hard errors (overlapping forbidden rectangles, no usable tile, a
        non-columnar device).
    """
    warnings: List[str] = []

    # forbidden rectangles must not overlap each other
    seen_cells: set[tuple[int, int]] = set()
    for rect in device.forbidden:
        for cell in rect.cells():
            if cell in seen_cells:
                raise DeviceValidationError(
                    f"forbidden rectangles overlap at cell {cell}"
                )
            seen_cells.add(cell)

    if device.num_usable_tiles == 0:
        raise DeviceValidationError("device has no usable tiles")

    usable_fraction = device.num_usable_tiles / device.num_tiles
    if usable_fraction < 0.5:
        warnings.append(
            f"more than half of the device ({1 - usable_fraction:.0%}) is forbidden"
        )

    try:
        partition = columnar_partition(device)
    except PartitionError as exc:
        raise DeviceValidationError(str(exc)) from exc
    _validate_partition(partition, warnings)

    return warnings


def _validate_partition(partition: ColumnarPartition, warnings: List[str]) -> None:
    partition.check_properties()
    if partition.num_portions == partition.width:
        warnings.append(
            "every column is its own portion; consider a coarser tile typing"
        )
    if partition.num_types == 1:
        warnings.append("device is homogeneous; relocation constraints are trivial")
