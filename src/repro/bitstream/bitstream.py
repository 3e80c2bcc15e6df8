"""Partial-bitstream generation.

A :class:`PartialBitstream` is the simulated configuration data of one module
implementation placed on a rectangle of the device: one payload word vector
per frame, addressed by :class:`~repro.bitstream.frames.FrameAddress`, plus a
CRC over (address, payload) pairs exactly as a configuration controller would
check it.

Bitstreams are immutable after construction: ``frames`` is exposed through a
read-only mapping view, so the serialized (address, payload) stream and its
CRC can be computed once and cached — the simulator's hot path re-loads the
same cached bitstream hundreds of times per run and must not re-serialize
megabytes of payload on every load.  Producing a modified bitstream (the
relocation filter, a corruption test) means building a new object, e.g. via
``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.bitstream.crc import crc32
from repro.bitstream.frames import FrameAddress, area_frame_addresses
from repro.device.grid import FPGADevice
from repro.floorplan.geometry import Rect

#: Number of 32-bit words in one configuration frame (Virtex-5 value: 41).
WORDS_PER_FRAME = 41


@dataclasses.dataclass
class PartialBitstream:
    """The configuration data of one module on one placement.

    Attributes
    ----------
    module:
        Name of the module/mode the bitstream implements.
    anchor:
        Rectangle the bitstream currently targets.
    frames:
        Read-only mapping ``FrameAddress -> payload`` (tuple of 32-bit words).
    crc:
        CRC-32 over the (packed address, payload) stream; must match
        :meth:`compute_crc` for the bitstream to be accepted by the
        configuration memory.
    device_width, device_height:
        Grid extent used for address packing (needed by the CRC).
    """

    module: str
    anchor: Rect
    frames: Mapping[FrameAddress, Tuple[int, ...]]
    crc: int
    device_width: int
    device_height: int

    def __post_init__(self) -> None:
        # freeze the frame store: the cached stream/CRC below stay valid for
        # the lifetime of the object, and accidental in-place tampering (the
        # thing the CRC exists to catch) raises instead of silently aliasing
        if not isinstance(self.frames, MappingProxyType):
            self.frames = MappingProxyType(dict(self.frames))
        self._stream: Optional[bytes] = None
        self._stream_crc: Optional[int] = None
        self._address_set: Optional[FrozenSet[FrameAddress]] = None

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of frames in the bitstream."""
        return len(self.frames)

    @property
    def size_words(self) -> int:
        """Total payload size in 32-bit words (excluding addresses)."""
        return sum(len(payload) for payload in self.frames.values())

    def stream_bytes(self) -> bytes:
        """The serialized (packed address, payload) stream, canonical order.

        Computed once and cached: each frame contributes its packed address
        as 8 little-endian bytes followed by its payload words as 4-byte
        little-endian integers, in sorted address order — the byte stream a
        configuration controller would see on the wire.
        """
        if self._stream is None:
            addresses = sorted(self.frames)
            if not addresses:
                self._stream = b""
            else:
                width = max(len(self.frames[a]) for a in addresses)
                packed = np.fromiter(
                    (a.packed(self.device_width, self.device_height) for a in addresses),
                    dtype=np.uint64,
                    count=len(addresses),
                )
                if all(len(self.frames[a]) == width for a in addresses):
                    # uniform frames: one (n, 2 + width) little-endian u32 grid
                    grid = np.empty((len(addresses), 2 + width), dtype="<u4")
                    grid[:, 0] = packed & 0xFFFFFFFF
                    grid[:, 1] = packed >> 32
                    grid[:, 2:] = np.array(
                        [self.frames[a] for a in addresses], dtype=np.uint64
                    ).astype("<u4")
                    self._stream = grid.tobytes()
                else:  # ragged payloads: rare, serialize frame by frame
                    chunks = []
                    for address, point in zip(addresses, packed):
                        chunks.append(int(point).to_bytes(8, "little"))
                        chunks.append(
                            np.array(self.frames[address], dtype=np.uint64)
                            .astype("<u4")
                            .tobytes()
                        )
                    self._stream = b"".join(chunks)
        return self._stream

    def compute_crc(self) -> int:
        """Recompute the CRC over the (address, payload) stream."""
        if self._stream_crc is None:
            self._stream_crc = crc32(self.stream_bytes())
        return self._stream_crc

    def is_crc_valid(self) -> bool:
        """Whether the stored CRC matches the content."""
        return self.crc == self.compute_crc()

    def frame_address_set(self) -> FrozenSet[FrameAddress]:
        """The addresses as a cached frozenset (the memory's conflict unit)."""
        if self._address_set is None:
            self._address_set = frozenset(self.frames)
        return self._address_set

    def block_type_signature(self) -> Tuple[Tuple[int, int, str], ...]:
        """Relative layout of the frames: (dcol, drow, block type) per tile.

        Two bitstreams generated on compatible areas have identical
        signatures; the relocation filter uses this to validate a retarget
        without needing the device model.
        """
        seen = {}
        for address in self.frames:
            key = (address.col - self.anchor.col, address.row - self.anchor.row)
            seen.setdefault(key, address.block_type)
        return tuple(sorted((c, r, t) for (c, r), t in seen.items()))


def generate_bitstream(
    device: FPGADevice,
    rect: Rect,
    module: str,
    seed: int | None = None,
) -> PartialBitstream:
    """Generate a simulated partial bitstream for a module placed on ``rect``.

    The payload content is pseudo-random (seeded by the module name unless an
    explicit seed is given) — its actual value is irrelevant, what matters is
    that relocation preserves it word for word, which the tests check.
    """
    if not rect.within(device.width, device.height):
        raise ValueError(f"placement {rect} is outside the device")
    for col, row in rect.cells():
        if device.is_forbidden(col, row):
            raise ValueError(
                f"placement {rect} covers forbidden cell ({col}, {row}); "
                "no bitstream can configure a hard block"
            )

    if seed is None:
        seed = crc32(module.encode("utf-8"))
    rng = np.random.default_rng(seed)

    addresses = area_frame_addresses(device, rect)
    words = rng.integers(
        0, 2**32, size=(len(addresses), WORDS_PER_FRAME), dtype=np.uint64
    ).tolist()
    frames: Dict[FrameAddress, Tuple[int, ...]] = {
        address: tuple(row) for address, row in zip(addresses, words)
    }

    bitstream = PartialBitstream(
        module=module,
        anchor=Rect(rect.col, rect.row, rect.width, rect.height),
        frames=frames,
        crc=0,
        device_width=device.width,
        device_height=device.height,
    )
    bitstream.crc = bitstream.compute_crc()
    return bitstream
