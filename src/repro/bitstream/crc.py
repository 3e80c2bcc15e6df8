"""CRC-32 (IEEE 802.3 polynomial, bit-reflected).

The configuration logic of Xilinx devices protects the bitstream with a CRC
that must be recomputed after a relocation filter rewrites frame addresses
(see Section I of the paper).  The exact polynomial of the hardware is not
relevant to the simulation — what matters is that any change to the payload or
the addresses invalidates the old checksum — so the ubiquitous CRC-32 is used.

The hot path (every :meth:`ConfigurationMemory.load` re-checks the stream)
runs through :func:`zlib.crc32`, which implements the same reflected
polynomial (0xEDB88320) with the same pre/post conditioning at C speed.  The
tests check it against a table-driven reference on arbitrary payloads and
chained initial values.
"""

from __future__ import annotations

import zlib
from typing import Iterable


def crc32(data: bytes | bytearray | Iterable[int], initial: int = 0) -> int:
    """CRC-32 of ``data`` (optionally continuing from a previous value)."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data)
    return zlib.crc32(data, initial) & 0xFFFFFFFF


def crc32_of_words(words: Iterable[int]) -> int:
    """CRC-32 of a sequence of little-endian 32-bit words."""
    payload = bytearray()
    for word in words:
        payload.extend(int(word).to_bytes(4, "little", signed=False))
    return crc32(payload)
