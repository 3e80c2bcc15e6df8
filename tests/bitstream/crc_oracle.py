"""Table-driven CRC-32: the readable reference the zlib fast path must match."""

from typing import Iterable, List

_POLY = 0xEDB88320  # IEEE 802.3, bit-reflected


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32_reference(data: bytes | bytearray | Iterable[int], initial: int = 0) -> int:
    """CRC-32 of ``data`` (optionally continuing from a previous value)."""
    crc = initial ^ 0xFFFFFFFF
    for byte in bytes(data):
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF
