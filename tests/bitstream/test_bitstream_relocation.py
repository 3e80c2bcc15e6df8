"""Unit tests for frame addressing, CRC, bitstreams and the relocation filter."""

import dataclasses
import random

import pytest

from repro.bitstream import (
    ConfigurationMemory,
    FrameAddress,
    RelocationError,
    area_frame_addresses,
    crc32,
    generate_bitstream,
    relocate_bitstream,
)
from repro.bitstream.bitstream import WORDS_PER_FRAME
from repro.bitstream.crc import crc32_of_words
from repro.bitstream.memory import ConfigurationError
from repro.floorplan import Rect
from repro.floorplan.placement import rect_frames
from tests.bitstream.crc_oracle import crc32_reference


class TestCrc:
    def test_known_vector(self):
        # standard CRC-32 check value
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty_and_incremental(self):
        assert crc32(b"") == 0
        assert crc32(b"abcdef") != crc32(b"abcdeg")

    def test_word_helper(self):
        assert crc32_of_words([1, 2, 3]) == crc32(
            (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        )

    def test_fast_path_matches_reference(self):
        rng = random.Random(42)
        for size in (0, 1, 7, 64, 1000):
            data = bytes(rng.randrange(256) for _ in range(size))
            assert crc32(data) == crc32_reference(data)

    def test_fast_path_matches_reference_when_chained(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(512))
        partial_fast = crc32(data[:200])
        partial_ref = crc32_reference(data[:200])
        assert partial_fast == partial_ref
        assert crc32(data[200:], partial_fast) == crc32_reference(data[200:], partial_ref)
        assert crc32(data[200:], partial_fast) == crc32(data)


class TestFrameAddresses:
    def test_area_frame_addresses_counts(self, two_type_device):
        rect = Rect(3, 0, 3, 2)  # 4 CLB + 2 BRAM tiles
        addresses = area_frame_addresses(two_type_device, rect)
        assert len(addresses) == 4 * 36 + 2 * 30
        assert rect_frames(two_type_device, rect) == len(addresses)
        assert len(set(addresses)) == len(addresses)

    def test_rect_frames_counts_every_addressed_frame(self, two_type_device):
        # the histogram-based count equals the per-tile frame addresses on
        # random rectangles of the device
        rng = random.Random(3)
        width, height = two_type_device.width, two_type_device.height
        for _ in range(200):
            col, row = rng.randrange(width), rng.randrange(height)
            rect = Rect(col, row, rng.randint(1, width - col), rng.randint(1, height - row))
            addresses = area_frame_addresses(two_type_device, rect)
            assert rect_frames(two_type_device, rect) == len(addresses), rect

    def test_translation(self):
        address = FrameAddress(3, 1, 7, "CLB")
        moved = address.translated(2, -1)
        assert (moved.col, moved.row, moved.minor) == (5, 0, 7)

    def test_packing_uniqueness_and_limits(self, two_type_device):
        rect = Rect(0, 0, 2, 2)
        addresses = area_frame_addresses(two_type_device, rect)
        packed = {a.packed(two_type_device.width, two_type_device.height) for a in addresses}
        assert len(packed) == len(addresses)
        with pytest.raises(ValueError):
            FrameAddress(0, 0, 99, "CLB").packed(10, 10, max_minor=64)


class TestBitstreamGeneration:
    def test_deterministic_for_same_module(self, two_type_device):
        a = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        b = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        assert a.frames == b.frames and a.crc == b.crc

    def test_different_modules_differ(self, two_type_device):
        a = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        b = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modB")
        assert a.frames != b.frames

    def test_crc_detects_corruption(self, two_type_device):
        bitstream = generate_bitstream(two_type_device, Rect(0, 0, 2, 1), "modA")
        assert bitstream.is_crc_valid()
        address = next(iter(bitstream.frames))
        corrupted = dict(bitstream.frames)
        payload = list(corrupted[address])
        payload[0] ^= 1
        corrupted[address] = tuple(payload)
        tampered = dataclasses.replace(bitstream, frames=corrupted)
        assert not tampered.is_crc_valid()

    def test_frames_are_immutable(self, two_type_device):
        # in-place tampering must raise, not silently invalidate the cached CRC
        bitstream = generate_bitstream(two_type_device, Rect(0, 0, 1, 1), "modA")
        address = next(iter(bitstream.frames))
        with pytest.raises(TypeError):
            bitstream.frames[address] = tuple([0] * WORDS_PER_FRAME)

    def test_size_accounting(self, two_type_device):
        bitstream = generate_bitstream(two_type_device, Rect(0, 0, 1, 1), "modA")
        assert bitstream.num_frames == 36
        assert bitstream.size_words == 36 * WORDS_PER_FRAME

    def test_forbidden_or_out_of_bounds_rejected(self, fx70t_device):
        with pytest.raises(ValueError):
            generate_bitstream(fx70t_device, Rect(13, 3, 1, 1), "bad")  # PPC block
        with pytest.raises(ValueError):
            generate_bitstream(fx70t_device, Rect(32, 7, 2, 2), "bad")


class TestRelocationFilter:
    def test_relocation_preserves_payload_and_updates_crc(self, two_type_device, two_type_partition):
        source = generate_bitstream(two_type_device, Rect(3, 0, 3, 2), "modA")
        relocated = relocate_bitstream(source, Rect(8, 3, 3, 2), two_type_device, two_type_partition)
        assert relocated.is_crc_valid()
        assert relocated.crc != source.crc
        assert relocated.num_frames == source.num_frames
        assert relocated.block_type_signature() == source.block_type_signature()
        assert sorted(relocated.frames.values()) == sorted(source.frames.values())

    def test_incompatible_target_rejected(self, two_type_device, two_type_partition):
        source = generate_bitstream(two_type_device, Rect(3, 0, 3, 2), "modA")
        with pytest.raises(RelocationError):
            relocate_bitstream(source, Rect(4, 0, 3, 2), two_type_device, two_type_partition)

    def test_shape_mismatch_rejected(self, two_type_device, two_type_partition):
        source = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        with pytest.raises(RelocationError):
            relocate_bitstream(source, Rect(0, 2, 2, 3), two_type_device, two_type_partition)

    def test_occupied_target_rejected(self, two_type_device, two_type_partition):
        source = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        with pytest.raises(RelocationError):
            relocate_bitstream(
                source, Rect(0, 2, 2, 2), two_type_device, two_type_partition,
                occupied=[Rect(1, 3, 2, 2)],
            )

    def test_forbidden_target_rejected(self, fx70t_device):
        source = generate_bitstream(fx70t_device, Rect(0, 0, 3, 3), "modA")
        with pytest.raises(RelocationError):
            relocate_bitstream(source, Rect(12, 3, 3, 3), fx70t_device)


class TestConfigurationMemory:
    def test_load_verify_unload(self, two_type_device):
        memory = ConfigurationMemory("dev")
        bitstream = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        memory.load(bitstream)
        assert memory.verify(bitstream)
        assert memory.loaded_modules() == ["modA"]
        assert memory.configured_frame_count == bitstream.num_frames
        assert memory.unload("modA") == bitstream.num_frames
        assert memory.loaded_modules() == []

    def test_crc_checked_on_load(self, two_type_device):
        memory = ConfigurationMemory()
        bitstream = generate_bitstream(two_type_device, Rect(0, 0, 1, 1), "modA")
        bitstream.crc ^= 0xFF
        with pytest.raises(ConfigurationError):
            memory.load(bitstream)

    def test_conflicting_writes_rejected_without_overwrite(self, two_type_device):
        memory = ConfigurationMemory()
        a = generate_bitstream(two_type_device, Rect(0, 0, 2, 2), "modA")
        b = generate_bitstream(two_type_device, Rect(1, 1, 2, 2), "modB")
        memory.load(a)
        with pytest.raises(ConfigurationError):
            memory.load(b)
        memory.load(b, allow_overwrite=True)
        assert set(memory.loaded_modules()) == {"modA", "modB"}

    def test_readback_and_ownership(self, two_type_device):
        memory = ConfigurationMemory()
        bitstream = generate_bitstream(two_type_device, Rect(0, 0, 1, 1), "modA")
        memory.load(bitstream)
        address = next(iter(bitstream.frames))
        assert memory.owner_of(address) == "modA"
        data = memory.readback([address])
        assert data[address] == bitstream.frames[address]
