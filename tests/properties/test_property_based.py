"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitstream import crc32, generate_bitstream, relocate_bitstream
from repro.device import ResourceVector, columnar_partition, synthetic_device
from repro.floorplan import Rect, SequencePair
from repro.milp import Model, quicksum
from repro.relocation.compatibility import areas_compatible, enumerate_free_compatible_areas
from tests.relocation.free_area_oracle import compatible_column_offsets

# keep hypothesis examples modest: every example builds devices / models
COMMON_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# LinExpr algebra
# ----------------------------------------------------------------------
@st.composite
def expr_and_values(draw):
    model = Model("prop")
    variables = [model.add_continuous(f"v{i}", lb=None, ub=None) for i in range(4)]
    coeffs_a = [draw(st.integers(-5, 5)) for _ in variables]
    coeffs_b = [draw(st.integers(-5, 5)) for _ in variables]
    const_a = draw(st.integers(-10, 10))
    const_b = draw(st.integers(-10, 10))
    values = {v: float(draw(st.integers(-7, 7))) for v in variables}
    expr_a = quicksum(c * v for c, v in zip(coeffs_a, variables)) + const_a
    expr_b = quicksum(c * v for c, v in zip(coeffs_b, variables)) + const_b
    return expr_a, expr_b, values


@given(data=expr_and_values(), scale=st.integers(-4, 4))
@settings(**COMMON_SETTINGS)
def test_linexpr_algebra_is_consistent(data, scale):
    expr_a, expr_b, values = data
    a = expr_a.evaluate(values)
    b = expr_b.evaluate(values)
    assert (expr_a + expr_b).evaluate(values) == a + b
    assert (expr_a - expr_b).evaluate(values) == a - b
    assert (expr_a * scale).evaluate(values) == a * scale
    assert (-expr_a).evaluate(values) == -a


# ----------------------------------------------------------------------
# ResourceVector algebra
# ----------------------------------------------------------------------
resource_vectors = st.builds(
    ResourceVector,
    st.fixed_dictionaries(
        {},
        optional={
            "CLB": st.integers(0, 20),
            "BRAM": st.integers(0, 6),
            "DSP": st.integers(0, 6),
        },
    ),
)


@given(a=resource_vectors, b=resource_vectors)
@settings(**COMMON_SETTINGS)
def test_resource_vector_cover_properties(a, b):
    total = a + b
    assert total.covers(a) and total.covers(b)
    assert total.total == a.total + b.total
    assert total.deficit(a).is_zero()
    # covering implies per-type dominance of the deficit
    if a.covers(b):
        assert a.deficit(b).is_zero()


# ----------------------------------------------------------------------
# Columnar partitioning invariants
# ----------------------------------------------------------------------
@given(
    width=st.integers(3, 24),
    height=st.integers(2, 10),
    bram_every=st.integers(2, 8),
    dsp_every=st.integers(3, 9),
)
@settings(**COMMON_SETTINGS)
def test_columnar_partition_invariants(width, height, bram_every, dsp_every):
    device = synthetic_device(width, height, bram_every=bram_every, dsp_every=dsp_every)
    partition = columnar_partition(device)
    partition.check_properties()  # Properties .3 and .4
    # portions tile the device exactly
    assert sum(p.num_tiles for p in partition.portions) == width * height
    # every column's type matches its portion's type
    for col in range(width):
        assert partition.portion_of_column(col).tile_type is partition.column_type(col)


# ----------------------------------------------------------------------
# Compatibility predicate properties
# ----------------------------------------------------------------------
@st.composite
def device_and_rects(draw):
    width = draw(st.integers(6, 18))
    height = draw(st.integers(3, 8))
    device = synthetic_device(width, height, bram_every=draw(st.integers(3, 6)))
    w = draw(st.integers(1, min(4, width)))
    h = draw(st.integers(1, min(3, height)))
    col_a = draw(st.integers(0, width - w))
    row_a = draw(st.integers(0, height - h))
    col_b = draw(st.integers(0, width - w))
    row_b = draw(st.integers(0, height - h))
    return device, Rect(col_a, row_a, w, h), Rect(col_b, row_b, w, h)


@given(data=device_and_rects())
@settings(**COMMON_SETTINGS)
def test_compatibility_is_symmetric_and_reflexive(data):
    device, rect_a, rect_b = data
    partition = columnar_partition(device)
    assert areas_compatible(partition, rect_a, rect_a)
    assert areas_compatible(partition, rect_a, rect_b) == areas_compatible(
        partition, rect_b, rect_a
    )


@given(data=device_and_rects())
@settings(**COMMON_SETTINGS)
def test_enumerated_areas_are_free_compatible(data):
    device, rect_a, _ = data
    partition = columnar_partition(device)
    candidates = enumerate_free_compatible_areas(partition, rect_a, occupied=[rect_a])
    for candidate in candidates:
        assert areas_compatible(partition, rect_a, candidate)
        assert not candidate.overlaps(rect_a)
    # the original column offset is always reported by the offset enumerator
    assert rect_a.col in compatible_column_offsets(partition, rect_a)


# ----------------------------------------------------------------------
# Sequence pair round trip
# ----------------------------------------------------------------------
@st.composite
def disjoint_rects(draw):
    count = draw(st.integers(2, 5))
    rects = {}
    col = 0
    for index in range(count):
        width = draw(st.integers(1, 3))
        height = draw(st.integers(1, 3))
        row = draw(st.integers(0, 4))
        rects[f"R{index}"] = Rect(col, row, width, height)
        col += width  # strictly non-overlapping in x
    return rects


@given(rects=disjoint_rects())
@settings(**COMMON_SETTINGS)
def test_sequence_pair_round_trip(rects):
    pair = SequencePair.from_rects(rects)
    assert pair.is_consistent_with(rects)
    assert set(pair.gamma_plus) == set(rects)
    relations = pair.relations()
    assert len(relations) == len(rects) * (len(rects) - 1)


# ----------------------------------------------------------------------
# CRC and relocation round trip
# ----------------------------------------------------------------------
@given(payload=st.binary(min_size=0, max_size=128), flip=st.integers(0, 1023))
@settings(**COMMON_SETTINGS)
def test_crc_detects_single_bit_flips(payload, flip):
    if not payload:
        assert crc32(payload) == 0
        return
    corrupted = bytearray(payload)
    corrupted[flip % len(corrupted)] ^= 1 << (flip % 8)
    if bytes(corrupted) != payload:
        assert crc32(payload) != crc32(bytes(corrupted))


@given(
    width=st.integers(8, 14),
    height=st.integers(3, 6),
    w=st.integers(1, 3),
    h=st.integers(1, 2),
    module=st.text(alphabet="abcdef", min_size=1, max_size=6),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_relocation_round_trip_preserves_payload(width, height, w, h, module):
    device = synthetic_device(width, height, bram_every=4, dsp_every=7)
    partition = columnar_partition(device)
    source_rect = Rect(0, 0, w, h)
    source = generate_bitstream(device, source_rect, module)
    candidates = enumerate_free_compatible_areas(partition, source_rect, occupied=[source_rect])
    for target in candidates[:3]:
        relocated = relocate_bitstream(source, target, device, partition)
        assert relocated.is_crc_valid()
        assert sorted(relocated.frames.values()) == sorted(source.frames.values())
        # relocating back home restores the original frame addresses
        back = relocate_bitstream(relocated, source_rect, device, partition)
        assert back.frames.keys() == source.frames.keys()
