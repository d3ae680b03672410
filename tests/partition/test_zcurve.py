"""Unit tests for Morton (Z-order) encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.partition.zcurve import z_decode, z_encode


def test_paper_example():
    """The paper's worked example: (x=3, y=4) -> 37."""
    assert z_encode(3, 4, 3) == 37


def test_origin_is_zero():
    assert z_encode(0, 0, 4) == 0


def test_decode_paper_example():
    assert z_decode(37, 3) == (3, 4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_encode_decode_roundtrip(x, y):
    assert z_decode(z_encode(x, y, 8), 8) == (x, y)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_decode_encode_roundtrip(z):
    x, y = z_decode(z, 8)
    assert z_encode(x, y, 8) == z


def test_encode_is_bijection_small_grid():
    values = {z_encode(x, y, 2) for x in range(4) for y in range(4)}
    assert values == set(range(16))


def test_locality_within_quadrant():
    """All cells of one quadrant occupy one contiguous Z range."""
    zs = sorted(z_encode(x, y, 2) for x in range(2) for y in range(2))
    assert zs == [0, 1, 2, 3]


def test_out_of_range_rejected():
    with pytest.raises(ConfigError):
        z_encode(4, 0, 2)
    with pytest.raises(ConfigError):
        z_encode(0, -1, 2)
    with pytest.raises(ConfigError):
        z_decode(16, 2)


def test_negative_bits_rejected():
    with pytest.raises(ConfigError):
        z_encode(0, 0, -1)


def test_zero_bits_single_cell():
    """bits=0 is a 1x1 grid: one cell."""
    assert z_encode(0, 0, 0) == 0
    assert z_decode(0, 0) == (0, 0)


# ----------------------------------------------------------------------
# property tests over varied grid sizes
# ----------------------------------------------------------------------
coordinate_grids = st.integers(1, 6).flatmap(
    lambda bits: st.tuples(
        st.just(bits),
        st.integers(0, (1 << bits) - 1),
        st.integers(0, (1 << bits) - 1),
    )
)


@settings(max_examples=60, deadline=None)
@given(coordinate_grids)
def test_roundtrip_at_any_bits(case):
    bits, x, y = case
    z = z_encode(x, y, bits)
    assert 0 <= z < 1 << (2 * bits)
    assert z_decode(z, bits) == (x, y)
