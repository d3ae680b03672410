"""Unit tests for warp shuffle primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.simgpu.warp import shuffle_xor


def test_shuffle_paper_example():
    """shuffle_xor(2) on 4 lanes exchanges 0<->2 and 1<->3 (Section IV-C2)."""
    assert shuffle_xor(["a", "b", "c", "d"], 2) == ["c", "d", "a", "b"]


def test_shuffle_mask_zero_is_identity():
    values = [1, 2, 3, 4]
    assert shuffle_xor(values, 0) == values


def test_shuffle_is_involution():
    values = list(range(16))
    assert shuffle_xor(shuffle_xor(values, 5), 5) == values


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 31), st.integers(0, 4))
def test_shuffle_is_permutation(mask, log_width):
    """Property: any butterfly shuffle permutes the lanes bijectively."""
    width = 1 << log_width
    mask = mask % width
    values = list(range(32))
    out = shuffle_xor(values, mask, width=width)
    assert sorted(out) == values


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 31))
def test_shuffle_moves_by_xor(mask):
    values = list(range(32))
    out = shuffle_xor(values, mask)
    for j in range(32):
        assert out[j] == j ^ mask


def test_shuffle_respects_sub_warp_width():
    values = list(range(8))
    out = shuffle_xor(values, 1, width=4)
    assert out == [1, 0, 3, 2, 5, 4, 7, 6]


def test_shuffle_bad_geometry():
    with pytest.raises(KernelError):
        shuffle_xor([1, 2, 3], 1, width=3)  # non power of two
    with pytest.raises(KernelError):
        shuffle_xor([1, 2, 3, 4, 5], 1, width=4)  # not a multiple
    with pytest.raises(KernelError):
        shuffle_xor([1, 2, 3, 4], 4, width=4)  # mask escapes the group
