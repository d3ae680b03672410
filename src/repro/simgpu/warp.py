"""Warp-level primitive: the butterfly shuffle.

CUDA's ``__shfl_xor_sync`` lets lane ``j`` of a warp read the register of
lane ``j XOR mask`` with no shared-memory round trip; the paper builds its
lock-free message deduplication on exactly this *butterfly shuffle*
(Section IV-C2).  Here a "register file" is a Python list indexed by lane,
and a shuffle is the corresponding permutation — which is an involution,
a property the tests verify.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.errors import KernelError

T = TypeVar("T")


def shuffle_xor(values: Sequence[T], lane_mask: int, width: int | None = None) -> list[T]:
    """Butterfly-shuffle ``values`` between lanes.

    Lane ``j`` receives the value held by lane ``j XOR lane_mask``; with
    ``width`` given, lanes are grouped into independent sub-warps of that
    size and the mask must stay within a group (CUDA's ``width`` parameter
    to ``__shfl_xor_sync``).

    Args:
        values: one value per lane.
        lane_mask: the XOR mask ``s``; threads ``j`` and ``j ^ s`` swap.
        width: sub-warp width; defaults to ``len(values)``.

    Returns:
        The new per-lane values (input is not modified).

    Raises:
        KernelError: non-power-of-two geometry or mask escaping the group.
    """
    n = len(values)
    if width is None:
        width = n
    if width <= 0 or width & (width - 1):
        raise KernelError(f"shuffle width must be a power of two, got {width}")
    if n % width:
        raise KernelError(f"lane count {n} is not a multiple of width {width}")
    if not 0 <= lane_mask < width:
        raise KernelError(f"lane mask {lane_mask} out of range for width {width}")
    out: list[T] = [None] * n  # type: ignore[list-item]
    for j in range(n):
        group = j - (j % width)
        out[j] = values[group + ((j % width) ^ lane_mask)]
    return out
