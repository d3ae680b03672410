"""Morton (Z-order) curve encoding.

The graph grid lays its two-dimensional cells out in a one-dimensional
array ordered by Z-value to preserve locality for GPU memory accesses
(Section III-A).  Following the paper's example, the Z-value of a cell at
grid coordinate ``(x, y)`` interleaves the bits of ``y`` and ``x`` with
``y`` contributing the higher bit of each pair: ``(x=3, y=4)`` maps to
``0b100101 = 37``.
"""

from __future__ import annotations

from repro.errors import ConfigError


def z_encode(x: int, y: int, bits: int) -> int:
    """Interleave ``y`` (high) and ``x`` (low) into a Z-value.

    Args:
        x: grid column, ``0 <= x < 2**bits``.
        y: grid row, ``0 <= y < 2**bits``.
        bits: bits per coordinate (the grid is ``2**bits`` on a side).

    Raises:
        ConfigError: when a coordinate is out of range.
    """
    if bits < 0:
        raise ConfigError(f"bits must be non-negative, got {bits}")
    limit = 1 << bits
    if not (0 <= x < limit and 0 <= y < limit):
        raise ConfigError(f"coordinate ({x}, {y}) out of range for {bits}-bit grid")
    z = 0
    for i in range(bits):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


def z_decode(z: int, bits: int) -> tuple[int, int]:
    """Inverse of :func:`z_encode`: Z-value back to ``(x, y)``."""
    if bits < 0:
        raise ConfigError(f"bits must be non-negative, got {bits}")
    if not 0 <= z < 1 << (2 * bits):
        raise ConfigError(f"z-value {z} out of range for {bits}-bit grid")
    x = y = 0
    for i in range(bits):
        x |= ((z >> (2 * i)) & 1) << i
        y |= ((z >> (2 * i + 1)) & 1) << i
    return x, y
