"""Morton (Z-order) codes.

Ray sorting (Aila-Laine Morton-order quicksort, Section 5.2) orders AO
rays by them to evaluate the "sorted rays" bars of Figure 12.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``x`` so there are two zero bits between each."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by2`."""
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def morton_encode_3d(ix: int, iy: int, iz: int) -> int:
    """Interleave three non-negative integers (up to 21 bits each)."""
    parts = _part1by2(np.asarray([ix, iy, iz], dtype=np.uint64))
    return int(parts[0] | (parts[1] << np.uint64(1)) | (parts[2] << np.uint64(2)))


def morton_decode_3d(code: int) -> Tuple[int, int, int]:
    """Recover the three interleaved integers from a Morton code."""
    c = np.asarray([code, code >> 1, code >> 2], dtype=np.uint64)
    ix, iy, iz = (int(v) for v in _compact1by2(c))
    return ix, iy, iz


def morton_codes(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int = 10) -> np.ndarray:
    """Morton codes for ``points`` quantized on a ``2^bits`` grid over ``[lo, hi]``.

    Args:
        points: array of shape ``(n, 3)``.
        lo, hi: bounding-box corners, shape ``(3,)``.
        bits: bits per axis (<= 21).

    Returns:
        uint64 array of shape ``(n,)``.
    """
    if bits < 1 or bits > 21:
        raise ValueError("bits must be in [1, 21]")
    points = np.asarray(points, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    extent = np.where(hi > lo, hi - lo, 1.0)
    scale = float(2**bits - 1)
    quantized = np.clip((points - lo) / extent * scale, 0.0, scale).astype(np.uint64)
    return (
        _part1by2(quantized[:, 0])
        | (_part1by2(quantized[:, 1]) << np.uint64(1))
        | (_part1by2(quantized[:, 2]) << np.uint64(2))
    )
