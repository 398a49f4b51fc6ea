"""Loop forms of the tessellated scene primitives.

:mod:`repro.scenes.procedural` emits every quad of a primitive in one
NumPy broadcast; these are the per-vertex loops it replaced, kept
unchanged as the oracle the broadcast must match byte for byte
(``tests/test_scenes.py``).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.geometry.triangle import TriangleMesh


def quad(
    p0: Sequence[float],
    p1: Sequence[float],
    p2: Sequence[float],
    p3: Sequence[float],
    subdiv: int = 1,
) -> TriangleMesh:
    """Tessellated quad with corners ``p0..p3`` in order (2*subdiv^2 tris).

    The quad is bilinear: interior vertices are interpolated, so slightly
    non-planar corner sets produce curved patches (used for draperies).
    """
    if subdiv < 1:
        raise ValueError("subdiv must be >= 1")
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    p3 = np.asarray(p3, dtype=np.float64)

    us = np.linspace(0.0, 1.0, subdiv + 1)
    vs = np.linspace(0.0, 1.0, subdiv + 1)
    grid = np.empty((subdiv + 1, subdiv + 1, 3))
    for i, u in enumerate(us):
        bottom = p0 * (1 - u) + p1 * u
        top = p3 * (1 - u) + p2 * u
        for j, v in enumerate(vs):
            grid[i, j] = bottom * (1 - v) + top * v

    v0: List[np.ndarray] = []
    v1: List[np.ndarray] = []
    v2: List[np.ndarray] = []
    for i in range(subdiv):
        for j in range(subdiv):
            a = grid[i, j]
            b = grid[i + 1, j]
            c = grid[i + 1, j + 1]
            d = grid[i, j + 1]
            v0.extend([a, a])
            v1.extend([b, c])
            v2.extend([c, d])
    return TriangleMesh(np.asarray(v0), np.asarray(v1), np.asarray(v2))


def box(lo: Sequence[float], hi: Sequence[float], subdiv: int = 1) -> TriangleMesh:
    """Axis-aligned box with all six faces tessellated ``subdiv`` times."""
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    faces = [
        # bottom (y0) and top (y1)
        ((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1)),
        ((x0, y1, z0), (x0, y1, z1), (x1, y1, z1), (x1, y1, z0)),
        # front (z0) and back (z1)
        ((x0, y0, z0), (x0, y1, z0), (x1, y1, z0), (x1, y0, z0)),
        ((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1)),
        # left (x0) and right (x1)
        ((x0, y0, z0), (x0, y0, z1), (x0, y1, z1), (x0, y1, z0)),
        ((x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1)),
    ]
    return TriangleMesh.concatenate([quad(*f, subdiv=subdiv) for f in faces])


def voxel_terrain(
    x0: float,
    z0: float,
    x1: float,
    z1: float,
    nx: int,
    nz: int,
    height_fn: Callable[[float, float], float],
    block_height: float = 0.5,
) -> TriangleMesh:
    """Minecraft-style quantized terrain: one box per grid cell.

    Heights are quantized to multiples of ``block_height``, producing the
    stepped silhouettes of the Lost Empire scene.
    """
    xs = np.linspace(x0, x1, nx + 1)
    zs = np.linspace(z0, z1, nz + 1)
    meshes: List[TriangleMesh] = []
    for i in range(nx):
        for j in range(nz):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cz = 0.5 * (zs[j] + zs[j + 1])
            h = max(block_height, round(height_fn(cx, cz) / block_height) * block_height)
            meshes.append(box((xs[i], 0.0, zs[j]), (xs[i + 1], h, zs[j + 1]), subdiv=1))
    return TriangleMesh.concatenate(meshes)


__all__ = ["box", "quad", "voxel_terrain"]
