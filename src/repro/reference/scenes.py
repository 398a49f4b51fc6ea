"""Loop forms of the scene primitives.

:mod:`repro.scenes.procedural` emits each group of same-shape
primitives in one NumPy broadcast; these are the per-vertex loops it
replaced, kept unchanged as the oracle the broadcast must match byte
for byte (``tests/test_scenes.py``).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.geometry.triangle import TriangleMesh

Vec3 = Tuple[float, float, float]


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


def uv_sphere(
    center: Sequence[float], radius: float, lat: int = 8, lon: int = 12
) -> TriangleMesh:
    """UV sphere with ``lat`` latitude bands and ``lon`` longitude segments."""
    if lat < 2 or lon < 3:
        raise ValueError("need lat >= 2 and lon >= 3")
    cx, cy, cz = center
    ring_points = []
    for i in range(lat + 1):
        theta = math.pi * i / lat
        ring = []
        for j in range(lon):
            phi = 2.0 * math.pi * j / lon
            ring.append(
                (
                    cx + radius * math.sin(theta) * math.cos(phi),
                    cy + radius * math.cos(theta),
                    cz + radius * math.sin(theta) * math.sin(phi),
                )
            )
        ring_points.append(ring)

    v0: List[Vec3] = []
    v1: List[Vec3] = []
    v2: List[Vec3] = []
    for i in range(lat):
        for j in range(lon):
            jn = (j + 1) % lon
            a = ring_points[i][j]
            b = ring_points[i + 1][j]
            c = ring_points[i + 1][jn]
            d = ring_points[i][jn]
            if i != 0:
                v0.append(a)
                v1.append(b)
                v2.append(d)
            if i != lat - 1:
                v0.append(b)
                v1.append(c)
                v2.append(d)
    return TriangleMesh(np.asarray(v0), np.asarray(v1), np.asarray(v2))


def cylinder(
    center: Sequence[float],
    radius: float,
    height: float,
    segments: int = 10,
    rings: int = 1,
    capped: bool = True,
) -> TriangleMesh:
    """Vertical cylinder (column) centred at ``center`` (base at center y)."""
    if segments < 3:
        raise ValueError("segments must be >= 3")
    cx, cy, cz = center
    meshes: List[TriangleMesh] = []
    ys = np.linspace(cy, cy + height, rings + 1)
    angles = [2.0 * math.pi * j / segments for j in range(segments)]
    circle = [(math.cos(a), math.sin(a)) for a in angles]

    v0: List[Vec3] = []
    v1: List[Vec3] = []
    v2: List[Vec3] = []
    for r in range(rings):
        y_lo, y_hi = ys[r], ys[r + 1]
        for j in range(segments):
            jn = (j + 1) % segments
            ax, az = circle[j]
            bx, bz = circle[jn]
            a = (cx + radius * ax, y_lo, cz + radius * az)
            b = (cx + radius * bx, y_lo, cz + radius * bz)
            c = (cx + radius * bx, y_hi, cz + radius * bz)
            d = (cx + radius * ax, y_hi, cz + radius * az)
            v0.extend([a, a])
            v1.extend([b, c])
            v2.extend([c, d])
    meshes.append(TriangleMesh(np.asarray(v0), np.asarray(v1), np.asarray(v2)))

    if capped:
        for y in (float(ys[0]), float(ys[-1])):
            cv0: List[Vec3] = []
            cv1: List[Vec3] = []
            cv2: List[Vec3] = []
            for j in range(segments):
                jn = (j + 1) % segments
                ax, az = circle[j]
                bx, bz = circle[jn]
                cv0.append((cx, y, cz))
                cv1.append((cx + radius * ax, y, cz + radius * az))
                cv2.append((cx + radius * bx, y, cz + radius * bz))
            meshes.append(TriangleMesh(np.asarray(cv0), np.asarray(cv1), np.asarray(cv2)))
    return TriangleMesh.concatenate(meshes)



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


__all__ = ["box", "cylinder", "quad", "uv_sphere", "voxel_terrain"]
