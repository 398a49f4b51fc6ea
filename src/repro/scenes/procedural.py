"""Procedural mesh primitives.

Building blocks for the seven stand-in benchmark scenes: tessellated
quads, boxes, UV spheres, cylinders (columns), and voxel terrain.  All
functions return a :class:`TriangleMesh`; scenes concatenate them.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.geometry.triangle import TriangleMesh


#: Corner selection for :func:`box`, ``[face, corner, axis]``: True
#: takes ``hi[axis]``, False takes ``lo[axis]``.  Faces in emission order.
_BOX_FACES = np.array(
    [
        # bottom (y0) and top (y1)
        ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
        ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),
        # front (z0) and back (z1)
        ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),
        ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
        # left (x0) and right (x1)
        ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
        ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    ],
    dtype=bool,
)


def _split_cells(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 d: np.ndarray) -> TriangleMesh:
    """Triangles ``(a, b, c)`` then ``(a, c, d)`` of every cell, cell by cell.

    ``a..d`` are ``(..., 3)`` corner arrays of one shape, in cell order.
    """
    axis = a.ndim - 1
    return TriangleMesh(
        np.stack((a, a), axis=axis).reshape(-1, 3),
        np.stack((b, c), axis=axis).reshape(-1, 3),
        np.stack((c, d), axis=axis).reshape(-1, 3),
    )


def _quads(corners: np.ndarray, subdiv: int) -> TriangleMesh:
    """Tessellate ``q`` bilinear quads at once; ``corners`` is ``(q, 4, 3)``.

    Every vertex goes through the same IEEE operations as a per-vertex
    loop (``p0*(1-u) + p1*u``, then ``bottom*(1-v) + top*v``), and
    triangles come out quad by quad, row-major over the grid cells, two
    per cell, so the result is byte-identical to tessellating the quads
    one at a time and concatenating.
    """
    if subdiv < 1:
        raise ValueError("subdiv must be >= 1")
    t = np.linspace(0.0, 1.0, subdiv + 1)[:, None]
    w = 1 - t
    p0, p1, p2, p3 = (corners[:, None, k] for k in range(4))
    bottom = (p0 * w + p1 * t)[:, :, None]
    top = (p3 * w + p2 * t)[:, :, None]
    grid = bottom * w + top * t  # (q, u, v, 3)
    return _split_cells(
        grid[:, :-1, :-1], grid[:, 1:, :-1], grid[:, 1:, 1:], grid[:, :-1, 1:]
    )


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
    corners = np.asarray([p0, p1, p2, p3], dtype=np.float64)
    return _quads(corners[None], subdiv)


def _boxes(lo: np.ndarray, hi: np.ndarray, subdiv: int) -> TriangleMesh:
    """Boxes ``lo[i]..hi[i]`` (``(m, 3)`` each), box after box."""
    corners = np.where(_BOX_FACES, hi[:, None, None], lo[:, None, None])
    return _quads(corners.reshape(-1, 4, 3), subdiv)


def box(lo: Sequence[float], hi: Sequence[float], subdiv: int = 1) -> TriangleMesh:
    """Axis-aligned box with all six faces tessellated ``subdiv`` times."""
    return _boxes(
        np.asarray(lo, dtype=np.float64).reshape(1, 3),
        np.asarray(hi, dtype=np.float64).reshape(1, 3),
        subdiv,
    )


def open_room(lo: Sequence[float], hi: Sequence[float], subdiv: int = 2) -> TriangleMesh:
    """Interior of a room: floor, ceiling and four walls facing inward."""
    # Geometrically identical to a box; occlusion rays do not care about
    # winding, so reuse the box tessellation.
    return box(lo, hi, subdiv=subdiv)


def uv_sphere(
    center: Sequence[float], radius: float, lat: int = 8, lon: int = 12
) -> TriangleMesh:
    """UV sphere with ``lat`` latitude bands and ``lon`` longitude segments."""
    if lat < 2 or lon < 3:
        raise ValueError("need lat >= 2 and lon >= 3")
    cx, cy, cz = center
    thetas = [math.pi * i / lat for i in range(lat + 1)]
    phis = [2.0 * math.pi * j / lon for j in range(lon)]
    ring_r = radius * np.array([math.sin(t) for t in thetas])[:, None]
    points = np.empty((lat + 1, lon, 3))
    points[..., 0] = cx + ring_r * np.array([math.cos(p) for p in phis])
    points[..., 1] = cy + radius * np.array([math.cos(t) for t in thetas])[:, None]
    points[..., 2] = cz + ring_r * np.array([math.sin(p) for p in phis])

    # Cell (i, j) has corners a=(i, j), b=(i+1, j), c=(i+1, j+1),
    # d=(i, j+1) and emits (a, b, d) unless it touches the north pole
    # and (b, c, d) unless it touches the south pole.
    i = np.arange(lat)[:, None]
    j = np.arange(lon)
    jn = (j + 1) % lon
    a = i * lon + j
    b = a + lon
    c = (i + 1) * lon + jn
    d = i * lon + jn
    tris = np.stack(
        (np.stack((a, b, d), axis=-1), np.stack((b, c, d), axis=-1)), axis=2
    )
    keep = np.ones((lat, lon, 2), dtype=bool)
    keep[0, :, 0] = False
    keep[-1, :, 1] = False
    idx = tris[keep]
    flat = points.reshape(-1, 3)
    return TriangleMesh(flat[idx[:, 0]], flat[idx[:, 1]], flat[idx[:, 2]])


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
    if rings < 1:
        raise ValueError("rings must be >= 1")
    cx, cy, cz = center
    ys = np.linspace(cy, cy + height, rings + 1)
    angles = [2.0 * math.pi * j / segments for j in range(segments)]
    ring_x = cx + radius * np.array([math.cos(a) for a in angles])
    ring_z = cz + radius * np.array([math.sin(a) for a in angles])
    nxt = (np.arange(segments) + 1) % segments

    # Wall grid (ring, segment): a cell's corners run along its lower
    # ring from segment j to j+1, then back along the upper ring.
    grid = np.empty((rings + 1, segments, 3))
    grid[..., 0] = ring_x
    grid[..., 1] = ys[:, None]
    grid[..., 2] = ring_z
    meshes: List[TriangleMesh] = [
        _split_cells(grid[:-1], grid[:-1, nxt], grid[1:, nxt], grid[1:])
    ]

    if capped:
        for y in (float(ys[0]), float(ys[-1])):
            rim = np.empty((segments, 3))
            rim[:, 0] = ring_x
            rim[:, 1] = y
            rim[:, 2] = ring_z
            hub = np.tile(np.array([cx, y, cz], dtype=np.float64), (segments, 1))
            meshes.append(TriangleMesh(hub, rim, rim[nxt]))
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
    cxs = 0.5 * (xs[:-1] + xs[1:])
    czs = 0.5 * (zs[:-1] + zs[1:])
    lo = np.zeros((nx, nz, 3))
    hi = np.empty((nx, nz, 3))
    lo[..., 0] = xs[:-1, None]
    lo[..., 2] = zs[None, :-1]
    hi[..., 0] = xs[1:, None]
    hi[..., 2] = zs[None, 1:]
    for i in range(nx):
        for j in range(nz):
            h = round(height_fn(cxs[i], czs[j]) / block_height) * block_height
            hi[i, j, 1] = max(block_height, h)
    return _boxes(lo.reshape(-1, 3), hi.reshape(-1, 3), subdiv=1)


def table(center: Sequence[float], width: float, depth: float, height: float) -> TriangleMesh:
    """Simple four-legged table."""
    cx, cy, cz = center
    top_thickness = 0.06 * height
    leg = 0.08 * min(width, depth)
    parts = [
        box(
            (cx - width / 2, cy + height - top_thickness, cz - depth / 2),
            (cx + width / 2, cy + height, cz + depth / 2),
        )
    ]
    for sx in (-1, 1):
        for sz in (-1, 1):
            lx = cx + sx * (width / 2 - leg)
            lz = cz + sz * (depth / 2 - leg)
            parts.append(box((lx - leg / 2, cy, lz - leg / 2), (lx + leg / 2, cy + height, lz + leg / 2)))
    return TriangleMesh.concatenate(parts)


def chair(center: Sequence[float], size: float, height: float) -> TriangleMesh:
    """Simple chair: seat, four legs, and a back rest."""
    cx, cy, cz = center
    seat_h = 0.45 * height
    leg = 0.1 * size
    parts = [
        box(
            (cx - size / 2, cy + seat_h - 0.05 * height, cz - size / 2),
            (cx + size / 2, cy + seat_h, cz + size / 2),
        ),
        box(
            (cx - size / 2, cy + seat_h, cz + size / 2 - leg),
            (cx + size / 2, cy + height, cz + size / 2),
        ),
    ]
    for sx in (-1, 1):
        for sz in (-1, 1):
            lx = cx + sx * (size / 2 - leg / 2)
            lz = cz + sz * (size / 2 - leg / 2)
            parts.append(
                box((lx - leg / 2, cy, lz - leg / 2), (lx + leg / 2, cy + seat_h, lz + leg / 2))
            )
    return TriangleMesh.concatenate(parts)


def floor_field(
    rng: np.random.Generator,
    region_lo: Sequence[float],
    region_hi: Sequence[float],
    nx: int,
    nz: int,
    height_range: Tuple[float, float] = (0.4, 2.0),
    size_range: Tuple[float, float] = (0.25, 0.7),
    fill: float = 0.85,
) -> TriangleMesh:
    """A jittered grid of floor-standing boxes and columns.

    This is the workhorse that gives stand-in scenes the *short ambient
    occlusion hit distances* of the real benchmark assets: AO rays leaving
    a surface in Sponza or the Bistro almost immediately meet a column,
    plant, chair or counter.  Without nearby occluders, same-hash rays
    disperse before hitting anything and the predictor's verified rate
    collapses; with them, the paper's behaviour reproduces.

    Args:
        rng: seeded generator.
        region_lo, region_hi: the (x, y, z) region; objects stand on
            ``region_lo[1]``.
        nx, nz: grid resolution.
        height_range, size_range: object dimensions.
        fill: probability that a grid cell holds an object.
    """
    x0, y0, z0 = region_lo
    x1, _, z1 = region_hi
    meshes: List[TriangleMesh] = []
    for i in range(nx):
        for j in range(nz):
            if rng.random() > fill:
                continue
            cx = x0 + (i + 0.3 + 0.4 * rng.random()) * (x1 - x0) / nx
            cz = z0 + (j + 0.3 + 0.4 * rng.random()) * (z1 - z0) / nz
            h = height_range[0] + rng.random() * (height_range[1] - height_range[0])
            s = size_range[0] + rng.random() * (size_range[1] - size_range[0])
            roll = rng.random()
            if roll < 0.55:
                meshes.append(box((cx - s / 2, y0, cz - s / 2), (cx + s / 2, y0 + h, cz + s / 2)))
            elif roll < 0.85:
                meshes.append(cylinder((cx, y0, cz), s / 2, h, segments=6))
            else:
                meshes.append(uv_sphere((cx, y0 + s / 2, cz), s / 2, lat=4, lon=6))
    if not meshes:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    return TriangleMesh.concatenate(meshes)


def clutter(
    rng: np.random.Generator,
    count: int,
    region_lo: Sequence[float],
    region_hi: Sequence[float],
    size_range: Tuple[float, float] = (0.05, 0.25),
) -> TriangleMesh:
    """Random small boxes and spheres scattered in a region.

    Gives the stand-in scenes the geometric irregularity of real assets so
    BVH traversal (and therefore the predictor) sees realistic variety.
    """
    lo = np.asarray(region_lo, dtype=np.float64)
    hi = np.asarray(region_hi, dtype=np.float64)
    meshes: List[TriangleMesh] = []
    for _ in range(count):
        pos = lo + rng.random(3) * (hi - lo)
        size = size_range[0] + rng.random() * (size_range[1] - size_range[0])
        if rng.random() < 0.5:
            meshes.append(box(pos - size / 2, pos + size / 2))
        else:
            meshes.append(uv_sphere(tuple(pos), size / 2, lat=4, lon=6))
    if not meshes:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    return TriangleMesh.concatenate(meshes)
