"""Procedural mesh primitives.

Building blocks for the seven stand-in benchmark scenes: tessellated
quads, boxes, UV spheres, cylinders (columns), and voxel terrain.  A
:class:`MeshRecorder` records a scene's primitives in emission order and
emits each group of same-shape primitives in one NumPy broadcast; the
module-level functions record one primitive (or one compound object)
and build it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.geometry.triangle import TriangleMesh

#: A primitive's triangles: ``v0, v1, v2``, each ``(n, triangles, 3)``.
_Tris = Tuple[np.ndarray, np.ndarray, np.ndarray]

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


def _xyz(p: Sequence[float]) -> Tuple[float, float, float]:
    """``p`` as an ``(x, y, z)`` tuple; ``ValueError`` unless it has three."""
    x, y, z = p
    return x, y, z


def _check_subdiv(subdiv: int) -> None:
    if subdiv < 1:
        raise ValueError("subdiv must be >= 1")


def _split_cells(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 d: np.ndarray) -> _Tris:
    """Triangles ``(a, b, c)`` then ``(a, c, d)`` of every cell, cell by cell.

    ``a..d`` are ``(n, ..., 3)`` corner arrays of one shape, each
    primitive's cells in order.
    """
    axis = a.ndim - 1
    n = len(a)
    v0, v1, v2 = (
        np.stack(pair, axis=axis).reshape(n, -1, 3)
        for pair in ((a, a), (b, c), (c, d))
    )
    return v0, v1, v2


def _quad_tris(corners: np.ndarray, subdiv: int) -> _Tris:
    """Tessellate ``q`` bilinear quads at once; ``corners`` is ``(q, 4, 3)``.

    Every vertex goes through the same IEEE operations as a per-vertex
    loop (``p0*(1-u) + p1*u``, then ``bottom*(1-v) + top*v``), and each
    quad's triangles come out row-major over its grid cells, two per
    cell.
    """
    t = np.linspace(0.0, 1.0, subdiv + 1)[:, None]
    w = 1 - t
    p0, p1, p2, p3 = (corners[:, None, k] for k in range(4))
    bottom = (p0 * w + p1 * t)[:, :, None]
    top = (p3 * w + p2 * t)[:, :, None]
    grid = bottom * w + top * t  # (q, u, v, 3)
    return _split_cells(
        grid[:, :-1, :-1], grid[:, 1:, :-1], grid[:, 1:, 1:], grid[:, :-1, 1:]
    )


def _quad_group(params: np.ndarray, subdiv: int) -> _Tris:
    """Quads from rows of 12 corner coordinates."""
    return _quad_tris(params.reshape(-1, 4, 3), subdiv)


def _box_group(params: np.ndarray, subdiv: int) -> _Tris:
    """Boxes from rows ``(lo, hi)``, six faces each."""
    corners = np.where(
        _BOX_FACES, params[:, None, None, 3:], params[:, None, None, :3]
    )
    n = len(params)
    v0, v1, v2 = (
        v.reshape(n, -1, 3) for v in _quad_tris(corners.reshape(-1, 4, 3), subdiv)
    )
    return v0, v1, v2


def _sphere_group(params: np.ndarray, lat: int, lon: int) -> _Tris:
    """UV spheres from rows ``(cx, cy, cz, radius)``."""
    thetas = [math.pi * i / lat for i in range(lat + 1)]
    phis = [2.0 * math.pi * j / lon for j in range(lon)]
    sin_t = np.array([math.sin(t) for t in thetas])[:, None]
    cos_t = np.array([math.cos(t) for t in thetas])[:, None]
    cx, cy, cz, radius = (params[:, k, None, None] for k in range(4))
    ring_r = radius * sin_t
    points = np.empty((len(params), lat + 1, lon, 3))
    points[..., 0] = cx + ring_r * np.array([math.cos(p) for p in phis])
    points[..., 1] = cy + radius * cos_t
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
    flat = points.reshape(len(params), -1, 3)
    return flat[:, idx[:, 0]], flat[:, idx[:, 1]], flat[:, idx[:, 2]]


def _ring_heights(start: np.ndarray, stop: np.ndarray, rings: int) -> np.ndarray:
    """``np.linspace(start[k], stop[k], rings + 1)`` for each ``(n, 1)`` row.

    One ``np.linspace`` over the whole group would not do: when any
    row's step is zero it takes its divide-then-scale branch for every
    row, which can change the other rows' bytes when ``rings`` is not a
    power of two (``(1/3)*5.0 != 5.0/3``).  This takes the branch row by
    row, with linspace's own operations.
    """
    i = np.arange(rings + 1, dtype=np.float64)
    delta = stop - start
    step = delta / rings
    ys = np.where(step == 0, i / rings * delta, i * step)
    ys += start
    ys[:, -1] = stop[:, 0]
    return ys


def _cylinder_group(params: np.ndarray, segments: int, rings: int,
                    capped: bool) -> _Tris:
    """Cylinders from rows ``(cx, cy, cz, radius, height)``."""
    n = len(params)
    cx, cy, cz, radius, height = (params[:, k, None] for k in range(5))
    angles = [2.0 * math.pi * j / segments for j in range(segments)]
    ring_x = cx + radius * np.array([math.cos(a) for a in angles])
    ring_z = cz + radius * np.array([math.sin(a) for a in angles])
    ys = _ring_heights(cy, cy + height, rings)
    nxt = (np.arange(segments) + 1) % segments

    # Wall grid (ring, segment): a cell's corners run along its lower
    # ring from segment j to j+1, then back along the upper ring.
    grid = np.empty((n, rings + 1, segments, 3))
    grid[..., 0] = ring_x[:, None]
    grid[..., 1] = ys[:, :, None]
    grid[..., 2] = ring_z[:, None]
    parts: List[_Tris] = [
        _split_cells(grid[:, :-1], grid[:, :-1, nxt], grid[:, 1:, nxt], grid[:, 1:])
    ]

    if capped:
        for y in (ys[:, :1], ys[:, -1:]):
            rim = np.empty((n, segments, 3))
            rim[..., 0] = ring_x
            rim[..., 1] = y
            rim[..., 2] = ring_z
            hub = np.empty((n, segments, 3))
            hub[..., 0] = cx
            hub[..., 1] = y
            hub[..., 2] = cz
            parts.append((hub, rim, rim[:, nxt]))
    v0, v1, v2 = (np.concatenate(vs, axis=1) for vs in zip(*parts))
    return v0, v1, v2


#: Group kind -> emitter of all the group's primitives at once.
_EMITTERS: Dict[str, Callable[..., _Tris]] = {
    "quad": _quad_group,
    "box": _box_group,
    "sphere": _sphere_group,
    "cylinder": _cylinder_group,
}


class MeshRecorder:
    """A scene's primitives in emission order, emitted group by group.

    Each method checks its arguments, then records the primitive's
    parameters and the row of its first triangle.  :meth:`build` emits
    every group of same-kind, same-shape primitives (boxes or quads of
    one ``subdiv``, spheres of one ``lat``/``lon``, cylinders of one
    ``segments``/``rings``/``capped``) in one broadcast and writes each
    primitive's triangles at its recorded rows.  The mesh is byte
    identical to building the primitives one by one and concatenating
    them in call order.
    """

    def __init__(self) -> None:
        #: (kind, *shape) -> (first triangle row, parameter row) per primitive.
        self._groups: Dict[tuple, Tuple[List[int], List[Sequence[float]]]] = {}
        self._count = 0

    def _group(self, key: tuple) -> Tuple[List[int], List[Sequence[float]]]:
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = ([], [])
        return group

    def _record(self, key: tuple, triangles: int, params: Sequence[float]) -> None:
        first_rows, param_rows = self._group(key)
        first_rows.append(self._count)
        param_rows.append(params)
        self._count += triangles

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def quad(
        self,
        p0: Sequence[float],
        p1: Sequence[float],
        p2: Sequence[float],
        p3: Sequence[float],
        subdiv: int = 1,
    ) -> None:
        """Tessellated quad with corners ``p0..p3`` in order (2*subdiv^2 tris).

        The quad is bilinear: interior vertices are interpolated, so slightly
        non-planar corner sets produce curved patches (used for draperies).
        """
        _check_subdiv(subdiv)
        self._record(
            ("quad", subdiv), 2 * subdiv * subdiv,
            _xyz(p0) + _xyz(p1) + _xyz(p2) + _xyz(p3),
        )

    def box(self, lo: Sequence[float], hi: Sequence[float], subdiv: int = 1) -> None:
        """Axis-aligned box with all six faces tessellated ``subdiv`` times."""
        _check_subdiv(subdiv)
        self._record(("box", subdiv), 12 * subdiv * subdiv, _xyz(lo) + _xyz(hi))

    def boxes(self, lo: np.ndarray, hi: np.ndarray, subdiv: int = 1) -> None:
        """Boxes ``lo[i]..hi[i]`` (``(m, 3)`` arrays each), box after box."""
        _check_subdiv(subdiv)
        params = np.hstack((
            np.asarray(lo, dtype=np.float64).reshape(-1, 3),
            np.asarray(hi, dtype=np.float64).reshape(-1, 3),
        ))
        per_box = 12 * subdiv * subdiv
        end = self._count + len(params) * per_box
        first_rows, param_rows = self._group(("box", subdiv))
        first_rows.extend(range(self._count, end, per_box))
        param_rows.extend(params.tolist())
        self._count = end

    def open_room(self, lo: Sequence[float], hi: Sequence[float], subdiv: int = 2) -> None:
        """Interior of a room: floor, ceiling and four walls facing inward."""
        # Geometrically identical to a box; occlusion rays do not care about
        # winding, so reuse the box tessellation.
        self.box(lo, hi, subdiv=subdiv)

    def uv_sphere(
        self, center: Sequence[float], radius: float, lat: int = 8, lon: int = 12
    ) -> None:
        """UV sphere with ``lat`` latitude bands and ``lon`` longitude segments."""
        if lat < 2 or lon < 3:
            raise ValueError("need lat >= 2 and lon >= 3")
        self._record(
            ("sphere", lat, lon), 2 * lon * (lat - 1), _xyz(center) + (radius,)
        )

    def cylinder(
        self,
        center: Sequence[float],
        radius: float,
        height: float,
        segments: int = 10,
        rings: int = 1,
        capped: bool = True,
    ) -> None:
        """Vertical cylinder (column) centred at ``center`` (base at center y)."""
        if segments < 3:
            raise ValueError("segments must be >= 3")
        if rings < 1:
            raise ValueError("rings must be >= 1")
        capped = bool(capped)
        self._record(
            ("cylinder", segments, rings, capped),
            2 * segments * (rings + 1 if capped else rings),
            _xyz(center) + (radius, height),
        )

    # ------------------------------------------------------------------
    # Compound objects
    # ------------------------------------------------------------------
    def table(
        self, center: Sequence[float], width: float, depth: float, height: float
    ) -> None:
        """Simple four-legged table."""
        cx, cy, cz = center
        top_thickness = 0.06 * height
        leg = 0.08 * min(width, depth)
        self.box(
            (cx - width / 2, cy + height - top_thickness, cz - depth / 2),
            (cx + width / 2, cy + height, cz + depth / 2),
        )
        for sx in (-1, 1):
            for sz in (-1, 1):
                lx = cx + sx * (width / 2 - leg)
                lz = cz + sz * (depth / 2 - leg)
                self.box((lx - leg / 2, cy, lz - leg / 2), (lx + leg / 2, cy + height, lz + leg / 2))

    def chair(self, center: Sequence[float], size: float, height: float) -> None:
        """Simple chair: seat, four legs, and a back rest."""
        cx, cy, cz = center
        seat_h = 0.45 * height
        leg = 0.1 * size
        self.box(
            (cx - size / 2, cy + seat_h - 0.05 * height, cz - size / 2),
            (cx + size / 2, cy + seat_h, cz + size / 2),
        )
        self.box(
            (cx - size / 2, cy + seat_h, cz + size / 2 - leg),
            (cx + size / 2, cy + height, cz + size / 2),
        )
        for sx in (-1, 1):
            for sz in (-1, 1):
                lx = cx + sx * (size / 2 - leg / 2)
                lz = cz + sz * (size / 2 - leg / 2)
                self.box((lx - leg / 2, cy, lz - leg / 2), (lx + leg / 2, cy + seat_h, lz + leg / 2))

    def floor_field(
        self,
        rng: np.random.Generator,
        region_lo: Sequence[float],
        region_hi: Sequence[float],
        nx: int,
        nz: int,
        height_range: Tuple[float, float] = (0.4, 2.0),
        size_range: Tuple[float, float] = (0.25, 0.7),
        fill: float = 0.85,
    ) -> None:
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
                    self.box((cx - s / 2, y0, cz - s / 2), (cx + s / 2, y0 + h, cz + s / 2))
                elif roll < 0.85:
                    self.cylinder((cx, y0, cz), s / 2, h, segments=6)
                else:
                    self.uv_sphere((cx, y0 + s / 2, cz), s / 2, lat=4, lon=6)

    def clutter(
        self,
        rng: np.random.Generator,
        count: int,
        region_lo: Sequence[float],
        region_hi: Sequence[float],
        size_range: Tuple[float, float] = (0.05, 0.25),
    ) -> None:
        """Random small boxes and spheres scattered in a region.

        Gives the stand-in scenes the geometric irregularity of real assets so
        BVH traversal (and therefore the predictor) sees realistic variety.
        """
        lo = np.asarray(region_lo, dtype=np.float64)
        hi = np.asarray(region_hi, dtype=np.float64)
        for _ in range(count):
            pos = lo + rng.random(3) * (hi - lo)
            size = size_range[0] + rng.random() * (size_range[1] - size_range[0])
            if rng.random() < 0.5:
                self.box(pos - size / 2, pos + size / 2)
            else:
                self.uv_sphere(tuple(pos), size / 2, lat=4, lon=6)

    # ------------------------------------------------------------------
    def build(self) -> TriangleMesh:
        """Every recorded primitive's triangles, in recording order."""
        out = tuple(np.empty((self._count, 3)) for _ in range(3))
        for (kind, *shape), (first_rows, param_rows) in self._groups.items():
            tris = _EMITTERS[kind](np.array(param_rows, dtype=np.float64), *shape)
            at = np.add.outer(first_rows, np.arange(tris[0].shape[1]))
            for dst, src in zip(out, tris):
                dst[at] = src
        return TriangleMesh(*out)


def _built(record: Callable[..., None], *args, **kwargs) -> TriangleMesh:
    """Record one primitive or compound object with ``record`` and build it."""
    recorder = MeshRecorder()
    record(recorder, *args, **kwargs)
    return recorder.build()


def quad(
    p0: Sequence[float],
    p1: Sequence[float],
    p2: Sequence[float],
    p3: Sequence[float],
    subdiv: int = 1,
) -> TriangleMesh:
    """One :meth:`MeshRecorder.quad` as a mesh."""
    return _built(MeshRecorder.quad, p0, p1, p2, p3, subdiv)


def box(lo: Sequence[float], hi: Sequence[float], subdiv: int = 1) -> TriangleMesh:
    """One :meth:`MeshRecorder.box` as a mesh."""
    return _built(MeshRecorder.box, lo, hi, subdiv)


def open_room(lo: Sequence[float], hi: Sequence[float], subdiv: int = 2) -> TriangleMesh:
    """One :meth:`MeshRecorder.open_room` as a mesh."""
    return _built(MeshRecorder.open_room, lo, hi, subdiv)


def uv_sphere(
    center: Sequence[float], radius: float, lat: int = 8, lon: int = 12
) -> TriangleMesh:
    """One :meth:`MeshRecorder.uv_sphere` as a mesh."""
    return _built(MeshRecorder.uv_sphere, center, radius, lat, lon)


def cylinder(
    center: Sequence[float],
    radius: float,
    height: float,
    segments: int = 10,
    rings: int = 1,
    capped: bool = True,
) -> TriangleMesh:
    """One :meth:`MeshRecorder.cylinder` as a mesh."""
    return _built(MeshRecorder.cylinder, center, radius, height, segments, rings, capped)


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
    return _built(MeshRecorder.boxes, lo, hi)


def table(center: Sequence[float], width: float, depth: float, height: float) -> TriangleMesh:
    """One :meth:`MeshRecorder.table` as a mesh."""
    return _built(MeshRecorder.table, center, width, depth, height)


def chair(center: Sequence[float], size: float, height: float) -> TriangleMesh:
    """One :meth:`MeshRecorder.chair` as a mesh."""
    return _built(MeshRecorder.chair, center, size, height)


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
    """One :meth:`MeshRecorder.floor_field` as a mesh."""
    return _built(
        MeshRecorder.floor_field, rng, region_lo, region_hi, nx, nz,
        height_range, size_range, fill,
    )


def clutter(
    rng: np.random.Generator,
    count: int,
    region_lo: Sequence[float],
    region_hi: Sequence[float],
    size_range: Tuple[float, float] = (0.05, 0.25),
) -> TriangleMesh:
    """One :meth:`MeshRecorder.clutter` as a mesh."""
    return _built(MeshRecorder.clutter, rng, count, region_lo, region_hi, size_range)
