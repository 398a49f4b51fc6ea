"""Generators for the seven stand-in benchmark scenes.

Each generator mirrors the *character* of the paper's Table 1 scene -
indoor architecture with columns and dense object clutter, a voxel
terrain for Lost Empire - at a triangle budget controlled by ``detail``
(1.0 gives a few thousand triangles, enough that the BVH working set
exceeds a scaled L1 while keeping pure-Python simulation tractable).

A property that matters for reproducing the paper: the real assets are
*dense* - an AO ray leaving a surface usually meets an occluder within a
small fraction of the scene diagonal, so rays with similar hashes hit
similar subtrees.  Every interior scene therefore carries a
:meth:`~repro.scenes.procedural.MeshRecorder.floor_field` of
floor-standing occluders in the camera's view, in addition to its
identifying architecture.  Each generator records its primitives into
one :class:`~repro.scenes.procedural.MeshRecorder` and builds the mesh
once.  All scenes are deterministic for a given ``detail``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.scenes import procedural as P
from repro.scenes.scene import CameraSpec, Scene


def _scaled(value: int, detail: float, minimum: int = 1) -> int:
    """Scale an instance/tessellation count by ``detail``."""
    return max(minimum, int(round(value * detail)))


def _subdiv(value: int, detail: float) -> int:
    """Scale a quad subdivision level by ``sqrt(detail)`` (tris ~ subdiv^2)."""
    return max(1, int(round(value * math.sqrt(detail))))


def _grid(value: int, detail: float, minimum: int = 2) -> int:
    """Scale a 2D grid dimension by ``sqrt(detail)`` (cells ~ detail)."""
    return max(minimum, int(round(value * math.sqrt(detail))))


def sibenik(detail: float = 1.0) -> Scene:
    """Cathedral-like hall: nave with colonnades, pew rows, floor clutter."""
    rng = np.random.default_rng(11)
    rec = P.MeshRecorder()
    rec.open_room((0, 0, 0), (20, 8, 10), subdiv=_subdiv(4, detail))
    n_cols = _scaled(6, detail, minimum=3)
    for i in range(n_cols):
        x = 2.5 + i * (15.0 / max(1, n_cols - 1))
        for z in (2.0, 8.0):
            rec.cylinder((x, 0.0, z), 0.4, 6.5, segments=_scaled(8, detail, 6))
            rec.uv_sphere((x, 7.0, z), 0.6, lat=4, lon=8)
    # Pew rows fill the nave: the dense near-surface occluders.
    rec.floor_field(
        rng, (2.0, 0.0, 2.8), (18.0, 0.0, 7.2),
        nx=_grid(9, detail), nz=_grid(5, detail),
        height_range=(0.5, 1.4), size_range=(0.35, 0.8),
    )
    rec.clutter(rng, _scaled(20, detail, 5), (1, 0, 1), (19, 1.6, 9))
    mesh = rec.build()
    return Scene(
        name="Sibenik",
        code="SB",
        mesh=mesh,
        camera=CameraSpec(eye=(1.5, 3.5, 5.0), look_at=(16.0, 0.8, 5.0)),
        description="Procedural stand-in for the Sibenik cathedral interior.",
    )


def crytek_sponza(detail: float = 1.0) -> Scene:
    """Two-story atrium: perimeter colonnades, draperies, plant clutter."""
    rng = np.random.default_rng(22)
    rec = P.MeshRecorder()
    rec.open_room((0, 0, 0), (24, 12, 12), subdiv=_subdiv(5, detail))
    n_cols = _scaled(8, detail, minimum=4)
    for y0 in (0.0, 6.0):
        for i in range(n_cols):
            x = 2.0 + i * (20.0 / max(1, n_cols - 1))
            for z in (2.0, 10.0):
                rec.cylinder((x, y0, z), 0.35, 5.0, segments=_scaled(8, detail, 6))
        rec.box((1.0, y0 + 5.0, 1.0), (23.0, y0 + 5.4, 3.0))
        rec.box((1.0, y0 + 5.0, 9.0), (23.0, y0 + 5.4, 11.0))
    # Draperies: curved quads hanging into the atrium.
    n_drapes = _scaled(5, detail, minimum=2)
    for i in range(n_drapes):
        x = 3.0 + i * (18.0 / max(1, n_drapes - 1))
        rec.quad(
            (x, 10.5, 3.2), (x + 2.5, 10.5, 3.2), (x + 2.5, 4.0, 4.6), (x, 4.0, 4.6),
            subdiv=_subdiv(4, detail),
        )
    # Plant pots and market clutter across the atrium floor.
    rec.floor_field(
        rng, (2.5, 0.0, 3.0), (21.5, 0.0, 9.0),
        nx=_grid(10, detail), nz=_grid(4, detail),
        height_range=(0.5, 2.2), size_range=(0.3, 0.8),
    )
    rec.clutter(rng, _scaled(25, detail, 8), (1, 0, 1), (23, 2.0, 11))
    mesh = rec.build()
    return Scene(
        name="Crytek Sponza",
        code="SP",
        mesh=mesh,
        camera=CameraSpec(eye=(2.0, 3.0, 6.0), look_at=(20.0, 0.8, 6.0)),
        description="Procedural stand-in for the Crytek Sponza atrium.",
    )


def lost_empire(detail: float = 1.0) -> Scene:
    """Voxel terrain with stepped towers (Minecraft-style Lost Empire)."""

    def height(x: float, z: float) -> float:
        base = 2.0 + 1.5 * math.sin(0.45 * x) * math.cos(0.38 * z)
        tower = 5.0 * max(0.0, math.sin(0.9 * x) * math.sin(0.8 * z)) ** 3
        return base + tower

    n = _scaled(16, math.sqrt(detail), minimum=8)
    mesh = P.voxel_terrain(0.0, 0.0, 26.0, 26.0, n, n, height, block_height=0.5)
    return Scene(
        name="Lost Empire",
        code="LE",
        mesh=mesh,
        camera=CameraSpec(eye=(2.0, 7.0, 2.0), look_at=(14.0, 2.0, 14.0)),
        description="Procedural voxel terrain stand-in for Lost Empire.",
    )


def living_room(detail: float = 1.0) -> Scene:
    """Furnished living room: sofa, tables, shelving, dense floor objects."""
    rng = np.random.default_rng(44)
    rec = P.MeshRecorder()
    rec.open_room((0, 0, 0), (10, 4, 8), subdiv=_subdiv(6, detail))
    # Sofa: seat, back, two arm rests.
    rec.box((1.0, 0.0, 2.0), (2.2, 0.9, 6.0), subdiv=_subdiv(2, detail))
    rec.box((1.0, 0.9, 2.0), (1.4, 1.7, 6.0), subdiv=_subdiv(2, detail))
    rec.box((1.0, 0.9, 1.6), (2.2, 1.3, 2.0))
    rec.box((1.0, 0.9, 6.0), (2.2, 1.3, 6.4))
    rec.table((4.5, 0.0, 4.0), 1.8, 1.0, 0.5)
    for z in (2.5, 5.5):
        rec.chair((6.5, 0.0, z), 0.8, 1.4)
    # Shelving wall with books.
    n_books = _scaled(30, detail, minimum=8)
    for i in range(n_books):
        y = 0.4 + (i % 4) * 0.8
        z = 0.5 + (i // 4) * (6.5 / max(1, (n_books - 1) // 4 + 1))
        rec.box((8.6, y, z), (8.9, y + 0.6, z + 0.15))
    rec.cylinder((8.0, 0.0, 7.0), 0.08, 1.6, segments=6)
    rec.uv_sphere((8.0, 1.8, 7.0), 0.35, lat=5, lon=8)
    # Dense floor objects: toys, baskets, ottomans.
    rec.floor_field(
        rng, (2.5, 0.0, 1.0), (8.2, 0.0, 7.0),
        nx=_grid(6, detail), nz=_grid(6, detail),
        height_range=(0.2, 0.9), size_range=(0.2, 0.55), fill=0.7,
    )
    rec.clutter(rng, _scaled(30, detail, 10), (0.5, 0, 0.5), (9.5, 1.2, 7.5))
    mesh = rec.build()
    return Scene(
        name="Living Room",
        code="LR",
        mesh=mesh,
        camera=CameraSpec(eye=(9.0, 2.4, 1.0), look_at=(3.0, 0.6, 5.5)),
        description="Procedural stand-in for the Living Room scene.",
    )


def fireplace_room(detail: float = 1.0) -> Scene:
    """Room with a fireplace alcove, armchairs, rug and floor clutter."""
    rng = np.random.default_rng(55)
    rec = P.MeshRecorder()
    rec.open_room((0, 0, 0), (9, 4, 7), subdiv=_subdiv(5, detail))
    rec.box((3.4, 0.0, 0.0), (5.6, 4.0, 0.6), subdiv=_subdiv(3, detail))
    rec.box((3.8, 0.0, 0.0), (5.2, 1.2, 0.7))
    rec.box((3.2, 1.5, 0.0), (5.8, 1.7, 0.9))
    for x in (2.5, 6.5):
        rec.chair((x, 0.0, 2.5), 1.0, 1.5)
    rec.table((4.5, 0.0, 3.2), 1.2, 0.8, 0.45)
    rec.quad((2.5, 0.02, 1.5), (6.5, 0.02, 1.5), (6.5, 0.02, 4.5), (2.5, 0.02, 4.5),
             subdiv=_subdiv(6, detail))
    # Log baskets, stools and hearth tools spread on the floor.
    rec.floor_field(
        rng, (1.0, 0.0, 1.0), (8.0, 0.0, 6.0),
        nx=_grid(6, detail), nz=_grid(5, detail),
        height_range=(0.25, 1.0), size_range=(0.2, 0.6), fill=0.7,
    )
    rec.clutter(rng, _scaled(20, detail, 6), (0.5, 0, 0.5), (8.5, 1.4, 6.5))
    mesh = rec.build()
    return Scene(
        name="Fireplace Room",
        code="FR",
        mesh=mesh,
        camera=CameraSpec(eye=(7.8, 2.2, 6.2), look_at=(3.5, 0.6, 1.5)),
        description="Procedural stand-in for the Fireplace Room scene.",
    )


def bistro_interior(detail: float = 1.0) -> Scene:
    """Restaurant interior: table/chair grid, bar counter, hanging lamps."""
    rng = np.random.default_rng(66)
    rec = P.MeshRecorder()
    rec.open_room((0, 0, 0), (16, 5, 12), subdiv=_subdiv(5, detail))
    nx = _grid(4, detail, minimum=3)
    nz = _grid(3, detail, minimum=2)
    for i in range(nx):
        for j in range(nz):
            cx = 3.0 + i * (10.0 / max(1, nx - 1))
            cz = 2.5 + j * (6.0 / max(1, nz - 1))
            rec.table((cx, 0.0, cz), 1.2, 1.2, 0.75)
            for dx, dz in ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)):
                rec.chair((cx + dx, 0.0, cz + dz), 0.5, 1.0)
            rec.cylinder((cx, 3.8, cz), 0.03, 1.2, segments=4, capped=False)
            rec.uv_sphere((cx, 3.6, cz), 0.25, lat=4, lon=8)
    rec.box((0.5, 0.0, 10.0), (12.0, 1.1, 11.2), subdiv=_subdiv(2, detail))
    n_stools = _scaled(6, detail, minimum=3)
    for i in range(n_stools):
        x = 1.5 + i * (9.5 / max(1, n_stools - 1))
        rec.cylinder((x, 0.0, 9.3), 0.18, 0.8, segments=8)
    # Crates, plants and service carts between the tables.
    rec.floor_field(
        rng, (1.0, 0.0, 1.0), (15.0, 0.0, 9.0),
        nx=_grid(7, detail), nz=_grid(4, detail),
        height_range=(0.3, 1.2), size_range=(0.25, 0.6), fill=0.6,
    )
    rec.clutter(rng, _scaled(40, detail, 12), (0.5, 0, 0.5), (15.5, 1.6, 11.5))
    mesh = rec.build()
    return Scene(
        name="Bistro Interior",
        code="BI",
        mesh=mesh,
        camera=CameraSpec(eye=(1.0, 2.4, 1.0), look_at=(11.0, 0.7, 8.0)),
        description="Procedural stand-in for the Amazon Bistro interior.",
    )


def country_kitchen(detail: float = 1.0) -> Scene:
    """Kitchen: wall counters, island, cabinets, dense small-object clutter."""
    rng = np.random.default_rng(77)
    rec = P.MeshRecorder()
    rec.open_room((0, 0, 0), (12, 4, 9), subdiv=_subdiv(5, detail))
    rec.box((0.0, 0.0, 0.0), (12.0, 0.95, 0.7), subdiv=_subdiv(3, detail))
    rec.box((0.0, 0.0, 0.7), (0.7, 0.95, 9.0), subdiv=_subdiv(3, detail))
    n_cabinets = _scaled(6, detail, minimum=3)
    for i in range(n_cabinets):
        x0 = 0.5 + i * (10.5 / n_cabinets)
        rec.box((x0, 2.2, 0.0), (x0 + 10.5 / n_cabinets - 0.1, 3.2, 0.45))
    rec.box((4.5, 0.0, 3.5), (8.0, 1.0, 5.5), subdiv=_subdiv(2, detail))
    for x in (5.0, 6.2, 7.4):
        rec.cylinder((x, 0.0, 6.2), 0.18, 0.75, segments=8)
    # Dense counter-top clutter: pots, jars, bowls.
    n_objects = _scaled(40, detail, minimum=10)
    for _ in range(n_objects):
        x = 0.4 + rng.random() * 11.0
        z = 0.15 + rng.random() * 0.4
        r = 0.06 + rng.random() * 0.12
        if rng.random() < 0.5:
            rec.cylinder((x, 0.95, z), r, 2.5 * r, segments=7)
        else:
            rec.uv_sphere((x, 0.95 + r, z), r, lat=4, lon=7)
    # Crocks, baskets and stools across the kitchen floor.
    rec.floor_field(
        rng, (1.0, 0.0, 1.2), (11.0, 0.0, 8.2),
        nx=_grid(6, detail), nz=_grid(5, detail),
        height_range=(0.25, 1.0), size_range=(0.2, 0.55), fill=0.7,
    )
    rec.clutter(rng, _scaled(35, detail, 10), (0.8, 0, 0.8), (11.5, 1.4, 8.5))
    mesh = rec.build()
    return Scene(
        name="Country Kitchen",
        code="CK",
        mesh=mesh,
        camera=CameraSpec(eye=(10.5, 2.4, 8.0), look_at=(3.0, 0.7, 2.0)),
        description="Procedural stand-in for the Country Kitchen scene.",
    )
