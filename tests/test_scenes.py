"""Unit tests for scene generators and the registry."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.triangle import TriangleMesh
from repro.reference import scenes as reference_scenes
from repro.scenes import SCENE_CODES, available_scenes, get_scene, procedural
from repro.scenes.procedural import (
    MeshRecorder,
    box,
    chair,
    clutter,
    cylinder,
    floor_field,
    open_room,
    quad,
    table,
    uv_sphere,
    voxel_terrain,
)

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))


class TestPrimitives:
    def test_quad_triangle_count(self):
        assert len(quad((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), subdiv=3)) == 18

    @pytest.mark.parametrize(
        "kind, args",
        [
            ("quad", ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))),
            ("box", ((0, 0, 0), (1, 1, 1))),
        ],
        ids=["quad", "box"],
    )
    def test_quad_subdiv_validation(self, kind, args):
        with pytest.raises(ValueError):
            getattr(procedural, kind)(*args, subdiv=0)
        # The recorder refuses the primitive when it is added, not at build().
        with pytest.raises(ValueError):
            getattr(MeshRecorder(), kind)(*args, subdiv=0)

    def test_box_triangle_count(self):
        assert len(box((0, 0, 0), (1, 1, 1), subdiv=2)) == 6 * 2 * 4

    def test_box_bounds(self):
        mesh = box((1, 2, 3), (4, 5, 6))
        aabb = mesh.scene_aabb()
        assert aabb.lo == (1, 2, 3)
        assert aabb.hi == (4, 5, 6)

    def test_open_room_same_as_box(self):
        assert len(open_room((0, 0, 0), (1, 1, 1), subdiv=2)) == len(
            box((0, 0, 0), (1, 1, 1), subdiv=2)
        )

    def test_sphere_bounds(self):
        mesh = uv_sphere((0, 0, 0), 1.0, lat=6, lon=8)
        aabb = mesh.scene_aabb()
        assert np.allclose(aabb.lo, (-1, -1, -1), atol=1e-6)
        assert np.allclose(aabb.hi, (1, 1, 1), atol=1e-6)

    @pytest.mark.parametrize("bad", [{"lat": 1}, {"lon": 2}], ids=["lat", "lon"])
    def test_sphere_validation(self, bad):
        with pytest.raises(ValueError):
            uv_sphere((0, 0, 0), 1.0, **bad)
        with pytest.raises(ValueError):
            MeshRecorder().uv_sphere((0, 0, 0), 1.0, **bad)

    def test_cylinder_height(self):
        mesh = cylinder((0, 0, 0), 0.5, 2.0, segments=8)
        aabb = mesh.scene_aabb()
        assert np.isclose(aabb.hi[1] - aabb.lo[1], 2.0)

    def test_cylinder_uncapped_fewer_triangles(self):
        capped = cylinder((0, 0, 0), 0.5, 1.0, segments=8, capped=True)
        open_ = cylinder((0, 0, 0), 0.5, 1.0, segments=8, capped=False)
        assert len(open_) < len(capped)

    @pytest.mark.parametrize(
        "bad", [{"segments": 2}, {"rings": 0}], ids=["segments", "rings"]
    )
    def test_cylinder_validation(self, bad):
        with pytest.raises(ValueError):
            cylinder((0, 0, 0), 0.5, 1.0, **bad)
        with pytest.raises(ValueError):
            MeshRecorder().cylinder((0, 0, 0), 0.5, 1.0, **bad)

    def test_voxel_terrain_quantizes(self):
        mesh = voxel_terrain(0, 0, 2, 2, 2, 2, lambda x, z: 0.74, block_height=0.5)
        aabb = mesh.scene_aabb()
        assert np.isclose(aabb.hi[1], 0.5)  # 0.74 rounds to 0.5

    def test_table_and_chair_nonempty(self):
        assert len(table((0, 0, 0), 1, 1, 0.7)) > 0
        assert len(chair((0, 0, 0), 0.5, 1.0)) > 0

    def test_floor_field_objects_stand_on_floor(self):
        rng = np.random.default_rng(1)
        mesh = floor_field(rng, (0, 0.5, 0), (4, 0.5, 4), nx=3, nz=3, fill=1.0)
        aabb = mesh.scene_aabb()
        assert aabb.lo[1] >= 0.5 - 1e-9

    def test_floor_field_deterministic(self):
        a = floor_field(np.random.default_rng(9), (0, 0, 0), (4, 0, 4), 3, 3)
        b = floor_field(np.random.default_rng(9), (0, 0, 0), (4, 0, 4), 3, 3)
        assert len(a) == len(b)
        assert np.allclose(a.v0, b.v0)

    def test_clutter_zero_count(self):
        mesh = clutter(np.random.default_rng(0), 0, (0, 0, 0), (1, 1, 1))
        assert len(mesh) == 0


class TestRegistry:
    def test_available_scenes_paper_order(self):
        assert available_scenes() == ["SB", "SP", "LE", "LR", "FR", "BI", "CK"]

    @pytest.mark.parametrize("code", SCENE_CODES)
    def test_all_scenes_build(self, code):
        scene = get_scene(code, detail=0.4)
        assert scene.num_triangles > 100
        assert scene.code == code
        assert not scene.aabb().is_empty()

    def test_alias_lookup(self):
        assert get_scene("sponza", detail=0.4).code == "SP"
        assert get_scene("kitchen", detail=0.4).code == "CK"

    def test_case_insensitive(self):
        assert get_scene("sp", detail=0.4).code == "SP"

    def test_unknown_scene_raises(self):
        with pytest.raises(KeyError):
            get_scene("nonexistent")

    def test_invalid_detail_raises(self):
        with pytest.raises(ValueError):
            get_scene("SP", detail=0.0)
        for detail in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive finite"):
                get_scene("SP", detail=detail)

    def test_detail_scales_triangles(self):
        small = get_scene("SP", detail=0.5)
        large = get_scene("SP", detail=2.0)
        assert large.num_triangles > small.num_triangles

    def test_deterministic(self):
        a = get_scene("LR", detail=0.5)
        b = get_scene("LR", detail=0.5)
        assert a.num_triangles == b.num_triangles
        assert np.allclose(a.mesh.v0, b.mesh.v0)

    def test_camera_inside_scene_bbox(self):
        # Interior scenes: camera should sit within the scene bounds so
        # primary rays see geometry.
        for code in SCENE_CODES:
            scene = get_scene(code, detail=0.4)
            assert scene.aabb().contains_point(scene.camera.eye, eps=1.0), code


def mesh_bytes(mesh) -> tuple:
    """The mesh's vertex arrays as bytes (``-0.0`` and ``0.0`` differ)."""
    return tuple(v.tobytes() for v in (mesh.v0, mesh.v1, mesh.v2))


# Corners mix signed zeros and small magnitudes with arbitrary finite
# values; drawing them from a small pool repeats points (degenerate quads).
coords = st.sampled_from([-0.0, 0.0, 0.5, -1.0, 1.0]) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
points = st.tuples(coords, coords, coords)
corner_sets = st.lists(points, min_size=1, max_size=4).flatmap(
    lambda pool: st.tuples(*[st.sampled_from(pool)] * 4)
)
radii = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(
    min_value=0.0, max_value=1e3
)
heights = st.sampled_from([0.0, -0.0, 5.0]) | st.floats(
    min_value=-1e3, max_value=1e3
)


@st.composite
def primitive_sequences(draw):
    """1-12 ``(kind, args)`` primitives of all four kinds.

    Each sequence draws one or two shapes per kind and every primitive
    takes one of them, so most groups hold several primitives.
    """
    shapes = {
        "quad": st.tuples(st.integers(min_value=1, max_value=3)),
        "box": st.tuples(st.integers(min_value=1, max_value=2)),
        "uv_sphere": st.tuples(
            st.integers(min_value=2, max_value=4), st.integers(min_value=3, max_value=5)
        ),
        "cylinder": st.tuples(
            st.integers(min_value=3, max_value=5),
            st.integers(min_value=1, max_value=3),
            st.booleans(),
        ),
    }
    palette = {
        kind: draw(st.lists(shape, min_size=1, max_size=2))
        for kind, shape in shapes.items()
    }
    sequence = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(sorted(palette)))
        shape = draw(st.sampled_from(palette[kind]))
        if kind == "quad":
            head = draw(corner_sets)
        elif kind == "box":
            head = (draw(points), draw(points))
        elif kind == "uv_sphere":
            head = (draw(points), draw(radii))
        else:
            head = (draw(points), draw(radii), draw(heights))
        sequence.append((kind, head + shape))
    return sequence


class TestPrimitivesMatchReference:
    """The broadcast primitives emit the loop oracle's bytes."""

    @given(corners=corner_sets, subdiv=st.integers(min_value=1, max_value=8))
    @settings(max_examples=MAX_EXAMPLES)
    def test_quad(self, corners, subdiv):
        assert mesh_bytes(quad(*corners, subdiv=subdiv)) == mesh_bytes(
            reference_scenes.quad(*corners, subdiv=subdiv)
        )

    @given(
        lo=points, hi=points, subdiv=st.integers(min_value=1, max_value=8)
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_box(self, lo, hi, subdiv):
        assert mesh_bytes(box(lo, hi, subdiv=subdiv)) == mesh_bytes(
            reference_scenes.box(lo, hi, subdiv=subdiv)
        )

    @given(
        center=points,
        radius=radii,
        lat=st.integers(min_value=2, max_value=8),
        lon=st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_uv_sphere(self, center, radius, lat, lon):
        assert mesh_bytes(uv_sphere(center, radius, lat=lat, lon=lon)) == mesh_bytes(
            reference_scenes.uv_sphere(center, radius, lat=lat, lon=lon)
        )

    @given(
        center=points,
        radius=radii,
        height=heights,
        segments=st.integers(min_value=3, max_value=12),
        rings=st.integers(min_value=1, max_value=3),
        capped=st.booleans(),
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_cylinder(self, center, radius, height, segments, rings, capped):
        args = (center, radius, height, segments, rings, capped)
        assert mesh_bytes(cylinder(*args)) == mesh_bytes(
            reference_scenes.cylinder(*args)
        )

    @given(
        origin=st.tuples(coords, coords),
        size=st.tuples(
            st.floats(min_value=0.1, max_value=50.0),
            st.floats(min_value=0.1, max_value=50.0),
        ),
        nx=st.integers(min_value=1, max_value=5),
        nz=st.integers(min_value=1, max_value=5),
        slope=st.tuples(coords, coords, coords),
        block_height=st.sampled_from([0.25, 0.5, 1.0, 0.3]),
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_voxel_terrain(self, origin, size, nx, nz, slope, block_height):
        x0, z0 = origin
        a, b, c = slope

        def height(x, z):
            return a * x + b * z + c

        args = (x0, z0, x0 + size[0], z0 + size[1], nx, nz, height)
        assert mesh_bytes(
            voxel_terrain(*args, block_height=block_height)
        ) == mesh_bytes(
            reference_scenes.voxel_terrain(*args, block_height=block_height)
        )


class TestRecorderMatchesReference:
    """One build of a recorded sequence equals its oracle meshes, concatenated."""

    @given(sequence=primitive_sequences())
    # A zero-height and a non-zero-height cylinder in one rings=3 group:
    # one np.linspace over the group would rescale the second's rings.
    @example(
        sequence=[
            ("cylinder", ((0.0, 0.0, 0.0), 1.0, 0.0, 3, 3, True)),
            ("cylinder", ((0.0, 0.0, 0.0), 1.0, 5.0, 3, 3, True)),
        ]
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_recorded_sequence(self, sequence):
        recorder = MeshRecorder()
        for kind, args in sequence:
            getattr(recorder, kind)(*args)
        expected = TriangleMesh.concatenate(
            [getattr(reference_scenes, kind)(*args) for kind, args in sequence]
        )
        assert mesh_bytes(recorder.build()) == mesh_bytes(expected)


#: SHA-256 over ``v0``, ``v1``, ``v2`` bytes of every registry scene.
#: Pins the whole generator - primitive bytes, the order of parts, the
#: order of rng draws and ``TriangleMesh.concatenate`` - not just the
#: primitives the oracle above checks.
SCENE_SHA256 = {
    (0.3, "SB"): "9d4c6fd6687581ed277d4b1825b837931420e968b35501da076bfb5b62dce5f7",
    (0.3, "SP"): "9fc70114de81bef6f9231273b2b9727b13f10db52df9cf36b3ede11347641583",
    (0.3, "LE"): "5a9d9814d9761fb917b94c1b00a8e142998ab384a6ad62f1eaf3ef482086c341",
    (0.3, "LR"): "903626c9e39a39a25d5d63af5f56c10368e078963bb3bf15bead867fc4497399",
    (0.3, "FR"): "6c0d9a6c4a5e51d975c4914cc8e11cfbd6e8e16b310956360cd7fb1769609531",
    (0.3, "BI"): "1de1d09bfc883de23d3f2de5184d284fdd6f04f0505c20292cc98a857a03f614",
    (0.3, "CK"): "8b7dcd1247eed3efcde260a0124f0f12490a681596d18129f3f6807581162020",
    (1.0, "SB"): "c70a6ef29b1fce0bb20c4740051127c6573ed3c549aab6708778cdfccc33b116",
    (1.0, "SP"): "bd154bb2b58f3889b865123d6a0b48cf95e70aa0703497c1b4000e6278047852",
    (1.0, "LE"): "acf1e304cc2455c9c3a1efd21c4e57e56a9935c64b78fc828ecc1b507f7d7305",
    (1.0, "LR"): "7084f5489d4ab617ed37b84a9e872344902f018f37cd7fd10049c13c6b07206b",
    (1.0, "FR"): "4d1422cd0b9f0f07c89e69c508fd197742067a19e564c8bf0a0d669200cb70c7",
    (1.0, "BI"): "e6928135ea94b26a2483a6adc1137c8a726dbb80de3c6fd5ee6ccd08b9265ca0",
    (1.0, "CK"): "ab41c2969ce99f44e13945ef02ac86ceb6b5bcd69d057277c5f4dd6b893bc22d",
    (8.0, "SB"): "b445f8fe18b00a4f340262164fd90f74142e533ec746e8dc05074870f8d76db3",
    (8.0, "SP"): "4686a3634540024c9c12a7ba746790292f16d6782532708284da301940e06c14",
    (8.0, "LE"): "72f4bc8956a11fe6161fd9ba40c37f0f0ccb1b07fc0dc4c192ebb6ad63e828f4",
    (8.0, "LR"): "71dee0ec338bc5f61b71df57251fbfab7799081b2aee35e29523128e21ff46a6",
    (8.0, "FR"): "964f330af6f9dbf8dda2cf961d0be8492755d275e75eb4afc48efa52b9b8e386",
    (8.0, "BI"): "ffebf7f9297182ff4d6ebd25fbcd291cefc9f235b7922855ffca6e25e45d80a5",
    (8.0, "CK"): "1d670059dc161cf1425ee4710ba4a3131f76327dd0fe8ad16427bba62a419e41",
}


def test_scene_bytes_pinned():
    for (detail, code), expected in SCENE_SHA256.items():
        digest = hashlib.sha256()
        for chunk in mesh_bytes(get_scene(code, detail=detail).mesh):
            digest.update(chunk)
        assert digest.hexdigest() == expected, (code, detail)
