"""Differential tests for the level-synchronous vector BVH builders.

The contract under test: for every method and every input,
:func:`repro.bvh.build_bvh` produces a :class:`FlatBVH` that is
*array-identical* to the scalar oracle's
(:func:`repro.reference.build_bvh`) - same node numbering, same bounds
to the bit, same triangle permutation.  The scalar builders are the
specification; the vector builders are an optimization that must be
observationally invisible.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import reference, telemetry
from repro.bvh import build_bvh, jitter_mesh, refit_bvh, validate_bvh
from repro.bvh.vector import trees_identical
from repro.geometry.triangle import TriangleMesh
from repro.scenes import SCENE_CODES, get_scene

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))

METHODS = ("sah", "median", "lbvh")

#: Coordinates that make ties common: empty bins, equal SAH costs,
#: coincident centroids and folds over both signed zeros.
TIE_COORDS = (-1.0, -0.0, 0.0, 0.5, 1.0)


def random_mesh(n: int, seed: int, spread: float = 4.0) -> TriangleMesh:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, (n, 3))
    v0 = centers + rng.normal(scale=0.3, size=(n, 3))
    v1 = centers + rng.normal(scale=0.3, size=(n, 3))
    v2 = centers + rng.normal(scale=0.3, size=(n, 3))
    return TriangleMesh(v0, v1, v2)


def assert_identical(mesh: TriangleMesh, method: str, **kwargs) -> None:
    vec = build_bvh(mesh, method=method, **kwargs)
    sca = reference.build_bvh(mesh, method=method, **kwargs)
    assert trees_identical(vec, sca), (
        f"vector {method} tree diverged from the scalar oracle "
        f"(n={len(mesh)}, kwargs={kwargs})"
    )


class TestSceneDifferential:
    """Every registry scene, every method: trees agree array-for-array."""

    @pytest.mark.parametrize("code", SCENE_CODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_scene_trees_identical(self, code, method):
        mesh = get_scene(code, detail=0.3).mesh
        assert_identical(mesh, method)

    @pytest.mark.parametrize("code", SCENE_CODES)
    def test_scene_refit_bit_identical(self, code):
        # The build preset's refit: the SAH tree at detail 1, its mesh
        # jittered by 0.05 with seed 1.
        bvh = build_bvh(get_scene(code, detail=1.0).mesh)
        moved = jitter_mesh(bvh.mesh, 0.05, seed=1)
        vec = refit_bvh(bvh, moved)
        sca = reference.refit_bvh(bvh, moved)
        assert np.array_equal(vec.lo, sca.lo)
        assert np.array_equal(vec.hi, sca.hi)
        assert not np.array_equal(vec.lo, bvh.lo)

    @pytest.mark.parametrize("method", METHODS)
    def test_vector_tree_validates(self, small_scene, method):
        bvh = build_bvh(small_scene.mesh, method=method)
        validate_bvh(bvh)


class TestPropertyDifferential:
    @given(
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        method=st.sampled_from(METHODS),
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_random_meshes_identical(self, n, seed, method):
        assert_identical(random_mesh(n, seed), method)

    @given(
        verts=hnp.arrays(
            np.float64,
            st.tuples(st.integers(min_value=1, max_value=120), st.just(9)),
            elements=st.sampled_from(TIE_COORDS),
        ),
        num_bins=st.sampled_from((2, 3, 16)),
        max_leaf_size=st.sampled_from((1, 4)),
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_tied_and_signed_zero_meshes_identical(self, verts, num_bins,
                                                   max_leaf_size):
        # Random-normal meshes almost never tie; these almost always do,
        # so every fold, sweep and argmin meets equal and +/-0 operands.
        # Few bins put tied centroids on bin edges, where SAH's counting
        # partition must still leave both sides non-empty.
        mesh = TriangleMesh(verts[:, 0:3], verts[:, 3:6], verts[:, 6:9])
        assert_identical(mesh, "sah", num_bins=num_bins,
                         max_leaf_size=max_leaf_size)
        for method in ("median", "lbvh"):
            assert_identical(mesh, method, max_leaf_size=max_leaf_size)

    @given(
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        method=st.sampled_from(METHODS),
    )
    @settings(max_examples=MAX_EXAMPLES)
    def test_refit_engines_identical(self, n, seed, method):
        bvh = build_bvh(random_mesh(n, seed), method=method)
        moved = jitter_mesh(bvh.mesh, magnitude=0.1, seed=seed % 97)
        vec = refit_bvh(bvh, moved)
        sca = reference.refit_bvh(bvh, moved)
        assert np.array_equal(vec.lo, sca.lo)
        assert np.array_equal(vec.hi, sca.hi)


class TestEdgeCases:
    @pytest.mark.parametrize("method", METHODS)
    def test_single_triangle(self, method):
        assert_identical(random_mesh(1, 7), method)

    @pytest.mark.parametrize("method", METHODS)
    def test_coincident_centroids(self, method):
        # Every centroid identical: the median/SAH splits degenerate to
        # the halve-anyway fallback, LBVH to the object median; the
        # vector planner must take the same fallbacks.
        tri = random_mesh(1, 3)
        n = 37
        mesh = TriangleMesh(
            np.repeat(tri.v0, n, axis=0),
            np.repeat(tri.v1, n, axis=0),
            np.repeat(tri.v2, n, axis=0),
        )
        assert_identical(mesh, method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("max_leaf_size", [1, 8, 16])
    def test_leaf_size_variants(self, method, max_leaf_size):
        assert_identical(random_mesh(150, 11), method,
                         max_leaf_size=max_leaf_size)

    @pytest.mark.parametrize("num_bins", [2, 64])
    def test_sah_bin_count_variants(self, num_bins):
        assert_identical(random_mesh(200, 13), "sah", num_bins=num_bins)

    def test_sah_cost_knobs(self):
        assert_identical(
            random_mesh(180, 17), "sah",
            traversal_cost=2.5, intersect_cost=0.5,
        )

    @pytest.mark.parametrize("bits", [4, 21])
    def test_lbvh_morton_bits_variants(self, bits):
        # bits=21 exercises the full 63-bit Morton range (uint64 keys
        # must never round-trip through float); bits=4 forces heavy
        # code collisions and the median fallback.
        assert_identical(random_mesh(160, 19), "lbvh", bits=bits)

    def test_flat_axis_cloud(self):
        # All centroids on one plane: one axis has zero extent, so the
        # per-axis SAH scale must mask it rather than divide by zero.
        mesh = random_mesh(90, 23)
        v0, v1, v2 = mesh.v0.copy(), mesh.v1.copy(), mesh.v2.copy()
        shift = ((v0 + v1 + v2) / 3.0)[:, 2]
        for v in (v0, v1, v2):
            v[:, 2] -= shift
        flat = TriangleMesh(v0, v1, v2)
        for method in METHODS:
            assert_identical(flat, method)


class TestEngineSelection:
    def test_unknown_method_raises(self, tiny_mesh):
        with pytest.raises(ValueError, match="build method"):
            build_bvh(tiny_mesh, method="kdtree")

    def test_empty_mesh_raises(self):
        empty = TriangleMesh(
            np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3))
        )
        with pytest.raises(ValueError, match="empty mesh"):
            build_bvh(empty)


class TestLevelSchedules:
    """The vectorized FlatBVH derived views match loop references."""

    def test_depths_match_loop_reference(self, small_bvh):
        expected = np.zeros(small_bvh.num_nodes, dtype=np.int64)
        for node in range(1, small_bvh.num_nodes):
            expected[node] = expected[small_bvh.parent[node]] + 1
        assert np.array_equal(small_bvh.depths(), expected)

    def test_levels_partition_nodes_by_depth(self, small_bvh):
        depths = small_bvh.depths()
        levels = small_bvh.levels()
        assert len(levels) == int(depths.max()) + 1
        seen = np.concatenate(levels)
        assert sorted(seen.tolist()) == list(range(small_bvh.num_nodes))
        for d, nodes in enumerate(levels):
            assert np.all(depths[nodes] == d)
            # Sorted within a level (stable argsort over node index).
            assert np.all(np.diff(nodes) > 0)

    def test_leaf_of_triangle_matches_loop_reference(self, small_bvh):
        expected = np.full(small_bvh.num_triangles, -1, dtype=np.int64)
        for leaf in small_bvh.leaf_nodes():
            start = int(small_bvh.first_tri[leaf])
            for tri in range(start, start + int(small_bvh.tri_count[leaf])):
                expected[tri] = leaf
        assert np.array_equal(small_bvh.leaf_of_triangle(), expected)


class TestBuildTelemetry:
    def test_build_levels_counter(self, tiny_mesh):
        with telemetry.enabled_scope():
            telemetry.reset_telemetry()
            build_bvh(tiny_mesh, method="median")
            reg = telemetry.get_registry()
            assert reg.total("bvh.build_levels") > 0
            assert reg.value(
                "bvh.build_levels", method="median", engine="vector"
            ) > 0

    def test_scalar_build_reports_no_levels(self, tiny_mesh):
        # The scalar builders have no frontier; the counter must not
        # invent one for them.
        with telemetry.enabled_scope():
            telemetry.reset_telemetry()
            reference.build_bvh(tiny_mesh, method="median")
            assert telemetry.get_registry().total("bvh.build_levels") == 0

    def test_refit_nodes_counter(self, small_bvh):
        with telemetry.enabled_scope():
            telemetry.reset_telemetry()
            refit_bvh(small_bvh, small_bvh.mesh)
            reg = telemetry.get_registry()
            assert reg.value(
                "bvh.refit_nodes", engine="vector"
            ) == small_bvh.num_nodes

    def test_counters_silent_when_disabled(self, tiny_mesh):
        assert not telemetry.enabled()
        build_bvh(tiny_mesh)
        assert telemetry.get_registry().total("bvh.build_levels") == 0
