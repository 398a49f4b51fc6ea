"""Unit tests for BVH construction, flat storage, validation and stats."""

import numpy as np
import pytest

from repro.bvh import build_bvh, compute_stats, validate_bvh
from repro.bvh.nodes import NODE_SIZE_BYTES, TRIANGLE_SIZE_BYTES
from repro.bvh.validate import BVHValidationError
from repro.geometry.triangle import TriangleMesh


def random_mesh(n=200, seed=2):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 10, (n, 3))
    return TriangleMesh(base, base + rng.normal(0, 0.3, (n, 3)),
                        base + rng.normal(0, 0.3, (n, 3)))


@pytest.fixture(scope="module")
def mesh():
    return random_mesh()


class TestBuilders:
    def test_builds_valid_tree(self, mesh):
        bvh = build_bvh(mesh)
        validate_bvh(bvh)

    def test_leaf_size_respected_or_split_degenerate(self, mesh):
        bvh = build_bvh(mesh, max_leaf_size=4)
        leaves = bvh.leaf_nodes()
        # SAH may keep slightly larger leaves when splitting is not
        # worthwhile (cost model), but never beyond 2x the limit.
        assert int(bvh.tri_count[leaves].max()) <= 8

    def test_single_triangle(self, tiny_mesh):
        one = TriangleMesh(tiny_mesh.v0[:1], tiny_mesh.v1[:1], tiny_mesh.v2[:1])
        bvh = build_bvh(one)
        validate_bvh(bvh)
        assert bvh.num_nodes == 1
        assert bvh.is_leaf(0)

    def test_empty_mesh_raises(self):
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            build_bvh(empty)

    def test_identical_centroids_terminate(self):
        # 20 coincident triangles: SAH binning degenerates and the
        # forced median split must still terminate.
        v0 = np.zeros((20, 3))
        v1 = np.tile([1.0, 0, 0], (20, 1))
        v2 = np.tile([0, 1.0, 0], (20, 1))
        bvh = build_bvh(TriangleMesh(v0, v1, v2))
        validate_bvh(bvh)

    def test_unknown_method_raises(self, mesh):
        # There is one split strategy, so build_bvh takes no method.
        with pytest.raises(TypeError):
            build_bvh(mesh, method="bogus")

    def test_invalid_leaf_size_raises(self, mesh):
        with pytest.raises(ValueError):
            build_bvh(mesh, max_leaf_size=0)


class TestFlatBVH:
    @pytest.fixture(scope="class")
    def bvh(self, mesh):
        return build_bvh(mesh)

    def test_root_is_zero_and_bounds_scene(self, bvh, mesh):
        box = bvh.root_aabb()
        scene = mesh.scene_aabb()
        assert np.allclose(box.lo, scene.lo)
        assert np.allclose(box.hi, scene.hi)

    def test_depths_root_zero(self, bvh):
        assert bvh.depths()[0] == 0

    def test_max_depth_positive(self, bvh):
        assert bvh.max_depth() > 0

    def test_leaf_interior_partition(self, bvh):
        assert len(bvh.leaf_nodes()) + len(bvh.interior_nodes()) == bvh.num_nodes

    def test_binary_tree_node_count(self, bvh):
        # A full binary tree: interior = leaves - 1.
        assert len(bvh.interior_nodes()) == len(bvh.leaf_nodes()) - 1

    def test_leaf_of_triangle_consistent(self, bvh):
        mapping = bvh.leaf_of_triangle()
        assert (mapping >= 0).all()
        for tri in [0, len(mapping) // 2, len(mapping) - 1]:
            leaf = mapping[tri]
            start = bvh.first_tri[leaf]
            assert start <= tri < start + bvh.tri_count[leaf]

    def test_ancestor_level_zero_is_identity(self, bvh):
        assert bvh.ancestor(5, 0) == 5

    def test_ancestor_level_one_is_parent(self, bvh):
        node = int(bvh.leaf_nodes()[0])
        assert bvh.ancestor(node, 1) == bvh.parent[node]

    def test_ancestor_clamps_at_root(self, bvh):
        assert bvh.ancestor(0, 10) == 0
        leaf = int(bvh.leaf_nodes()[0])
        assert bvh.ancestor(leaf, 1000) == 0

    def test_ancestors_table_matches_walk(self, bvh):
        for level in (1, 2, 3):
            table = bvh.ancestors(level)
            for node in range(0, bvh.num_nodes, max(1, bvh.num_nodes // 17)):
                assert table[node] == bvh.ancestor(node, level)

    def test_subtree_depth_leaf_is_zero(self, bvh):
        leaf = int(bvh.leaf_nodes()[0])
        assert bvh.subtree_depth_from(leaf) == 0

    def test_subtree_depth_root_is_max_depth(self, bvh):
        assert bvh.subtree_depth_from(0) == bvh.max_depth()

    def test_addresses_distinct_spaces(self, bvh):
        assert bvh.node_address(0) != bvh.triangle_address(0)
        assert bvh.node_address(1) - bvh.node_address(0) == NODE_SIZE_BYTES
        assert bvh.triangle_address(1) - bvh.triangle_address(0) == TRIANGLE_SIZE_BYTES

    def test_memory_footprint(self, bvh):
        expected = (
            NODE_SIZE_BYTES * bvh.num_nodes + TRIANGLE_SIZE_BYTES * bvh.num_triangles
        )
        assert bvh.memory_footprint_bytes() == expected

    def test_hot_view_consistency(self, bvh):
        hot = bvh.hot()
        assert hot.left == bvh.left.tolist()
        assert len(hot.tri_v0) == bvh.num_triangles
        # Cached: second call returns the same object.
        assert bvh.hot() is hot


class TestValidate:
    def test_detects_broken_parent(self, mesh):
        bvh = build_bvh(mesh)
        bvh.parent = bvh.parent.copy()
        child = int(bvh.left[0])
        bvh.parent[child] = child  # corrupt
        with pytest.raises(BVHValidationError):
            validate_bvh(bvh)

    def test_detects_non_bounding_parent(self, mesh):
        bvh = build_bvh(mesh)
        bvh.lo = bvh.lo.copy()
        bvh.lo[0] = bvh.lo[0] + 5.0  # root no longer bounds children
        with pytest.raises(BVHValidationError):
            validate_bvh(bvh)

    def test_detects_bad_permutation(self, mesh):
        bvh = build_bvh(mesh)
        bvh.tri_indices = bvh.tri_indices.copy()
        bvh.tri_indices[0] = bvh.tri_indices[1]
        with pytest.raises(BVHValidationError):
            validate_bvh(bvh)


class TestStats:
    def test_counts(self, mesh):
        bvh = build_bvh(mesh)
        stats = compute_stats(bvh)
        assert stats.num_nodes == bvh.num_nodes
        assert stats.num_interior + stats.num_leaves == stats.num_nodes
        assert stats.num_triangles == len(mesh)
        assert stats.max_depth == bvh.max_depth()
        assert stats.total_bytes == bvh.memory_footprint_bytes()

    def test_avg_tris_per_leaf(self, mesh):
        bvh = build_bvh(mesh, max_leaf_size=4)
        stats = compute_stats(bvh)
        assert 1.0 <= stats.avg_tris_per_leaf <= 8.0
        assert stats.max_tris_per_leaf >= stats.avg_tris_per_leaf

    def test_sah_cost_positive(self, mesh):
        stats = compute_stats(build_bvh(mesh))
        assert stats.sah_cost > 0.0
