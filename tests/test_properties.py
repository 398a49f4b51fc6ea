"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bvh import build_bvh, validate_bvh
from repro.core.hashing import GridSphericalHash, TwoPointHash, fold_hash, quantize
from repro.core.model import Equation1Inputs, estimate_avg_nodes, estimate_nodes_skipped
from repro.core.policies import LFUPolicy, LRUKPolicy, LRUPolicy
from repro.core.repacking import PartialWarpCollector
from repro.core.table import PredictorTable
from repro.geometry.aabb import AABB
from repro.geometry.intersect import ray_aabb_intersect, ray_triangle_intersect
from repro.geometry.morton import morton_decode_3d, morton_encode_3d
from repro.geometry.ray import Ray
from repro.geometry.triangle import TriangleMesh
from repro.geometry.vec import vec_cross, vec_dot, vec_length, vec_normalize
from repro.trace import occlusion_any_hit

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)
unit_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestVecProperties:
    @given(vec3, vec3)
    def test_cross_orthogonality(self, a, b):
        c = vec_cross(a, b)
        scale = max(1.0, vec_length(a) * vec_length(b))
        assert abs(vec_dot(a, c)) <= 1e-6 * scale * scale
        assert abs(vec_dot(b, c)) <= 1e-6 * scale * scale

    @given(vec3)
    def test_normalize_is_unit(self, v):
        if vec_length(v) < 1e-6:
            return
        assert math.isclose(vec_length(vec_normalize(v)), 1.0, rel_tol=1e-9)


class TestAABBProperties:
    @given(st.lists(vec3, min_size=1, max_size=12))
    def test_from_points_contains_all(self, points):
        box = AABB.from_points(points)
        for p in points:
            assert box.contains_point(p, eps=1e-9)

    @given(st.lists(vec3, min_size=1, max_size=8), st.lists(vec3, min_size=1, max_size=8))
    def test_union_contains_both(self, pa, pb):
        from repro.geometry.aabb import aabb_union

        a = AABB.from_points(pa)
        b = AABB.from_points(pb)
        u = aabb_union(a, b)
        assert u.contains_aabb(a, eps=1e-9)
        assert u.contains_aabb(b, eps=1e-9)

    @given(st.lists(vec3, min_size=2, max_size=10))
    def test_surface_area_monotone_under_growth(self, points):
        box = AABB.from_points(points[:1])
        prev = box.surface_area()
        for p in points[1:]:
            box.grow_point(p)
            area = box.surface_area()
            assert area >= prev - 1e-9
            prev = area


class TestMortonProperties:
    coord = st.integers(min_value=0, max_value=(1 << 21) - 1)

    @given(coord, coord, coord)
    def test_roundtrip(self, x, y, z):
        assert morton_decode_3d(morton_encode_3d(x, y, z)) == (x, y, z)

    @given(coord, coord, coord)
    def test_interleave_bound(self, x, y, z):
        assert morton_encode_3d(x, y, z) < (1 << 63)


class TestIntersectionProperties:
    @given(vec3, vec3, st.floats(min_value=0.1, max_value=50.0))
    def test_point_on_ray_inside_box_hits(self, origin, direction, t):
        if vec_length(direction) < 1e-6:
            return
        d = vec_normalize(direction)
        point = (origin[0] + t * d[0], origin[1] + t * d[1], origin[2] + t * d[2])
        lo = tuple(c - 1.0 for c in point)
        hi = tuple(c + 1.0 for c in point)
        inv = tuple(1.0 / x if x != 0 else math.inf for x in d)
        hit, t_entry = ray_aabb_intersect(
            origin[0], origin[1], origin[2], inv[0], inv[1], inv[2],
            0.0, math.inf, lo[0], lo[1], lo[2], hi[0], hi[1], hi[2],
        )
        assert hit
        assert t_entry <= t + 1e-6

    @given(unit_coord, unit_coord)
    def test_triangle_barycentric_interior_hits(self, u, v):
        # Map (u, v) into the triangle's interior.
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        u = 0.001 + 0.997 * u * 0.999
        v = 0.001 + (0.998 - u) * v
        point = (u, v, 0.0)
        t = ray_triangle_intersect(
            point[0], point[1], -1.0, 0.0, 0.0, 1.0, 0.0, 10.0,
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
        )
        assert t is not None
        assert math.isclose(t, 1.0, rel_tol=1e-9)


class TestHashProperties:
    BOX = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    @given(st.integers(min_value=0, max_value=(1 << 30) - 1),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=16))
    def test_fold_within_range(self, value, in_bits, out_bits):
        folded = fold_hash(value & ((1 << in_bits) - 1), in_bits, out_bits)
        assert 0 <= folded < (1 << out_bits)

    @given(st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.integers(min_value=1, max_value=16))
    def test_quantize_within_range(self, x, bits):
        q = quantize(x, 0.0, 1.0, bits)
        assert 0 <= q < (1 << bits)

    @given(st.tuples(unit_coord, unit_coord, unit_coord), vec3)
    def test_grid_spherical_in_range(self, origin, direction):
        if vec_length(direction) < 1e-6:
            return
        hasher = GridSphericalHash(self.BOX, origin_bits=4, direction_bits=3)
        h = hasher.hash_ray(origin, vec_normalize(direction))
        assert 0 <= h < (1 << hasher.bits)

    @given(st.tuples(unit_coord, unit_coord, unit_coord), vec3)
    def test_two_point_in_range(self, origin, direction):
        if vec_length(direction) < 1e-6:
            return
        hasher = TwoPointHash(self.BOX, origin_bits=4, length_ratio=0.2)
        h = hasher.hash_ray(origin, vec_normalize(direction))
        assert 0 <= h < (1 << hasher.bits)


class TestPolicyProperties:
    ops = st.lists(
        st.tuples(st.sampled_from(["insert", "touch"]), st.integers(0, 20)),
        max_size=60,
    )

    @given(ops, st.integers(min_value=1, max_value=4))
    def test_lru_capacity_never_exceeded(self, operations, capacity):
        policy = LRUPolicy(capacity)
        for op, node in operations:
            if op == "insert":
                policy.insert(node)
            else:
                policy.touch(node)
            assert len(policy) <= capacity
            assert len(set(policy.nodes)) == len(policy.nodes)

    @given(ops, st.integers(min_value=1, max_value=4))
    def test_lfu_capacity_never_exceeded(self, operations, capacity):
        policy = LFUPolicy(capacity)
        for op, node in operations:
            if op == "insert":
                policy.insert(node)
            else:
                policy.touch(node)
            assert len(policy) <= capacity

    @given(ops, st.integers(min_value=1, max_value=4))
    def test_lruk_capacity_never_exceeded(self, operations, capacity):
        policy = LRUKPolicy(capacity, k=2)
        for op, node in operations:
            if op == "insert":
                policy.insert(node)
            else:
                policy.touch(node)
            assert len(policy) <= capacity


class TestTableProperties:
    @given(st.lists(st.tuples(st.integers(0, (1 << 12) - 1), st.integers(0, 500)),
                    max_size=80))
    def test_lookup_returns_what_was_stored(self, updates):
        table = PredictorTable(num_entries=16, ways=4, nodes_per_entry=2, hash_bits=12)
        inserted_nodes = set()
        for h, node in updates:
            table.update(h, node)
            inserted_nodes.add(node)
        for h, _ in updates:
            nodes = table.lookup(h)
            if nodes is not None:
                assert set(nodes) <= inserted_nodes

    @given(st.lists(st.integers(0, (1 << 12) - 1), max_size=64))
    def test_occupancy_bounded(self, hashes):
        table = PredictorTable(num_entries=8, ways=2, nodes_per_entry=1, hash_bits=12)
        for h in hashes:
            table.update(h, 1)
            assert 0.0 <= table.occupancy() <= 1.0


class TestCollectorProperties:
    @given(st.lists(st.lists(st.integers(0, 10_000), max_size=40), max_size=20))
    def test_no_ray_lost_or_duplicated(self, pushes):
        collector = PartialWarpCollector(warp_size=8, capacity=16, timeout_cycles=5)
        sent = []
        received = []
        for i, group in enumerate(pushes):
            tagged = [i * 100_000 + r for r in group]  # make ids unique
            sent.extend(tagged)
            for warp in collector.push(tagged):
                received.extend(warp)
        while len(collector):
            received.extend(collector.flush() or [])
        assert sorted(received) == sorted(sent)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    def test_emitted_warps_never_oversized(self, rays):
        collector = PartialWarpCollector(warp_size=8, capacity=16, timeout_cycles=5)
        for warp in collector.push(list(range(len(rays)))):
            assert len(warp) <= 8


class TestEquation1Properties:
    rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @given(rates, rates,
           st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_identity_holds(self, p, v, n, k, m):
        if v > p:
            v, p = p, v
        inputs = Equation1Inputs(p=p, v=v, n=n, k=k, m=m)
        assert math.isclose(
            estimate_avg_nodes(inputs) + estimate_nodes_skipped(inputs), n,
            rel_tol=1e-12, abs_tol=1e-9,
        )

    @given(rates, st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_higher_verified_never_worse(self, p, n, k, m):
        lo = Equation1Inputs(p=p, v=0.0, n=n, k=k, m=m)
        hi = Equation1Inputs(p=p, v=p, n=n, k=k, m=m)
        assert estimate_nodes_skipped(hi) >= estimate_nodes_skipped(lo)


class TestBVHTraversalProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_soup_traversal_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        base = rng.uniform(-5, 5, (n, 3))
        mesh = TriangleMesh(
            base, base + rng.normal(0, 1, (n, 3)), base + rng.normal(0, 1, (n, 3))
        )
        bvh = build_bvh(mesh)
        validate_bvh(bvh)
        for _ in range(5):
            origin = tuple(rng.uniform(-8, 8, 3))
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            ray = Ray(origin, tuple(direction), 0.0, float(rng.uniform(1, 30)))
            expected = False
            for i in range(n):
                t = ray_triangle_intersect(
                    origin[0], origin[1], origin[2],
                    direction[0], direction[1], direction[2],
                    0.0, ray.t_max,
                    tuple(mesh.v0[i]), tuple(mesh.v1[i]), tuple(mesh.v2[i]),
                )
                if t is not None:
                    expected = True
                    break
            assert occlusion_any_hit(bvh, ray) == expected
