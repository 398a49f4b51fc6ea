"""Unit tests for ray-box and ray-triangle intersection kernels."""

import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.intersect import (
    ray_aabb_intersect,
    ray_aabb_intersect_batch,
    ray_triangle_intersect,
    ray_triangle_intersect_batch,
)

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))


def slab(origin, direction, t_min=0.0, t_max=math.inf, lo=(0, 0, 0), hi=(1, 1, 1)):
    inv = tuple(1.0 / d if d != 0.0 else math.copysign(math.inf, d) for d in direction)
    return ray_aabb_intersect(
        origin[0], origin[1], origin[2], inv[0], inv[1], inv[2],
        t_min, t_max, lo[0], lo[1], lo[2], hi[0], hi[1], hi[2],
    )


class TestRayAABB:
    def test_hit_through_center(self):
        hit, t = slab((-1, 0.5, 0.5), (1, 0, 0))
        assert hit
        assert math.isclose(t, 1.0)

    def test_miss_parallel_offset(self):
        hit, _ = slab((-1, 2.0, 0.5), (1, 0, 0))
        assert not hit

    def test_hit_from_inside(self):
        hit, t = slab((0.5, 0.5, 0.5), (1, 0, 0))
        assert hit
        assert t == 0.0  # clamped to t_min

    def test_miss_behind_origin(self):
        hit, _ = slab((2, 0.5, 0.5), (1, 0, 0))
        assert not hit

    def test_t_max_cuts_hit(self):
        hit, _ = slab((-5, 0.5, 0.5), (1, 0, 0), t_max=4.0)
        assert not hit
        hit, _ = slab((-5, 0.5, 0.5), (1, 0, 0), t_max=6.0)
        assert hit

    def test_t_min_cuts_hit(self):
        hit, _ = slab((-1, 0.5, 0.5), (1, 0, 0), t_min=3.0)
        assert not hit

    def test_diagonal_hit(self):
        hit, t = slab((-1, -1, -1), (1, 1, 1))
        assert hit
        assert math.isclose(t, 1.0)

    def test_axis_parallel_ray_inside_slab(self):
        # Direction has a zero component; ray inside that slab's range.
        hit, _ = slab((0.5, -1.0, 0.5), (0, 1, 0))
        assert hit

    def test_axis_parallel_ray_outside_slab(self):
        hit, _ = slab((2.0, -1.0, 0.5), (0, 1, 0))
        assert not hit

    def test_grazing_corner(self):
        hit, _ = slab((-1, -1, 0.5), (1, 1, 0))
        assert hit  # exactly through the (0,0) edge

    def test_negative_direction(self):
        hit, t = slab((2, 0.5, 0.5), (-1, 0, 0))
        assert hit
        assert math.isclose(t, 1.0)


class TestRayAABBBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(5)
        n = 200
        origins = rng.uniform(-2, 2, (n, 3))
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        with np.errstate(divide="ignore"):
            inv = 1.0 / directions
        t_min = np.zeros(n)
        t_max = np.full(n, np.inf)
        lo = np.zeros(3)
        hi = np.ones(3)
        batch = ray_aabb_intersect_batch(origins, inv, t_min, t_max, lo, hi)
        for i in range(n):
            scalar, _ = slab(tuple(origins[i]), tuple(directions[i]))
            assert batch[i] == scalar, f"mismatch at ray {i}"

    def test_per_ray_boxes(self):
        origins = np.array([[-1.0, 0.5, 0.5], [-1.0, 0.5, 0.5]])
        directions = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with np.errstate(divide="ignore"):
            inv = 1.0 / directions
        lo = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        hi = np.array([[1.0, 1.0, 1.0], [1.0, 6.0, 1.0]])
        out = ray_aabb_intersect_batch(
            origins, inv, np.zeros(2), np.full(2, np.inf), lo, hi
        )
        assert out.tolist() == [True, False]

    @staticmethod
    def axis_reduction_oracle(origins, inv_directions, t_min, t_max, lo, hi):
        """The slab kernel before its columns were folded one by one."""
        with np.errstate(invalid="ignore"):
            t1 = (lo - origins) * inv_directions
            t2 = (hi - origins) * inv_directions
        t_near = np.maximum(np.minimum(t1, t2).max(axis=-1), t_min)
        t_far = np.minimum(np.maximum(t1, t2).min(axis=-1), t_max)
        return t_near <= t_far

    # Origins are drawn from the box planes' values, so an origin on a
    # slab plane with a +-0.0 direction component gives 0 * inf = NaN.
    PLANES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    COORD = PLANES | st.floats(min_value=-2.0, max_value=2.0)
    DIRECTION = st.sampled_from([-1.0, -0.0, 0.0, 1.0]) | st.floats(
        min_value=-1.0, max_value=1.0
    )
    RAY = st.tuples(
        st.tuples(COORD, COORD, COORD),
        st.tuples(DIRECTION, DIRECTION, DIRECTION),
        st.sampled_from([0.0, -0.0, 0.5]),
        st.sampled_from([math.inf, 1.0, 0.0]),
        st.tuples(PLANES, PLANES, PLANES),
        st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 3),
    )

    @settings(max_examples=MAX_EXAMPLES)
    @given(rays=st.lists(RAY, min_size=1, max_size=12), per_ray=st.booleans())
    def test_matches_axis_reduction(self, rays, per_ray):
        origins, directions, t_min, t_max, lo, extent = (
            np.array(column, dtype=np.float64) for column in zip(*rays)
        )
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / directions
        hi = lo + extent
        if not per_ray:  # one box for every ray
            lo, hi = lo[0], hi[0]
        args = (origins, inv, t_min, t_max, lo, hi)
        assert np.array_equal(
            ray_aabb_intersect_batch(*args), self.axis_reduction_oracle(*args)
        )


V0 = (0.0, 0.0, 0.0)
V1 = (1.0, 0.0, 0.0)
V2 = (0.0, 1.0, 0.0)


class TestRayTriangle:
    def test_hit_centroid(self):
        t = ray_triangle_intersect(0.25, 0.25, -1, 0, 0, 1, 0.0, 10.0, V0, V1, V2)
        assert t is not None
        assert math.isclose(t, 1.0)

    def test_miss_outside(self):
        t = ray_triangle_intersect(0.9, 0.9, -1, 0, 0, 1, 0.0, 10.0, V0, V1, V2)
        assert t is None

    def test_no_backface_culling(self):
        # Hit from the other side: occlusion rays test both orientations.
        t = ray_triangle_intersect(0.25, 0.25, 1, 0, 0, -1, 0.0, 10.0, V0, V1, V2)
        assert t is not None
        assert math.isclose(t, 1.0)

    def test_parallel_ray_misses(self):
        t = ray_triangle_intersect(0.25, 0.25, -1, 1, 0, 0, 0.0, 10.0, V0, V1, V2)
        assert t is None

    def test_t_interval_respected(self):
        assert ray_triangle_intersect(0.25, 0.25, -1, 0, 0, 1, 0.0, 0.5, V0, V1, V2) is None
        assert ray_triangle_intersect(0.25, 0.25, -1, 0, 0, 1, 1.5, 10.0, V0, V1, V2) is None

    def test_edge_hit_counts(self):
        # A point on the v0-v1 edge (u in range, v == 0).
        t = ray_triangle_intersect(0.5, 0.0, -1, 0, 0, 1, 0.0, 10.0, V0, V1, V2)
        assert t is not None

    def test_vertex_hit_counts(self):
        t = ray_triangle_intersect(0.0, 0.0, -1, 0, 0, 1, 0.0, 10.0, V0, V1, V2)
        assert t is not None

    def test_degenerate_triangle_misses(self):
        t = ray_triangle_intersect(
            0.25, 0.25, -1, 0, 0, 1, 0.0, 10.0, V0, V0, V2
        )
        assert t is None

    def test_behind_origin_misses(self):
        t = ray_triangle_intersect(0.25, 0.25, 1, 0, 0, 1, 0.0, 10.0, V0, V1, V2)
        assert t is None


class TestRayTriangleBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(11)
        n = 200
        origins = rng.uniform(-1, 2, (n, 3))
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        v0 = np.broadcast_to(np.array(V0), (n, 3))
        v1 = np.broadcast_to(np.array(V1), (n, 3))
        v2 = np.broadcast_to(np.array(V2), (n, 3))
        t_min = np.zeros(n)
        t_max = np.full(n, np.inf)
        out = ray_triangle_intersect_batch(origins, directions, t_min, t_max, v0, v1, v2)
        for i in range(n):
            scalar = ray_triangle_intersect(
                origins[i][0], origins[i][1], origins[i][2],
                directions[i][0], directions[i][1], directions[i][2],
                0.0, math.inf, V0, V1, V2,
            )
            if scalar is None:
                assert out[i] == np.inf
            else:
                assert math.isclose(out[i], scalar, rel_tol=1e-9)

    def test_miss_is_inf(self):
        out = ray_triangle_intersect_batch(
            np.array([[5.0, 5.0, -1.0]]),
            np.array([[0.0, 0.0, 1.0]]),
            np.zeros(1),
            np.full(1, np.inf),
            np.array([V0]),
            np.array([V1]),
            np.array([V2]),
        )
        assert out[0] == np.inf
