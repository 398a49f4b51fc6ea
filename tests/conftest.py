"""Shared fixtures: small deterministic scenes, BVHs and workloads.

Session-scoped where construction is expensive; tests must not mutate
shared objects (predictors and simulators take their own copies).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.bvh import build_bvh
from repro.geometry.triangle import TriangleMesh
from repro.rays import generate_ao_workload
from repro.scenes import procedural as P
from repro.scenes.scene import CameraSpec, Scene

# Property tests run alongside heavy simulation tests; wall-clock
# deadlines would make them flaky, so disable them suite-wide.  CI caps
# the example budget via HYPOTHESIS_MAX_EXAMPLES (unset = library default).
_profile_kwargs = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
if os.environ.get("HYPOTHESIS_MAX_EXAMPLES"):
    _profile_kwargs["max_examples"] = int(os.environ["HYPOTHESIS_MAX_EXAMPLES"])
settings.register_profile("repro", **_profile_kwargs)
settings.load_profile("repro")


def make_test_scene(seed: int = 3) -> Scene:
    """A small cluttered room: fast to build, non-trivial to traverse."""
    rng = np.random.default_rng(seed)
    parts = [P.open_room((0, 0, 0), (8, 4, 6), subdiv=2)]
    parts.append(P.floor_field(rng, (1, 0, 1), (7, 0, 5), nx=4, nz=3))
    parts.append(P.uv_sphere((4.0, 1.5, 3.0), 0.6, lat=5, lon=8))
    parts.append(P.cylinder((2.0, 0.0, 4.0), 0.3, 2.0, segments=6))
    mesh = TriangleMesh.concatenate(parts)
    return Scene(
        name="test-room",
        code="TR",
        mesh=mesh,
        camera=CameraSpec(eye=(0.8, 2.0, 0.8), look_at=(6.0, 0.8, 4.5)),
        description="small deterministic test scene",
    )


@pytest.fixture(scope="session")
def small_scene() -> Scene:
    return make_test_scene()


@pytest.fixture(scope="session")
def small_bvh(small_scene):
    return build_bvh(small_scene.mesh)


@pytest.fixture(scope="session")
def small_workload(small_scene, small_bvh):
    return generate_ao_workload(
        small_scene, small_bvh, width=16, height=16, spp=2, seed=7
    )


@pytest.fixture(scope="session")
def tiny_mesh() -> TriangleMesh:
    """Two axis-aligned triangles forming a unit quad at z=0."""
    v0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    v1 = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    v2 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    return TriangleMesh(v0, v1, v2)
