"""repro - reproduction of "Intersection Prediction for Accelerated GPU
Ray Tracing" (Liu et al., MICRO 2021).

The package implements the paper's ray intersection predictor and every
substrate it depends on, in pure Python:

* :mod:`repro.geometry` - vectors, boxes, triangles, intersection tests;
* :mod:`repro.scenes` - the seven stand-in benchmark scenes;
* :mod:`repro.bvh` - the binned SAH builder, flat Aila-Laine nodes;
* :mod:`repro.rays` - cameras, AO workload generation, Morton sorting;
* :mod:`repro.trace` - reference while-while traversal (Algorithm 1);
* :mod:`repro.core` - the predictor: hashing, table, Go Up Level,
  repacking, oracles, the Equation 1 model;
* :mod:`repro.gpu` - the warp-level RT-unit timing simulator;
* :mod:`repro.faults` - fault injection + the differential oracle that
  proves speculation never changes occlusion results;
* :mod:`repro.energy` - the Table 4 energy model;
* :mod:`repro.render` - AO renderer and the Section 6.4 GI extension;
* :mod:`repro.analysis` - experiment drivers for every table and figure;
* :mod:`repro.telemetry` - metrics registry, event tracer, and
  profiling hooks behind ``repro telemetry`` / ``REPRO_TELEMETRY=1``
  (see ``docs/OBSERVABILITY.md``).

Quickstart::

    from repro import build_bvh, get_scene, generate_ao_workload
    from repro import PredictorConfig, GPUConfig, simulate_workload

    scene = get_scene("SP")
    bvh = build_bvh(scene.mesh)
    rays = generate_ao_workload(scene, bvh, width=64, height=64, spp=4).rays
    baseline = simulate_workload(bvh, rays, GPUConfig())
    predicted = simulate_workload(
        bvh, rays, GPUConfig(predictor=PredictorConfig())
    )
    print(baseline.cycles / predicted.cycles)
"""

from repro.bvh import build_bvh, compute_stats, validate_bvh
from repro.bvh.validate import BVHValidationError
from repro.core import (
    OracleKind,
    PredictorConfig,
    RayPredictor,
    run_limit_study,
    simulate_predictor,
)
from repro.energy import EnergyModel
from repro.errors import (
    InputValidationError,
    OracleMismatchError,
    RayValidationError,
    ReproError,
    SimulationStallError,
    TraversalError,
    exit_code_for,
)
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultyPredictor,
    run_differential_oracle,
)
from repro.geometry import AABB, Ray, RayBatch, Triangle, TriangleMesh
from repro.geometry.ray import RayBatchValidation, validate_ray_batch
from repro.gpu import GPUConfig, simulate_workload
from repro.rays import generate_ao_workload, morton_sort_rays
from repro.render import render_ao, render_gi
from repro.scenes import get_scene
from repro.telemetry import (
    enabled as telemetry_enabled,
    get_registry,
    get_tracer,
    label_context,
)
from repro.trace import occlusion_any_hit, closest_hit

__version__ = "1.0.0"

__all__ = [
    "AABB",
    "BVHValidationError",
    "FaultConfig",
    "FaultInjector",
    "FaultyPredictor",
    "InputValidationError",
    "OracleMismatchError",
    "RayBatchValidation",
    "RayValidationError",
    "ReproError",
    "SimulationStallError",
    "TraversalError",
    "EnergyModel",
    "GPUConfig",
    "OracleKind",
    "PredictorConfig",
    "Ray",
    "RayBatch",
    "RayPredictor",
    "Triangle",
    "TriangleMesh",
    "build_bvh",
    "closest_hit",
    "compute_stats",
    "generate_ao_workload",
    "get_scene",
    "morton_sort_rays",
    "occlusion_any_hit",
    "render_ao",
    "render_gi",
    "run_limit_study",
    "simulate_predictor",
    "simulate_workload",
    "exit_code_for",
    "get_registry",
    "get_tracer",
    "label_context",
    "run_differential_oracle",
    "telemetry_enabled",
    "validate_bvh",
    "validate_ray_batch",
    "__version__",
]
