"""BVH traversal (Algorithm 1): per-ray kernels, the batch engine, stats.

The per-ray kernels are the functional ground truth: the predictor and
the RT-unit timing model are validated against them, and the limit
study (Figure 2) uses their all-hits variant to compute oracle
predictions.  Batches run on the wavefront engine
(:mod:`repro.trace.wavefront`); the scalar batch loops it replaced live
on as test oracles in :mod:`repro.reference`.
"""

from repro.telemetry.stats import TraversalStats
from repro.trace.packets import occlusion_packet, trace_occlusion_packets
from repro.trace.stackless import occlusion_any_hit_stackless
from repro.trace.traversal import (
    closest_hit,
    occlusion_all_hit_leaves,
    occlusion_any_hit,
    occlusion_any_hit_tri,
    occlusion_from_nodes,
    trace_closest_batch,
    trace_occlusion_batch,
)
from repro.trace.wavefront import (
    PerRayCounters,
    as_ray_batch,
    wavefront_closest_batch,
    wavefront_occlusion_batch,
    wavefront_occlusion_tri_batch,
    wavefront_verify_batch,
)

__all__ = [
    "PerRayCounters",
    "TraversalStats",
    "as_ray_batch",
    "closest_hit",
    "occlusion_all_hit_leaves",
    "occlusion_any_hit",
    "occlusion_any_hit_stackless",
    "occlusion_any_hit_tri",
    "occlusion_from_nodes",
    "occlusion_packet",
    "trace_closest_batch",
    "trace_occlusion_batch",
    "trace_occlusion_packets",
    "wavefront_closest_batch",
    "wavefront_occlusion_batch",
    "wavefront_occlusion_tri_batch",
    "wavefront_verify_batch",
]
