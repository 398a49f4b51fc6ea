"""Ambient-occlusion rendering (Section 2.3).

The AO value of a surface point is the fraction of cosine-sampled
hemisphere rays that escape without hitting geometry within the ray
length; crevices receive less ambient light and render darker.  This is
the workload all of the paper's headline results are measured on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.rays.aogen import AOWorkload, generate_ao_workload
from repro.scenes.scene import Scene
from repro.telemetry.stats import TraversalStats
from repro.trace.traversal import trace_occlusion_batch


@dataclass
class AOImage:
    """Result of an AO render.

    Attributes:
        image: per-pixel ambient visibility in [0, 1], shape ``(h, w)``;
            pixels whose primary ray missed the scene are fully lit (1).
        workload: the generated AO rays (reusable by the simulators).
        hits: per-AO-ray boolean occlusion results.
        stats: traversal counters for the AO pass.
    """

    image: np.ndarray
    workload: AOWorkload
    hits: np.ndarray
    stats: TraversalStats


def render_ao(
    scene: Scene,
    bvh: FlatBVH,
    width: int = 64,
    height: int = 64,
    spp: int = 4,
    seed: int = 0,
) -> AOImage:
    """Render an ambient-occlusion image of ``scene``.

    Traces one primary ray per pixel, then ``spp`` occlusion rays per
    primary hit (Section 5.2's recipe), and averages visibility.
    """
    workload = generate_ao_workload(
        scene, bvh, width=width, height=height, spp=spp, seed=seed
    )
    stats = TraversalStats()
    hits = trace_occlusion_batch(bvh, workload.rays, stats=stats)

    visibility = np.ones(width * height, dtype=np.float64)
    if len(workload):
        occluded = np.zeros(width * height, dtype=np.float64)
        counts = np.zeros(width * height, dtype=np.float64)
        np.add.at(occluded, workload.pixel_index, hits.astype(np.float64))
        np.add.at(counts, workload.pixel_index, 1.0)
        sampled = counts > 0
        visibility[sampled] = 1.0 - occluded[sampled] / counts[sampled]
    return AOImage(
        image=visibility.reshape(height, width),
        workload=workload,
        hits=hits,
        stats=stats,
    )
