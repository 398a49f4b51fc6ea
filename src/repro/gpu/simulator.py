"""Top-level workload simulation across SMs.

The paper's GPU (Table 2) has two SMs, each with its own RT unit, L1 and
predictor, sharing the L2 and DRAM.  Rays are distributed warp-wise
round-robin across SMs (Section 6.2.5: per-SM predictor tables mean more
SMs see fewer training opportunities).  SMs execute concurrently in
hardware; we simulate them one after another against a *shared* L2 and
DRAM object - an approximation that preserves inter-SM cache sharing and
total traffic while ignoring fine-grained inter-SM port contention -
and take the slowest SM's cycle count as the execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.core.predictor import RayPredictor
from repro.geometry.ray import RayBatch
from repro.gpu.cache import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.dram import DRAM
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.rt_unit import RTUnitResult
from repro.gpu.vec_rt_unit import VectorRTUnit
from repro.telemetry.publish import (
    publish_cache_stats,
    publish_dram_stats,
    publish_reuse_distances,
)


@dataclass
class SimOutput:
    """Result of simulating one workload on the modeled GPU."""

    cycles: int
    per_sm: List[RTUnitResult]

    # ------------------------------------------------------------------
    def _sum(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.per_sm)

    @property
    def rays(self) -> int:
        """Total rays traced across all SMs."""
        return self._sum("rays")

    @property
    def node_fetches(self) -> int:
        """BVH node records fetched, all SMs."""
        return self._sum("node_fetches")

    @property
    def tri_fetches(self) -> int:
        """Triangle records fetched, all SMs."""
        return self._sum("tri_fetches")

    @property
    def total_accesses(self) -> int:
        """Total memory accesses (nodes + triangles)."""
        return self.node_fetches + self.tri_fetches

    @property
    def misprediction_accesses(self) -> int:
        """Accesses wasted on failed verifications (Figure 13's overhead bar)."""
        return self._sum("misprediction_node_fetches") + self._sum(
            "misprediction_tri_fetches"
        )

    @property
    def predicted_rate(self) -> float:
        """Fraction of rays with a predictor-table hit."""
        return self._sum("predicted") / self.rays if self.rays else 0.0

    @property
    def verified_rate(self) -> float:
        """Fraction of rays whose prediction verified."""
        return self._sum("verified") / self.rays if self.rays else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of rays intersecting the scene."""
        return self._sum("hits") / self.rays if self.rays else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """Aggregate L1 hit rate across SMs."""
        accesses = self._sum("l1_accesses")
        return self._sum("l1_hits") / accesses if accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """Aggregate (shared) L2 hit rate."""
        accesses = self._sum("l2_accesses")
        return self._sum("l2_hits") / accesses if accesses else 0.0

    @property
    def dram_accesses(self) -> int:
        """Requests served by DRAM."""
        return self._sum("dram_accesses")

    @property
    def dram_row_hits(self) -> int:
        """DRAM requests that hit an open row buffer, all SMs."""
        return self._sum("dram_row_hits")

    @property
    def dram_row_hit_rate(self) -> float:
        """Aggregate DRAM row-buffer hit rate."""
        accesses = self.dram_accesses
        return self.dram_row_hits / accesses if accesses else 0.0

    @property
    def dram_bank_parallelism(self) -> float:
        """Mean DRAM bank-level parallelism across SM runs."""
        vals = [r.dram_bank_parallelism for r in self.per_sm]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def guard_restarts(self) -> int:
        """Threads restarted by the speculative-stack guard, all SMs."""
        return self._sum("guard_restarts")

    @property
    def predictor_lookups(self) -> int:
        """Predictor-table lookups issued."""
        return self._sum("predictor_lookups")

    @property
    def predictor_updates(self) -> int:
        """Predictor-table updates committed."""
        return self._sum("predictor_updates")

    @property
    def simt_efficiency(self) -> float:
        """Active threads per warp step / warp width."""
        steps = self._sum("warp_steps")
        if not steps:
            return 0.0
        return self._sum("active_thread_steps") / (steps * 32)

    def rays_per_cycle(self) -> float:
        """Aggregate throughput: all SMs run concurrently."""
        return self.rays / self.cycles if self.cycles else 0.0


def split_rays_across_sms(
    rays: RayBatch, num_sms: int, warp_size: int = 32
) -> List[np.ndarray]:
    """Round-robin warps of rays across SMs, preserving in-SM order."""
    if num_sms < 1:
        raise ValueError("num_sms must be >= 1")
    n = len(rays)
    indices = np.arange(n)
    warp_ids = indices // warp_size
    return [indices[warp_ids % num_sms == sm] for sm in range(num_sms)]


def make_predictors(bvh: FlatBVH, config: GPUConfig) -> List[RayPredictor]:
    """One predictor per SM (Table 2: a predictor table per SM).

    Returned predictors can be passed to :func:`simulate_workload` across
    several frames to study inter-frame table persistence - the future
    direction the paper's conclusion sketches for dynamic scenes.
    """
    if config.predictor is None:
        return []
    return [RayPredictor(bvh, config.predictor) for _ in range(config.num_sms)]


def simulate_workload(
    bvh: FlatBVH,
    rays: RayBatch,
    config: Optional[GPUConfig] = None,
    predictors: Optional[List[RayPredictor]] = None,
) -> SimOutput:
    """Simulate tracing ``rays`` on the configured GPU.

    Args:
        bvh: the scene's acceleration structure.
        rays: occlusion rays in issue order.
        config: GPU configuration; ``config.predictor`` enables the
            ray intersection predictor (``None`` = baseline RT unit).
        predictors: optional pre-warmed per-SM predictors (from
            :func:`make_predictors`) to reuse between frames; by default
            each call starts with cold tables.

    Returns:
        :class:`SimOutput` with total cycles (max over SMs) and per-SM
        detailed results.
    """
    config = config or GPUConfig()
    if predictors is not None and len(predictors) != config.num_sms:
        raise ValueError(
            f"expected {config.num_sms} predictors, got {len(predictors)}"
        )

    assignments = split_rays_across_sms(rays, config.num_sms, config.rt_unit.warp_size)
    with telemetry.span(
        "gpu.simulate", rays=len(rays), sms=config.num_sms,
        predictor=config.predictor is not None,
        engine="vector",
    ) as sp:
        per_sm = _simulate_serial(bvh, rays, config, predictors, assignments)
        cycles = max((r.cycles for r in per_sm), default=0)
        sp.add(cycles=cycles)
    return SimOutput(cycles=cycles, per_sm=per_sm)


def _simulate_serial(
    bvh: FlatBVH,
    rays: RayBatch,
    config: GPUConfig,
    predictors: Optional[List[RayPredictor]],
    assignments: List[np.ndarray],
    unit_class=VectorRTUnit,
) -> List[RTUnitResult]:
    """SMs one after another against one shared L2 and DRAM.

    ``unit_class`` is :mod:`repro.reference`'s hook for its stepper.
    """
    l2 = Cache(config.memory.l2)
    dram = DRAM(config.memory.dram)

    per_sm: List[RTUnitResult] = []
    for sm, sm_rays in enumerate(assignments):
        memory = MemoryHierarchy(config.memory, l2=l2, dram=dram)
        dram.reset_timing()
        predictor = None
        if predictors is not None:
            predictor = predictors[sm]
        elif config.predictor is not None:
            predictor = RayPredictor(bvh, config.predictor)
        unit = unit_class(bvh, config, memory, predictor=predictor)
        with telemetry.label_context(sm=sm):
            per_sm.append(unit.run(rays.subset(sm_rays)))
        publish_cache_stats(memory.l1.stats, level="l1", sm=sm)
        publish_reuse_distances(memory, sm=sm)

    publish_cache_stats(l2.stats, level="l2")
    publish_dram_stats(dram.stats, config.memory.dram.num_banks)
    return per_sm
