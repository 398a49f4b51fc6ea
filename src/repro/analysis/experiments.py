"""Shared experiment machinery for the benchmark harness.

Every ``benchmarks/bench_*.py`` file drives its table or figure through
an :class:`ExperimentContext`: a memoizing runner that builds each scene,
BVH and AO workload once and caches timing-simulation results per
configuration, so e.g. the baseline run for a scene is shared between
Figure 12, Figure 13 and Table 5.

Scaled defaults
---------------

The paper simulates 4.2 M rays per scene against multi-megabyte BVHs; a
pure-Python reproduction scales everything down while preserving the
ratios that drive the results:

* workload: 64x64 viewport at 8 spp (~30 K AO rays) instead of
  1024x1024 x 4;
* predictor: 1024 entries / 4-way (the paper's table), but 4 origin
  hash bits, Go Up Level 2 and 2 nodes per entry - the optimum shifts
  at the scaled ray density exactly as Equation 1 predicts (fewer rays
  per hash bucket favour a slightly looser hash and cheaper
  verification);
* memory: 4 KB L1 / 32 KB shared L2 against ~50-300 KB working sets,
  preserving the paper's working-set >> cache regime (Figure 1).

``EXPERIMENTS.md`` documents each scaling decision next to the paper's
original value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bvh.builder import build_bvh
from repro.bvh.nodes import FlatBVH
from repro.core.predictor import PredictorConfig
from repro.geometry.ray import RayBatch
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimOutput, simulate_workload
from repro.rays.aogen import AOWorkload, generate_ao_workload
from repro.rays.sorting import morton_sort_rays
from repro.scenes.registry import SCENE_CODES, get_scene
from repro.scenes.scene import Scene


@dataclass(frozen=True)
class WorkloadParams:
    """Viewport and sampling parameters for AO workload generation."""

    width: int = 64
    height: int = 64
    spp: int = 8
    seed: int = 1
    detail: float = 1.0


#: Default workload for headline experiments (Figures 12, 13, Table 5).
FULL_WORKLOAD = WorkloadParams()
#: Smaller workload for dense parameter sweeps (Tables 6-8, Figure 17).
SWEEP_WORKLOAD = WorkloadParams(width=48, height=48, spp=4)
#: Scene subset used by dense sweeps to keep run time tractable; the
#: headline experiments use all seven scenes.
SWEEP_SCENES: Tuple[str, ...] = ("SP", "LR", "CK")


def scaled_predictor_config(**overrides) -> PredictorConfig:
    """The validated scaled predictor configuration (see module docs)."""
    base = PredictorConfig(
        origin_bits=4,
        direction_bits=3,
        go_up_level=2,
        nodes_per_entry=2,
        extra_warps=4,
    )
    return base.with_overrides(**overrides) if overrides else base


def scaled_gpu_config(
    predictor: Optional[PredictorConfig] = None, **overrides
) -> GPUConfig:
    """The validated scaled GPU configuration (Table 2, scaled)."""
    config = GPUConfig(predictor=predictor)
    return config.with_overrides(**overrides) if overrides else config


def scaled_workload_params() -> WorkloadParams:
    """The default (headline) workload parameters."""
    return FULL_WORKLOAD


class ExperimentContext:
    """Memoizing runner shared by the benchmark harness."""

    def __init__(self) -> None:
        self._scenes: Dict[Tuple[str, float], Scene] = {}
        self._bvhs: Dict[Tuple[str, float], FlatBVH] = {}
        self._workloads: Dict[Tuple[str, WorkloadParams], AOWorkload] = {}
        self._sims: Dict[Tuple, SimOutput] = {}

    # ------------------------------------------------------------------
    def scene(self, code: str, detail: float = 1.0) -> Scene:
        """The (cached) scene for ``code``."""
        key = (code, detail)
        if key not in self._scenes:
            self._scenes[key] = get_scene(code, detail=detail)
        return self._scenes[key]

    def bvh(self, code: str, detail: float = 1.0) -> FlatBVH:
        """The (cached) SAH BVH for ``code``."""
        key = (code, detail)
        if key not in self._bvhs:
            self._bvhs[key] = build_bvh(
                self.scene(code, detail).mesh, method="sah"
            )
        return self._bvhs[key]

    def workload(
        self, code: str, params: WorkloadParams = FULL_WORKLOAD
    ) -> AOWorkload:
        """The (cached) AO workload for ``code`` under ``params``."""
        key = (code, params)
        if key not in self._workloads:
            self._workloads[key] = generate_ao_workload(
                self.scene(code, params.detail),
                self.bvh(code, params.detail),
                width=params.width,
                height=params.height,
                spp=params.spp,
                seed=params.seed,
            )
        return self._workloads[key]

    def rays(
        self,
        code: str,
        params: WorkloadParams = FULL_WORKLOAD,
        sort: bool = False,
    ) -> RayBatch:
        """AO rays for ``code``, optionally Morton-sorted (Section 5.2)."""
        rays = self.workload(code, params).rays
        if sort:
            return rays.subset(morton_sort_rays(rays))
        return rays

    # ------------------------------------------------------------------
    def simulate(
        self,
        code: str,
        gpu: GPUConfig,
        params: WorkloadParams = FULL_WORKLOAD,
        sort: bool = False,
    ) -> SimOutput:
        """Run (or recall) a timing simulation."""
        key = (code, params, sort, gpu)
        if key not in self._sims:
            self._sims[key] = simulate_workload(
                self.bvh(code, params.detail), self.rays(code, params, sort), gpu
            )
        return self._sims[key]

    def baseline(
        self,
        code: str,
        params: WorkloadParams = FULL_WORKLOAD,
        sort: bool = False,
        **gpu_overrides,
    ) -> SimOutput:
        """Baseline RT-unit run (no predictor)."""
        return self.simulate(code, scaled_gpu_config(**gpu_overrides), params, sort)

    def predicted(
        self,
        code: str,
        predictor: Optional[PredictorConfig] = None,
        params: WorkloadParams = FULL_WORKLOAD,
        sort: bool = False,
        **gpu_overrides,
    ) -> SimOutput:
        """Predictor-enabled run (scaled default predictor when omitted)."""
        pc = predictor if predictor is not None else scaled_predictor_config()
        return self.simulate(code, scaled_gpu_config(pc, **gpu_overrides), params, sort)

    def speedup(
        self,
        code: str,
        predictor: Optional[PredictorConfig] = None,
        params: WorkloadParams = FULL_WORKLOAD,
        sort: bool = False,
        **gpu_overrides,
    ) -> float:
        """Baseline / predictor cycle ratio (>1: the predictor wins)."""
        base = self.baseline(code, params, sort, **gpu_overrides)
        pred = self.predicted(code, predictor, params, sort, **gpu_overrides)
        return base.cycles / pred.cycles


@dataclass(frozen=True)
class ConfigMetrics:
    """Per-(configuration, scene) sweep metrics used by the ablation tables."""

    speedup: float
    predicted_rate: float
    verified_rate: float


def sweep_config_metrics(
    configs: Sequence[Optional[PredictorConfig]],
    scenes: Sequence[str] = SWEEP_SCENES,
    params: WorkloadParams = SWEEP_WORKLOAD,
    sort: bool = False,
    ctx: Optional["ExperimentContext"] = None,
) -> Dict[Tuple[Optional[PredictorConfig], str], ConfigMetrics]:
    """Metrics for every (config, scene) pair.

    Simulations run in (and memoize into) ``ctx``, or the process-wide
    default context when it is omitted, so a scene's baseline is shared
    by every config and by later calls.
    """
    context = ctx if ctx is not None else get_default_context()
    metrics = {}
    for config in configs:
        for code in scenes:
            base = context.baseline(code, params, sort)
            pred = context.predicted(code, config, params, sort)
            metrics[config, code] = ConfigMetrics(
                speedup=base.cycles / pred.cycles,
                predicted_rate=pred.predicted_rate,
                verified_rate=pred.verified_rate,
            )
    return metrics


_DEFAULT_CONTEXT: Optional[ExperimentContext] = None


def get_default_context() -> ExperimentContext:
    """Process-wide shared context (the benchmark suite uses one)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ExperimentContext()
    return _DEFAULT_CONTEXT


def all_scene_codes() -> List[str]:
    """The seven benchmark scene codes, paper order."""
    return list(SCENE_CODES)
