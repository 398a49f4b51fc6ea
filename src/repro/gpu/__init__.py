"""Warp-level timing model of the baseline RT unit (Section 5.1).

The paper extends GPGPU-Sim with an RT unit resembling the NVIDIA RT
Core: a variable-latency function unit that receives ``__traceray()``
queries, holds up to 8 warps (256 rays) in a ray buffer, walks the BVH
with per-ray traversal stacks, coalesces identical node requests within
a warp MSHR-style, schedules memory greedy-then-oldest, and pipes node
and triangle data through 32-wide pipelined intersection units.

This package reproduces that machinery as a discrete-event model at warp
granularity: each warp *step* pops one stack entry per active thread,
coalesces the resulting cache-line requests, charges L1/L2/DRAM latency
(with banked DRAM busy-time), then charges the pipelined intersection
latency.  A warp finishes when all of its rays complete; the RT unit's
total cycle count is the simulated execution time.  The predictor,
partial warp collector and warp repacking plug into the warp entry
stage exactly as in Figure 10.
"""

from repro.gpu.cache import Cache, CacheConfig, CacheStats
from repro.gpu.config import DRAMConfig, GPUConfig, MemoryConfig, RTUnitConfig
from repro.gpu.dram import DRAM, DRAMStats
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.rt_unit import RTUnitResult
from repro.gpu.simulator import SimOutput, simulate_workload
from repro.gpu.vec_rt_unit import VectorRTUnit

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "DRAM",
    "DRAMConfig",
    "DRAMStats",
    "GPUConfig",
    "MemoryConfig",
    "MemoryHierarchy",
    "RTUnitConfig",
    "RTUnitResult",
    "SimOutput",
    "VectorRTUnit",
    "simulate_workload",
]
