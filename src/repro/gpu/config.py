"""Configuration dataclasses for the GPU/RT-unit timing model.

Defaults are a *scaled* version of Table 2: the paper simulates scenes
whose BVH working sets are tens of megabytes against a 64 KB L1; our
stand-in scenes are ~50-300 KB, so capacities are scaled to preserve the
working-set : cache ratio (the quantity Figures 1 and 16 are about).
The paper's absolute values are recorded in the docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.predictor import PredictorConfig


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache (paper: L1 64 KB fully-assoc, L2 1 MB 16-way).

    Attributes:
        size_bytes: total capacity.
        line_bytes: cache-line size (128 B, Table 2).
        ways: associativity.
        latency: hit latency in cycles.
    """

    size_bytes: int = 4 * 1024
    line_bytes: int = 128
    ways: int = 16
    latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes < self.line_bytes:
            raise ValueError("cache smaller than one line")
        if self.latency < 0:
            # A line would return before it was requested; the RT unit
            # merges a warp's repeated touches on that never happening.
            raise ValueError("latency must be >= 0")
        num_lines = self.size_bytes // self.line_bytes
        if num_lines % self.ways != 0:
            raise ValueError("lines must divide evenly into ways")

    @property
    def num_lines(self) -> int:
        """Total cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / ways)."""
        return self.num_lines // self.ways


@dataclass(frozen=True)
class DRAMConfig:
    """Banked DRAM timing (paper: GDDR via GPGPU-Sim; here an abstraction).

    Attributes:
        num_banks: independent banks (addresses interleave line-wise).
        latency: access latency when the bank is idle, in core cycles.
        bank_occupancy: cycles a bank stays busy per access (throughput).
        lines_per_row: cache lines per DRAM row buffer; consecutive
            same-bank lines share a row, and back-to-back accesses to
            the open row are counted as row-buffer hits.  Purely an
            observability counter - row state does not change timing,
            so cycle counts are independent of this value.
    """

    num_banks: int = 8
    latency: int = 120
    bank_occupancy: int = 24
    lines_per_row: int = 32

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")  # as for CacheConfig


@dataclass(frozen=True)
class RTUnitConfig:
    """The RT unit proper (Section 5.1).

    Attributes:
        max_warps: resident warps (8; ray buffer = 256 rays).
        warp_size: threads per warp (32).
        stack_entries: hardware traversal-stack depth (8); deeper
            traversals spill to (simulated) thread-local memory.
        stack_spill_penalty: extra cycles per spilled push/pop.
        box_test_latency: pipelined ray-box unit latency (2 cycles).
        tri_test_latency: pipelined ray-triangle unit latency (2 cycles).
        queue_latency: cycles to enter the unit (1).
        coalesce_window: a warp iteration services every thread that
            becomes ready within this many cycles, so identical node
            requests from warp-mates merge into one memory request even
            when their previous latencies differed slightly.  Models the
            per-warp FIFO merge + data broadcast of Section 5.1.2.
    """

    max_warps: int = 8
    warp_size: int = 32
    stack_entries: int = 8
    stack_spill_penalty: int = 4
    box_test_latency: int = 2
    tri_test_latency: int = 2
    queue_latency: int = 1
    coalesce_window: int = 32
    #: True = warp-iteration barrier: every active thread pops one stack
    #: entry per iteration and the warp advances when the slowest
    #: thread's data returns.  False (default) = threads progress
    #: independently between iterations, modeling Section 5.1.2's
    #: per-warp FIFO with data broadcast; the validated configuration.
    warp_barrier: bool = False

    def __post_init__(self) -> None:
        least_values = (("max_warps", 1), ("warp_size", 1), ("coalesce_window", 0))
        for name, least in least_values:
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")

    @property
    def ray_buffer_capacity(self) -> int:
        """Ray-buffer slots (32 x 8 = 256 in the paper)."""
        return self.max_warps * self.warp_size


@dataclass(frozen=True)
class MemoryConfig:
    """The memory hierarchy below one SM.

    Attributes:
        l1: per-SM L1 (paper: 64 KB; scaled default 8 KB).
        l2: shared L2 (paper: 1 MB; scaled default 32 KB so that, like
            the paper's configuration, the BVH working set spills to DRAM
            and the system is DRAM-bandwidth-bound).
        dram: banked DRAM timing.
        l1_ports: line requests the L1 accepts per cycle.
    """

    l1: CacheConfig = field(default_factory=CacheConfig)
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, ways=16, latency=30)
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    l1_ports: int = 2


@dataclass(frozen=True)
class GPUConfig:
    """Top level: SM count, RT unit, memory, and (optionally) a predictor.

    ``predictor=None`` simulates the baseline RT unit.  Table 2 uses two
    SMs with one RT unit and one predictor each; Section 6.2.5 sweeps
    ``num_sms``.
    """

    num_sms: int = 2
    rt_unit: RTUnitConfig = field(default_factory=RTUnitConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    predictor: Optional[PredictorConfig] = None
    collector_timeout: int = 16
    #: Hard cycle cap per SM run; ``None`` disables it.  When the
    #: simulated clock passes this value the run aborts with a
    #: :class:`repro.errors.SimulationStallError` carrying diagnostics,
    #: instead of spinning until the host process is killed.
    watchdog_cycles: Optional[int] = None
    #: Stall detector: abort if this many consecutive warp iterations
    #: complete without a single ray retiring.  Generous default - legit
    #: runs retire rays orders of magnitude more often.
    watchdog_stall_steps: int = 200_000

    def with_overrides(self, **kwargs) -> "GPUConfig":
        """Copy with selected fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    def baseline(self) -> "GPUConfig":
        """This configuration with the predictor removed."""
        return replace(self, predictor=None)
