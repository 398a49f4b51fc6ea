"""Warp-level discrete-event model of the RT unit (Figure 10).

Execution model
---------------

Rays arrive grouped into source warps of 32.  The unit holds at most
``max_warps`` resident warps (the 256-slot ray buffer); a new source warp
is admitted whenever a warp slot and 32 ray-buffer slots are free.

On admission a warp (optionally) performs the predictor stage: every
thread hashes its ray and looks the predictor table up through the
table's access ports (4 lookups per cycle by default).  With repacking
enabled, predicted rays leave the warp for the partial warp collector,
which re-emits full 32-ray warps (or flushes on timeout); without
repacking, predicted rays simply have their predicted nodes pushed onto
their traversal stacks in place.  Repacked warps occupy warp slots up to
``max_warps + extra_warps`` (Section 4.4.2).

Each subsequent *step* of a resident warp pops one traversal-stack entry
per active thread:

* an interior node costs one node-record fetch (the record holds both
  children's boxes) and two pipelined box tests, then pushes surviving
  children near-first;
* a leaf costs one triangle-record fetch and test per triangle, stopping
  at the first hit (occlusion semantics).

The step's distinct cache-line requests issue through the single L1 port
on consecutive cycles and overlap MSHR-style, so the memory time is the
max of individual completion times; the pipelined intersection latency
is added on top.  The warp becomes ready again at that completion time;
a heap ordered by (ready time, warp age) realizes greedy-then-oldest
scheduling.  Mispredicted rays restart from the root inside their
thread, which is exactly the "long tail" that warp repacking removes.

Predictor *updates* are applied when a ray completes, so a lookup only
sees training from rays that already finished - the delayed-update
behaviour that makes sorted rays benefit less (Section 6).

:class:`~repro.gpu.vec_rt_unit.VectorRTUnit` implements this model; the
per-thread stepper it replaced is kept in :mod:`repro.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.dfs import RESTART_SENTINEL

#: Marker pushed below predicted nodes; popping it means the prediction
#: failed and the ray must restart from the root (misprediction recovery).
#: The depth-first trace that pops it defines it.
_RESTART_SENTINEL = RESTART_SENTINEL


@dataclass
class RTUnitResult:
    """Aggregate output of one RT-unit run."""

    cycles: int
    rays: int
    hits: int
    predicted: int
    verified: int
    node_fetches: int
    tri_fetches: int
    misprediction_node_fetches: int
    misprediction_tri_fetches: int
    box_tests: int
    tri_tests: int
    warps_executed: int
    warp_steps: int
    active_thread_steps: int
    stack_spills: int
    l1_accesses: int
    l1_hits: int
    l2_accesses: int
    l2_hits: int
    dram_accesses: int
    dram_bank_parallelism: float
    predictor_lookups: int
    predictor_updates: int
    collector_warps: int
    collector_timeout_flushes: int
    #: Threads whose speculative stack held an invalid node index and
    #: were restarted from the root by the guard (0 in healthy runs).
    guard_restarts: int = 0
    #: DRAM accesses that hit their bank's open row buffer (pure
    #: observability - row state never changes timing).
    dram_row_hits: int = 0

    @property
    def dram_row_hit_rate(self) -> float:
        """Fraction of this run's DRAM accesses that were row-buffer hits."""
        return self.dram_row_hits / self.dram_accesses if self.dram_accesses else 0.0

    @property
    def total_accesses(self) -> int:
        """Memory accesses at record granularity (nodes + triangles)."""
        return self.node_fetches + self.tri_fetches

    @property
    def predicted_rate(self) -> float:
        """Fraction of rays with a predictor-table hit."""
        return self.predicted / self.rays if self.rays else 0.0

    @property
    def verified_rate(self) -> float:
        """Fraction of rays whose prediction verified."""
        return self.verified / self.rays if self.rays else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of rays intersecting the scene."""
        return self.hits / self.rays if self.rays else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """L1 hit rate of this run."""
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """L2 hit rate seen by this SM's misses."""
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def simt_efficiency(self) -> float:
        """Active threads per warp step, normalized to the warp width."""
        if not self.warp_steps:
            return 0.0
        return self.active_thread_steps / (self.warp_steps * 32)

    def rays_per_cycle(self) -> float:
        """Throughput of this RT unit."""
        return self.rays / self.cycles if self.cycles else 0.0
