"""The memory hierarchy beneath one SM: L1 -> L2 -> banked DRAM.

Latency composition: an access probes the L1 (one cycle on hit); on a
miss it probes the shared L2; on an L2 miss it is serviced by the DRAM
bank model, which adds queueing delay when banks are contended.  Fills
allocate in both caches (no bypass), matching the simple read-only
behaviour of BVH/triangle data in the paper's workloads.

The L1 has a single request port: within a warp step, distinct line
requests issue on consecutive cycles; misses overlap (MSHR-style),
so a step's memory time is ``max_i(issue_i + latency_i)``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict

from repro import telemetry
from repro.gpu.cache import Cache
from repro.gpu.config import MemoryConfig
from repro.gpu.dram import DRAM

#: Bucket upper bounds for line reuse distances (accesses between
#: touches of the same line).  Power-of-two edges: reuse locality spans
#: orders of magnitude, and the paper's cache behaviour (Section 6.2.3)
#: is about *how far apart* touches are, not their exact spacing.
REUSE_DISTANCE_BUCKETS = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)


@dataclass
class AccessResult:
    """Outcome of a single line access."""

    ready_at: int
    l1_hit: bool
    l2_hit: bool


class MemoryHierarchy:
    """L1 + shared L2 + DRAM with per-bank timing.

    One instance per SM for the L1; the L2 and DRAM objects may be shared
    across SMs (pass them in), mirroring Figure 3's clusters connecting
    to a common interconnect and memory.
    """

    def __init__(
        self,
        config: MemoryConfig,
        l2: Cache | None = None,
        dram: DRAM | None = None,
    ) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = l2 if l2 is not None else Cache(config.l2)
        self.dram = dram if dram is not None else DRAM(config.dram)
        # Hit latencies cached as ints: `access_line_time` is the
        # timing model's hottest per-line path.
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._l1_ports = config.l1_ports
        # The SM's L1 request port(s): `l1_ports` line requests per cycle
        # (the RT unit multiplexes with the LDST unit for L1 access,
        # Section 5.1).  Requests from all resident warps serialize here
        # while their *latencies* overlap MSHR-style.
        self._port_cycle = 0
        self._port_slots = 0
        self.port_issues = 0
        self.port_wait_cycles = 0
        # The RT unit's controller services one warp iteration per cycle
        # ("the memory scheduler first selects a warp, then selects the
        # next node", Section 5.1.2), so sparse iterations - a warp with
        # one straggler thread - consume scheduling throughput just like
        # dense ones.  This is the cost that warp repacking recovers.
        self._scheduler_free = 0
        # Reuse-distance introspection (docs/OBSERVABILITY.md): the
        # enablement is sampled once here, not per access, so the
        # disabled hot path pays a single attribute check.  Raw bucket
        # layout mirrors Histogram.observe over REUSE_DISTANCE_BUCKETS;
        # the simulator publishes it at run end via
        # publish_reuse_distances.
        self._track_reuse = telemetry.enabled()
        self._reuse_last: Dict[int, int] = {}
        self._reuse_index = 0
        self.reuse_counts = [0] * (len(REUSE_DISTANCE_BUCKETS) + 1)
        self.reuse_total = 0
        self.reuse_sum = 0.0
        self.reuse_min = float("inf")
        self.reuse_max = float("-inf")
        self.reuse_cold_lines = 0

    def _note_reuse(self, line_addr: int) -> None:
        """Record one line touch (enabled-telemetry path only)."""
        telemetry.record_hook_activation()
        index = self._reuse_index
        self._reuse_index = index + 1
        last = self._reuse_last.get(line_addr)
        self._reuse_last[line_addr] = index
        if last is None:
            self.reuse_cold_lines += 1
            return
        distance = float(index - last - 1)
        self.reuse_counts[bisect_left(REUSE_DISTANCE_BUCKETS, distance)] += 1
        self.reuse_total += 1
        self.reuse_sum += distance
        if distance < self.reuse_min:
            self.reuse_min = distance
        if distance > self.reuse_max:
            self.reuse_max = distance

    def acquire_scheduler_slot(self, now: int) -> int:
        """Reserve the next warp-iteration slot at or after ``now``."""
        slot = now if now >= self._scheduler_free else self._scheduler_free
        self._scheduler_free = slot + 1
        return slot

    def line_of(self, byte_addr: int) -> int:
        """Line address for a byte address."""
        return byte_addr // self.config.l1.line_bytes

    def access_line(self, line_addr: int, now: int) -> AccessResult:
        """Access one cache line, classifying where it hit.

        Convenience wrapper over :meth:`access_line_time` for callers
        that want per-access hit flags; the RT units use the flag-free
        fast path directly.
        """
        l1_hits = self.l1.stats.hits
        l2_hits = self.l2.stats.hits
        ready = self.access_line_time(line_addr, now)
        return AccessResult(
            ready_at=ready,
            l1_hit=self.l1.stats.hits > l1_hits,
            l2_hit=self.l2.stats.hits > l2_hits,
        )

    def access_line_time(self, line_addr: int, now: int) -> int:
        """Access one cache line, arriving at cycle ``now``.

        The request first waits for the L1 port (one issue per cycle,
        shared by all warps), then traverses the hierarchy.  Returns the
        cycle at which the data is ready; hit/miss classification lives
        in the cache and DRAM statistics objects.
        """
        if self._track_reuse:
            self._note_reuse(line_addr)
        issue = self._port_cycle
        if now > issue:
            issue = now
            self._port_slots = 1
        elif self._port_slots >= self._l1_ports:
            issue += 1
            self._port_slots = 1
        else:
            self._port_slots += 1
        self._port_cycle = issue
        self.port_issues += 1
        self.port_wait_cycles += issue - now

        if self.l1.access(line_addr):
            return issue + self._l1_latency
        if self.l2.access(line_addr):
            return issue + self._l2_latency
        return self.dram.access(line_addr, issue + self._l2_latency)
