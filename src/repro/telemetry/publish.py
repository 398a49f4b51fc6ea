"""Fold pipeline result objects into the global metrics registry.

Each ``publish_*`` helper maps one subsystem's result/stats object onto
the documented metric catalog (``docs/OBSERVABILITY.md``).  They are
duck-typed on purpose: importing the GPU or simulation modules here
would create an import cycle (those modules import
:mod:`repro.telemetry` for spans), and attribute access is all the
mapping needs.

Every helper is a no-op while telemetry is disabled, so instrumented
call sites invoke them unconditionally.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Tuple

from repro import telemetry

#: Bucket edges for fraction-valued histograms (rates in [0, 1]).
FRACTION_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Bucket edges for per-warp-iteration active-lane counts (powers of
#: two up to the widest supported warp).  The shape of this histogram
#: *is* the divergence story: Figure 10's SIMT-efficiency gap shows up
#: here as mass in the low buckets.
LANE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                512.0, 1024.0)


class LaneHistogram:
    """Accumulates per-warp-iteration active-lane counts locally.

    The RT-unit event loops retire one warp iteration at a time, so
    observing straight into the registry would cost a dict probe per
    iteration.  Instead the loop allocates one of these only when
    telemetry is enabled (``None`` otherwise - the off path stays a
    single ``is not None`` check), accumulates raw bucket counts with a
    ``bisect``, and folds the whole distribution into the registry once
    at run end via :meth:`publish`.
    """

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(LANE_BUCKETS) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, active: int) -> None:
        """Record one warp iteration's active-lane count."""
        telemetry.record_hook_activation()
        self.counts[bisect_left(LANE_BUCKETS, active)] += 1
        self.total += 1
        self.sum += active
        if active < self.min:
            self.min = float(active)
        if active > self.max:
            self.max = float(active)

    def publish(self, **labels: object) -> None:
        """Fold the accumulated distribution into the global registry."""
        if not telemetry.enabled() or not self.total:
            return
        hist = telemetry.get_registry().histogram(
            "rt_unit.active_lanes", buckets=LANE_BUCKETS,
            **telemetry.current_labels(labels),
        )
        hist.add_raw(self.counts, self.total, self.sum, self.min, self.max)


def table_stats_state(table) -> Optional[Tuple[int, ...]]:
    """Snapshot a predictor table's cumulative stats (for deltas).

    Returns ``None`` when telemetry is off or ``table`` is ``None``
    (meta predictors without a single table).  Taken at run start so
    :func:`publish_table_stats` can publish only what *this* run did -
    pre-warmed predictors reused across frames keep cumulative stats,
    and publishing those repeatedly would double count.
    """
    if table is None or not telemetry.enabled():
        return None
    stats = table.stats
    return (
        stats.lookups, stats.hits, stats.updates,
        stats.entry_evictions, stats.node_evictions,
        table.tag_alias_probes,
    )


def publish_table_stats(
    table, since: Optional[Tuple[int, ...]] = None, **labels: object
) -> None:
    """Publish predictor-table introspection counters (Section 4.1).

    ``since`` is a :func:`table_stats_state` snapshot from run start;
    ``None`` publishes the cumulative values (fresh-table runs).  The
    occupancy gauge is point-in-time by nature.  ``table.tag_aliases``
    counts lookups whose set held more than one entry with the probed
    tag, which only tag corruption (``corrupt_tag``) can cause; the
    table tracks it only if telemetry was enabled when it was built.
    ``table=None`` is a no-op (predictors without a single table).
    """
    if table is None or not telemetry.enabled():
        return
    base = since or (0, 0, 0, 0, 0, 0)
    stats = table.stats
    inc = telemetry.inc_counter
    inc("table.lookups", stats.lookups - base[0], **labels)
    inc("table.hits", stats.hits - base[1], **labels)
    inc("table.updates", stats.updates - base[2], **labels)
    inc("table.entry_evictions", stats.entry_evictions - base[3], **labels)
    inc("table.node_evictions", stats.node_evictions - base[4], **labels)
    inc("table.tag_aliases", table.tag_alias_probes - base[5], **labels)
    occupancy = getattr(table, "occupancy", None)
    if occupancy is not None:
        telemetry.set_gauge("table.occupancy", occupancy(), **labels)


def publish_reuse_distances(memory, **labels: object) -> None:
    """Publish a memory hierarchy's cache-line reuse-distance buckets.

    The raw counts accumulate locally on the
    :class:`~repro.gpu.memory.MemoryHierarchy` (tracking is sampled at
    construction; see ``docs/OBSERVABILITY.md``), so this also works
    for memory objects shipped back from ``sm_jobs`` workers.  Publish
    once per run per hierarchy from a single owner (the workload
    simulator) to avoid double counting.
    """
    if not telemetry.enabled():
        return
    counts = getattr(memory, "reuse_counts", None)
    if counts is None:
        return
    telemetry.inc_counter(
        "memory.cold_lines", memory.reuse_cold_lines, **labels
    )
    if not memory.reuse_total:
        return
    from repro.gpu.memory import REUSE_DISTANCE_BUCKETS

    hist = telemetry.get_registry().histogram(
        "memory.reuse_distance", buckets=REUSE_DISTANCE_BUCKETS,
        **telemetry.current_labels(labels),
    )
    hist.add_raw(
        counts, memory.reuse_total, memory.reuse_sum,
        memory.reuse_min, memory.reuse_max,
    )


def publish_simulation_result(result, engine: str, **labels: object) -> None:
    """Publish a functional :class:`~repro.core.simulate.SimulationResult`.

    Emits the paper's headline decomposition: every ray is exactly one
    of verified / mispredicted / unpredicted, and
    ``predicted = verified + mispredicted``.
    """
    if not telemetry.enabled():
        return
    inc = telemetry.inc_counter
    mispredicted = result.predicted - result.verified
    inc("predictor.rays", result.num_rays, engine=engine, **labels)
    inc("predictor.predicted", result.predicted, engine=engine, **labels)
    inc("predictor.verified", result.verified, engine=engine, **labels)
    inc("predictor.mispredicted", mispredicted, engine=engine, **labels)
    inc("predictor.unpredicted", result.num_rays - result.predicted,
        engine=engine, **labels)
    inc("predictor.hits", result.hits, engine=engine, **labels)
    inc("predictor.table_lookups", result.table_lookups, engine=engine, **labels)
    inc("predictor.table_updates", result.table_updates, engine=engine, **labels)
    inc("predictor.guard_fallbacks", result.guard_fallbacks,
        engine=engine, **labels)
    inc("predictor.node_fetches", result.predictor_node_fetches,
        engine=engine, **labels)
    inc("predictor.tri_fetches", result.predictor_tri_fetches,
        engine=engine, **labels)
    inc("predictor.baseline_node_fetches", result.baseline_node_fetches,
        engine=engine, **labels)
    inc("predictor.baseline_tri_fetches", result.baseline_tri_fetches,
        engine=engine, **labels)
    inc("predictor.misprediction_node_fetches",
        result.misprediction_node_fetches, engine=engine, **labels)
    inc("predictor.misprediction_tri_fetches",
        result.misprediction_tri_fetches, engine=engine, **labels)
    telemetry.observe(
        "predictor.verified_rate", result.verified_rate,
        buckets=FRACTION_BUCKETS, engine=engine, **labels,
    )


def publish_rt_unit_result(result, **labels: object) -> None:
    """Publish a :class:`~repro.gpu.rt_unit.RTUnitResult`.

    Cache and DRAM traffic is published separately (from the cache/DRAM
    stats objects themselves, see :func:`publish_cache_stats`) to avoid
    double counting when several RT units share one hierarchy.
    """
    if not telemetry.enabled():
        return
    inc = telemetry.inc_counter
    inc("rt_unit.rays", result.rays, **labels)
    inc("rt_unit.hits", result.hits, **labels)
    inc("rt_unit.predicted", result.predicted, **labels)
    inc("rt_unit.verified", result.verified, **labels)
    inc("rt_unit.mispredicted", result.predicted - result.verified, **labels)
    inc("rt_unit.node_fetches", result.node_fetches, **labels)
    inc("rt_unit.tri_fetches", result.tri_fetches, **labels)
    inc("rt_unit.box_tests", result.box_tests, **labels)
    inc("rt_unit.tri_tests", result.tri_tests, **labels)
    inc("rt_unit.warps_executed", result.warps_executed, **labels)
    inc("rt_unit.warp_steps", result.warp_steps, **labels)
    inc("rt_unit.stack_spills", result.stack_spills, **labels)
    inc("rt_unit.guard_restarts", result.guard_restarts, **labels)
    inc("rt_unit.predictor_lookups", result.predictor_lookups, **labels)
    inc("rt_unit.predictor_updates", result.predictor_updates, **labels)
    telemetry.set_gauge("rt_unit.cycles", result.cycles, **labels)
    telemetry.set_gauge(
        "rt_unit.simt_efficiency", result.simt_efficiency, **labels
    )


def publish_cache_stats(stats, level: str, **labels: object) -> None:
    """Publish one :class:`~repro.gpu.cache.CacheStats` (``level``: l1/l2).

    Counters are cumulative on the stats object, so publish once per
    run from a single owner (the workload simulator), not per access.
    """
    if not telemetry.enabled():
        return
    telemetry.inc_counter("cache.accesses", stats.accesses,
                          level=level, **labels)
    telemetry.inc_counter("cache.hits", stats.hits, level=level, **labels)
    telemetry.inc_counter("cache.misses", stats.misses, level=level, **labels)
    telemetry.set_gauge("cache.hit_rate", stats.hit_rate,
                        level=level, **labels)


def publish_dram_stats(stats, num_banks: int, **labels: object) -> None:
    """Publish one :class:`~repro.gpu.dram.DRAMStats`."""
    if not telemetry.enabled():
        return
    telemetry.inc_counter("dram.accesses", stats.accesses, **labels)
    telemetry.inc_counter("dram.stall_cycles", stats.stall_cycles, **labels)
    telemetry.inc_counter("dram.busy_cycles", stats.busy_cycles, **labels)
    telemetry.set_gauge(
        "dram.bank_parallelism", stats.bank_parallelism(num_banks), **labels
    )


def publish_bvh(bvh, method: str, **labels: object) -> None:
    """Publish build-time facts of a :class:`~repro.bvh.nodes.FlatBVH`."""
    if not telemetry.enabled():
        return
    telemetry.inc_counter("bvh.builds", 1, method=method, **labels)
    telemetry.set_gauge("bvh.nodes", bvh.num_nodes, method=method, **labels)
    telemetry.set_gauge(
        "bvh.triangles", bvh.num_triangles, method=method, **labels
    )


__all__ = [
    "FRACTION_BUCKETS",
    "LANE_BUCKETS",
    "LaneHistogram",
    "publish_bvh",
    "publish_cache_stats",
    "publish_dram_stats",
    "publish_reuse_distances",
    "publish_rt_unit_result",
    "publish_simulation_result",
    "publish_table_stats",
    "table_stats_state",
]
