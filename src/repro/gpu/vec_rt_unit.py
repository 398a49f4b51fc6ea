"""Vectorized (SoA) implementation of the RT-unit timing model.

:class:`VectorRTUnit` replaces the per-thread stepper
:class:`repro.reference.RTUnit`, tracing each ray once and replaying
it.  Timing never changes which nodes a ray visits: the ray, the tree
and, for a predicted ray, the speculative stack installed at admission
fix that sequence.  So the batched DFS of :mod:`repro.trace.dfs` - one
exact-order slab kernel for both children of every interior pop, one
gathered Moeller-Trumbore kernel for all leaf triangles - records the
visits, and the event loop advances per-ray cursors through them on
plain Python scalars.

Trace then replay
-----------------
* A *visit* is one stack pop, a record of :mod:`repro.trace.dfs`: a run
  ``[rec, rec + cnt)`` of the unit's line table, its latency including
  the spill penalty, and whether it ends the ray with a hit.
  ``cnt < 0`` marks no visit (a scene miss, or the stepper's
  ``TraversalError`` after a restart), acted on when the ray is next
  serviced.
* *Root traces* (from a stack holding only the root) depend only on the
  tree, the ray batch and the four trace costs, so
  :func:`~repro.core.baseline.root_trace_record` memoizes them: a
  Figure 12 study runs each SM's batch without and with the predictor,
  and the second run copies the first run's records in at its start.
* At admission, the warp's predictor lookups run in member order and
  queue every predicted ray with a copy of its nodes.  The first step
  of a warp holding a queued ray builds the *verification trace* of
  every queued ray in one DFS launch, from its speculative stack
  ``[SENTINEL, nodes...]``.  A trace depends only on its ray, the tree
  and its stack, so when it is built changes nothing.  It ends in a
  hit, or in the restart (the sentinel or a guard-invalid node) that
  links it to the root trace, whose records are copied behind it: each
  cursor walks one run.
* Fetch, test, spill and misprediction counters are summed from the
  traces each ray executes; the replay yields cycles and memory stats.

Cycle-for-cycle equivalence
---------------------------
That stepper remains the differential oracle; this engine is
*cycle-count- and counter-identical* to it (``tests/test_vec_rt_unit.py``).
The event loop (heap of ``(ready_time, age)``, admission gate, partial-
warp collector, watchdog) is the stepper's at warp granularity, and
the DFS pops and pushes in its order.  Three seams join a verification
trace to its root trace:

* A sentinel pop and the root trace's first visit share one warp step:
  the pop is no visit, so the root records directly follow (a
  guard-invalid pop, which discards the speculative stack, joins alike).
* A hit counts as verified only when its visit lies inside the ray's
  verification segment, which needs a bound on both ends: root-trace
  visits never verify, nor does any visit after the first restart (a
  sentinel popped with entries below it restarts inside the trace).
* Verification visits spill at the speculative stack's depth, so their
  spill flags come from their own DFS, never from the root trace.

The replay is serial by nature - every line access mutates the shared
port, caches and DRAM banks - and a Figure 12 step serves about eleven
threads and four unique lines, so it runs on Python lists and on
``memoryview`` objects over the record planes, where a NumPy call would
cost more than its work.  A step is one pass over the warp's live
threads in member order.  A thread participates when it is ready within
the coalesce window (under the warp barrier, every live thread does).
A participant whose next record is no visit retires as a miss, or
raises the stepper's ``TraversalError`` on a fault; the first visit
claims the iteration's controller slot, so a step of misses claims
none.  Each line goes out at its first touch in the step (the stepper's
MSHR ``dict`` order) unless it is still in flight for the warp.  Cache
and DRAM latencies are non-negative, so an access never returns before
the step's start: a line sent in the step stays in flight, and the
warp's in-flight map alone gives its later touches the same ready time.
Each visit folds its thread's data-ready time, and the threads left live
fold the warp's next ready time.  The misses, then the hits retire in
member order; hits train and confirm one ray at a time, as reordering
them would change the LRU order within a table set.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import (
    NODE_BASE_ADDRESS,
    NODE_SIZE_BYTES,
    TRIANGLE_BASE_ADDRESS,
    TRIANGLE_SIZE_BYTES,
    FlatBVH,
)
from repro.core.baseline import root_trace_record
from repro.core.predictor import RayPredictor
from repro.core.repacking import COLLECTOR_CAPACITY, PartialWarpCollector
from repro.errors import SimulationStallError, TraversalError
from repro.geometry.ray import RayBatch
from repro.gpu.config import GPUConfig
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.rt_unit import RTUnitResult
from repro.telemetry.publish import (
    LaneHistogram,
    publish_rt_unit_result,
    publish_table_stats,
    table_stats_state,
)
from repro.trace.dfs import (
    FAULT,
    RESTART_SENTINEL,
    DFSTrace,
    TraceCosts,
    dfs_trace,
    index_runs,
)


class _VecState:
    """Per-ray thread state: the DFS's array planes, the replay's lists."""

    def __init__(self, rays: RayBatch, root: DFSTrace) -> None:
        self.n = n = len(rays)
        self.origin = np.asarray(rays.origins, dtype=np.float64)
        self.direction = np.asarray(rays.directions, dtype=np.float64)
        # 1/d matches _safe_inverse bit-for-bit: signed zeros give
        # correctly-signed infinities.
        with np.errstate(divide="ignore"):
            self.inv_direction = 1.0 / self.direction
        self.t_min, self.t_max = (
            np.asarray(t, dtype=np.float64) for t in (rays.t_min, rays.t_max)
        )
        # Every ray starts on its root trace, copied in from the memo; a
        # verification trace replaces a predicted ray's cursor, counters
        # and hit when the queue is flushed.
        self.root, self.root_len = root.start, root.length
        self.verified = np.zeros(n, dtype=bool)
        self.hit_tri = root.hit_tri.copy()
        self.node_fetches = root.node_fetches.copy()
        self.tri_fetches = root.tri_fetches.copy()
        self.spills = root.spills.copy()
        self.mis_node_fetches = self.mis_tri_fetches = self.guard_restarts = 0
        #: Predicted rays awaiting their verification trace: ray -> nodes.
        self.queue: Dict[int, Tuple[int, ...]] = {}
        # Replay state, read and written one ray at a time: `cur` is each
        # ray's next record.  The views read the DFS's fixed-size planes
        # as Python scalars.
        self.ray_hash = [0] * n
        self.predicted = [False] * n
        self.cur = root.start.tolist()
        self.ready_time = [0] * n
        self.hit_tri_view = memoryview(self.hit_tri)
        self.verified_view = memoryview(self.verified)
        # Record planes (rec, cnt, lat as int32; hit), grown geometrically;
        # `views` are refreshed after every trace, as growth reallocates.
        self.used = len(root.planes[0])
        cap = 2 * self.used + 64
        self.planes = []
        for own in root.planes:
            plane = np.empty(cap, dtype=own.dtype)
            plane[:self.used] = own
            self.planes.append(plane)
        self.views = [memoryview(plane) for plane in self.planes]

    def reserve(self, k: int) -> int:
        """Claim ``k`` records; returns the first one's index."""
        start = self.used
        self.used += k
        if self.used > len(self.planes[0]):
            cap = max(self.used, 2 * len(self.planes[0]))
            for i, old in enumerate(self.planes):
                self.planes[i] = np.empty(cap, dtype=old.dtype)
                self.planes[i][:start] = old[:start]
        return start


@dataclass
class _VecWarp:
    """A resident warp: member ray IDs plus metadata."""

    members: List[int]
    age: int
    ready_time: int
    inflight: Dict[int, int] = field(default_factory=dict)
    #: Members not yet done, in member order.
    live: List[int] = field(init=False)
    #: No step has run yet (the first one flushes the verification queue).
    first: bool = True

    def __post_init__(self) -> None:
        self.live = self.members


class VectorRTUnit:
    """One SM's RT unit, vectorized; equivalent to the reference stepper."""

    def __init__(
        self,
        bvh: FlatBVH,
        config: GPUConfig,
        memory: MemoryHierarchy,
        predictor: Optional[RayPredictor] = None,
    ) -> None:
        self.bvh = bvh
        self.config = config
        self.rt = config.rt_unit
        self.memory = memory
        self.predictor = predictor
        if config.predictor is not None and predictor is None:
            self.predictor = RayPredictor(bvh, config.predictor)
        rt = self.rt
        self._costs = TraceCosts(
            rt.box_test_latency, rt.tri_test_latency, rt.stack_entries,
            rt.stack_spill_penalty,
        )
        self._num_nodes = bvh.num_nodes
        # A DFS stack holds at most one pending sibling per level below
        # where it started, plus two fresh children.
        self._stack_depth = bvh.max_depth() + 2
        line_bytes = memory.config.l1.line_bytes
        nodes = np.arange(bvh.num_nodes, dtype=np.int64)
        tris = np.arange(bvh.num_triangles, dtype=np.int64)
        self._lines = np.concatenate([
            (NODE_BASE_ADDRESS + NODE_SIZE_BYTES * nodes) // line_bytes,
            (TRIANGLE_BASE_ADDRESS + TRIANGLE_SIZE_BYTES * tris) // line_bytes,
        ]).tolist()

    def run(self, rays: RayBatch) -> RTUnitResult:
        """Trace every ray in ``rays`` (in order) and return statistics."""
        table = getattr(self.predictor, "table", None)
        table_base = table_stats_state(table)
        with telemetry.span(
            "rt_unit.run", rays=len(rays),
            predictor=self.predictor is not None, engine="vector",
        ) as sp:
            result = self._run(rays)
            sp.add(cycles=result.cycles, warp_steps=result.warp_steps)
        publish_rt_unit_result(result)
        publish_table_stats(table, since=table_base, engine="vector")
        return result

    # Event loop (mirrors the reference RTUnit._run at warp granularity)
    def _run(self, rays: RayBatch) -> RTUnitResult:
        st = _VecState(rays, root_trace_record(
            self.bvh, rays, self._costs, self.config.num_sms
        ))
        if self.predictor is not None:
            hashes = self.predictor.hash_batch(rays.origins, rays.directions)
            st.ray_hash = np.asarray(hashes, dtype=np.uint64).tolist()
        n = st.n
        warp_size = self.rt.warp_size
        pending = [
            list(range(i, min(i + warp_size, n))) for i in range(0, n, warp_size)
        ]
        pending.reverse()  # pop() from the back yields original order

        use_predictor = self.predictor is not None
        repack = use_predictor and self.predictor.config.repack
        extra = self.predictor.config.extra_warps if use_predictor else 0
        buffer_capacity = (self.rt.max_warps + extra) * warp_size
        collector = PartialWarpCollector(
            warp_size=warp_size,
            capacity=max(COLLECTOR_CAPACITY, warp_size),
            timeout_cycles=self.config.collector_timeout,
        )
        collector_last_push = 0
        collector_ready: List[List[int]] = []

        heap: List[Tuple[int, int, _VecWarp]] = []
        counter = itertools.count()
        now = 0
        resident = 0
        buffer_used = 0
        warps_executed = 0
        collector_warps = 0
        warp_steps = 0
        active_thread_steps = 0
        # Divergence introspection: per-iteration active-lane counts,
        # accumulated locally and folded into the registry at run end.
        lane_hist = LaneHistogram() if telemetry.enabled() else None
        predictor_lookups = 0
        predictor_updates = 0
        retired_rays = 0
        steps_since_retire = 0
        watchdog_cycles = self.config.watchdog_cycles
        watchdog_stall_steps = self.config.watchdog_stall_steps
        l1_before = (self.memory.l1.stats.accesses, self.memory.l1.stats.hits)
        l2_before = (self.memory.l2.stats.accesses, self.memory.l2.stats.hits)
        dram_before = self.memory.dram.stats.accesses
        dram_row_before = self.memory.dram.stats.row_hits

        def launch(warp: _VecWarp) -> None:
            nonlocal resident
            resident += 1
            heapq.heappush(heap, (warp.ready_time, warp.age, warp))

        def dispatch_collector_ready(time: int) -> None:
            nonlocal collector_warps
            while collector_ready:
                ids = collector_ready.pop(0)
                collector_warps += 1
                launch(_VecWarp(ids, next(counter), time + self.rt.queue_latency))

        def admit_source(time: int) -> None:
            nonlocal buffer_used, warps_executed, collector_last_push
            nonlocal predictor_lookups
            while pending and buffer_used + warp_size <= buffer_capacity:
                group = pending.pop()
                buffer_used += len(group)
                ready = time + self.rt.queue_latency
                if use_predictor:
                    ready += self._predictor_stage(st, group)
                    predictor_lookups += len(group)
                    if repack:
                        predicted = [r for r in group if st.predicted[r]]
                        group = [r for r in group if not st.predicted[r]]
                        if predicted:
                            for ids in collector.push(predicted):
                                collector_ready.append(ids)
                            collector_last_push = ready
                            dispatch_collector_ready(ready)
                        if not group:
                            continue
                warps_executed += 1
                launch(_VecWarp(members=group, age=next(counter), ready_time=ready))

        def drain_collector(time: int, force: bool) -> None:
            nonlocal collector_last_push
            if len(collector) == 0:
                return
            if not force and time - collector_last_push < collector.timeout_cycles:
                return
            while len(collector):
                flushed = collector.flush(reason="final" if force else "timeout")
                if not flushed:
                    break
                collector_ready.append(flushed)
                if not force:
                    break
            collector_last_push = time
            dispatch_collector_ready(time)

        admit_source(0)
        while heap or pending or len(collector) or collector_ready:
            if not heap:
                drain_collector(now, force=True)
                dispatch_collector_ready(now)
                admit_source(now)
                if not heap:
                    break
            ready, _, warp = heapq.heappop(heap)
            now = max(now, ready)
            end_time, finished, active, retired, updates = self._step_warp(
                st, warp, now
            )
            warp_steps += 1
            active_thread_steps += active
            if lane_hist is not None:
                lane_hist.add(active)
            predictor_updates += updates

            retired_rays += retired
            steps_since_retire = 0 if retired else steps_since_retire + 1
            if (watchdog_cycles is not None and now > watchdog_cycles) or (
                steps_since_retire > watchdog_stall_steps
            ):
                reason = (
                    f"cycle cap {watchdog_cycles} exceeded"
                    if watchdog_cycles is not None and now > watchdog_cycles
                    else f"{steps_since_retire} warp iterations without a ray retiring"
                )
                raise SimulationStallError(
                    f"RT-unit watchdog fired at cycle {now}: {reason} "
                    f"({retired_rays}/{n} rays retired, "
                    f"{resident} resident warps, {len(pending)} source warps pending)",
                    cycles=now,
                    diagnostics={
                        "retired_rays": retired_rays,
                        "total_rays": n,
                        "resident_warps": resident,
                        "pending_source_warps": len(pending),
                        "buffer_used": buffer_used,
                        "warp_steps": warp_steps,
                        "collector_occupancy": len(collector),
                    },
                )

            if finished:
                resident -= 1
                buffer_used -= len(warp.members)
                dispatch_collector_ready(end_time)
                admit_source(end_time)
            else:
                warp.ready_time = end_time
                heapq.heappush(heap, (end_time, warp.age, warp))

            if repack:
                drain_collector(now, force=False)

        if lane_hist is not None:
            lane_hist.publish(engine="vector")
        l1 = self.memory.l1.stats
        l2 = self.memory.l2.stats
        dram = self.memory.dram.stats
        node_fetches = int(st.node_fetches.sum())
        tri_fetches = int(st.tri_fetches.sum())
        return RTUnitResult(
            cycles=now,
            rays=n,
            hits=int((st.hit_tri >= 0).sum()),
            predicted=sum(st.predicted),
            verified=int(st.verified.sum()),
            node_fetches=node_fetches,
            tri_fetches=tri_fetches,
            misprediction_node_fetches=st.mis_node_fetches,
            misprediction_tri_fetches=st.mis_tri_fetches,
            box_tests=2 * node_fetches,
            tri_tests=tri_fetches,
            warps_executed=warps_executed + collector_warps,
            warp_steps=warp_steps,
            active_thread_steps=active_thread_steps,
            stack_spills=int(st.spills.sum()),
            l1_accesses=l1.accesses - l1_before[0],
            l1_hits=l1.hits - l1_before[1],
            l2_accesses=l2.accesses - l2_before[0],
            l2_hits=l2.hits - l2_before[1],
            dram_accesses=dram.accesses - dram_before,
            dram_bank_parallelism=dram.bank_parallelism(
                self.memory.dram.config.num_banks
            ),
            predictor_lookups=predictor_lookups,
            predictor_updates=predictor_updates,
            collector_warps=collector_warps,
            collector_timeout_flushes=collector.stats.timeout_flushes,
            guard_restarts=st.guard_restarts,
            dram_row_hits=dram.row_hits - dram_row_before,
        )

    # Predictor stage: per-ray lookups; predicted rays queue for verification
    def _predictor_stage(self, st: _VecState, group: List[int]) -> int:
        assert self.predictor is not None
        config = self.predictor.config
        predict = self.predictor.predict
        for r in group:
            nodes = predict(st.ray_hash[r])
            if nodes:
                st.predicted[r] = True
                # Copied: the stepper consumes a lookup's nodes at
                # admission, and a predictor may reuse the list it returned.
                st.queue[r] = tuple(nodes)
        return (len(group) + config.ports - 1) // config.ports + config.lookup_latency

    def _verify(self, st: _VecState) -> None:
        """Trace every queued ray from its speculative stack, in one launch.

        A linked ray's root trace is copied behind its own records, so
        each cursor walks one run.
        """
        queue = st.queue
        rows = np.fromiter(queue, dtype=np.int64, count=len(queue))
        c = np.fromiter(map(len, queue.values()), dtype=np.int64, count=len(queue))
        # Scalar layout: [SENTINEL] + reversed(nodes), so list slot j
        # lands at stack position c - j (position c pops first).
        width = int(c.max()) + 1 + self._stack_depth
        stack = np.zeros((len(rows), width), dtype=np.int64)
        stack[:, 0] = RESTART_SENTINEL
        for i, nodes in enumerate(queue.values()):
            stack[i, len(nodes):0:-1] = nodes
        queue.clear()
        tr = dfs_trace(
            self.bvh, st.origin[rows], st.direction[rows],
            st.inv_direction[rows], st.t_min[rows], st.t_max[rows],
            stack, 1 + c, self._costs, speculative=True,
        )
        linked = tr.linked
        tail = np.where(linked, st.root_len[rows], 0)
        total = tr.length + tail
        start = st.reserve(int(total.sum())) + np.cumsum(total) - total
        own = index_runs(start, tr.length)
        src = index_runs(st.root[rows[linked]], tail[linked])
        dst = index_runs((start + tr.length)[linked], tail[linked])
        for plane, traced in zip(st.planes, tr.planes):
            plane[own] = traced
            plane[dst] = plane[src]
        st.views = [memoryview(plane) for plane in st.planes]
        for r, s in zip(rows.tolist(), start.tolist()):
            st.cur[r] = s
        # A linked ray keeps its root trace's hit and adds its counters.
        st.hit_tri[rows] = np.where(linked, st.hit_tri[rows], tr.hit_tri)
        st.verified[rows] = tr.verified
        for plane, traced in (
            (st.node_fetches, tr.node_fetches), (st.tri_fetches, tr.tri_fetches),
            (st.spills, tr.spills),
        ):
            plane[rows] = traced + np.where(linked, plane[rows], 0)
        st.mis_node_fetches += tr.mis_node_fetches
        st.mis_tri_fetches += tr.mis_tri_fetches
        st.guard_restarts += tr.guard_restarts

    # Replay: one warp iteration, one pass over its live threads in member order
    def _step_warp(
        self, st: _VecState, warp: _VecWarp, now: int
    ) -> Tuple[int, bool, int, int, int]:
        """Run one iteration of ``warp`` at cycle ``now``.

        Returns ``(end_time, finished, active_threads, retired, updates)``.
        """
        if warp.first:
            warp.first = False
            queue = st.queue
            if queue and any(r in queue for r in warp.members):
                self._verify(st)
        rt = self.rt
        barrier = rt.warp_barrier
        # Under the barrier every live thread joins the iteration.
        horizon = math.inf if barrier else now + rt.coalesce_window
        rec_of, cnt_of, lat_of, hit_of = st.views
        cur, ready_time = st.cur, st.ready_time
        lines = self._lines
        access_line = self.memory.access_line_time
        inflight = warp.inflight
        prune_above = 4 * rt.warp_size
        start = -1  # the iteration's controller slot, claimed by its first visit
        active = retired = 0
        live: List[int] = []
        hits: List[int] = []
        soonest = math.inf  # next ready time: min over the threads left live
        latest = 0  # under the barrier: max over the participants left live
        for r in warp.live:
            ready = ready_time[r]
            if ready > horizon:
                live.append(r)
                if ready < soonest:
                    soonest = ready
                continue
            i = cur[r]
            c = cnt_of[i]
            if c < 0:
                if c == FAULT:
                    bad = rec_of[i]
                    raise TraversalError(
                        f"ray {r} popped invalid node {bad} "
                        "after a guard restart (corrupted traversal state)",
                        bad_nodes=[bad],
                        num_nodes=self._num_nodes,
                    )
                # A drained stack retires as a scene miss (hit_tri stays -1,
                # so it never trains).
                retired += 1
                continue
            if start < 0:
                start = self.memory.acquire_scheduler_slot(now)
            active += 1
            cur[r] = i + 1
            # A thread's data is ready at its last line's return; an empty
            # leaf requests no lines and waits for `start + 1`.
            data = 0 if c else start + 1
            rec = rec_of[i]
            for line in lines[rec:rec + c]:
                # A line still in flight for this warp merges for free.  An
                # access never returns before `start`, so a line sent in
                # this step stays in flight: it goes out at its first touch
                # and its later touches merge at that time.
                t = inflight.get(line)
                if t is None or t < start:
                    t = inflight[line] = access_line(line, start)
                    if len(inflight) > prune_above:
                        inflight = warp.inflight = {
                            ln: tm for ln, tm in inflight.items() if tm >= start
                        }
                if t > data:
                    data = t
            residual = ready - now
            floor = start + residual if residual > 0 else start
            ready = ready_time[r] = (data if data > floor else floor) + lat_of[i]
            if hit_of[i]:
                hits.append(r)
            else:
                live.append(r)
                if ready < soonest:
                    soonest = ready
                if ready > latest:
                    latest = ready
        warp.live = live
        # Hits retire after the misses, and train and confirm in member
        # order: the predictor-stamp sequence must match the stepper's.
        predictor = self.predictor
        updates = 0
        if hits:
            retired += len(hits)
            if predictor is not None:
                ray_hash, hit_tri = st.ray_hash, st.hit_tri_view
                verified = st.verified_view
                for r in hits:
                    h, tri = ray_hash[r], hit_tri[r]
                    predictor.train(h, tri)
                    if verified[r]:
                        predictor.confirm(h, predictor.trained_node_for(tri))
                updates = len(hits)
        if not live:
            last = max([ready_time[r] for r in warp.members]) if active else 0
            return max(now + 1, last), True, active, retired, updates
        pick = latest if barrier else soonest
        return max(now + 1, pick), False, active, retired, updates


__all__ = ["VectorRTUnit"]
