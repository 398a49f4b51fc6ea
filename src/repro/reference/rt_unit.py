"""The per-thread RT-unit stepper, kept as the timing model's oracle.

:class:`RTUnit` pops one traversal-stack entry per resident thread per
warp step, the model of :mod:`repro.gpu.rt_unit`.  Production's
:class:`~repro.gpu.VectorRTUnit` returns an equal
:class:`~repro.gpu.rt_unit.RTUnitResult` for any configuration
(``tests/test_vec_rt_unit.py``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.core.predictor import RayPredictor
from repro.core.repacking import COLLECTOR_CAPACITY, PartialWarpCollector
from repro.errors import SimulationStallError, TraversalError
from repro.geometry.intersect import ray_aabb_intersect, ray_triangle_intersect
from repro.geometry.ray import RayBatch
from repro.gpu.config import GPUConfig
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.rt_unit import _RESTART_SENTINEL, RTUnitResult
from repro.gpu.simulator import SimOutput, _simulate_serial, split_rays_across_sms
from repro.telemetry.publish import (
    LaneHistogram,
    publish_rt_unit_result,
    publish_table_stats,
    table_stats_state,
)


@dataclass
class _StepOutcome:
    """Bookkeeping produced by one warp step."""

    end_time: int
    finished: bool
    active_threads: int
    mis_node_fetches: int = 0
    mis_tri_fetches: int = 0
    box_tests: int = 0
    tri_tests: int = 0
    updates: int = 0
    retired: int = 0
    guard_restarts: int = 0


@dataclass
class _ThreadState:
    """One ray resident in the ray buffer."""

    ray_id: int
    origin: Tuple[float, float, float]
    direction: Tuple[float, float, float]
    inv_direction: Tuple[float, float, float]
    t_min: float
    t_max: float
    ray_hash: int = 0
    stack: List[int] = field(default_factory=list)
    ready_time: int = 0
    done: bool = False
    trained: bool = False
    hit_tri: int = -1
    predicted: bool = False
    verified: bool = False
    restarted: bool = False
    node_fetches: int = 0
    tri_fetches: int = 0
    verify_node_fetches: int = 0
    verify_tri_fetches: int = 0
    spills: int = 0


@dataclass
class _Warp:
    """A resident warp: its threads plus scheduling metadata.

    ``inflight`` models MSHR merging plus the data broadcast of Section
    5.1.2: while a line request is outstanding (its data has not returned
    yet), further requests for the same line from this warp merge into it
    for free.  Once the data returned and was broadcast, a later request
    must re-access the memory system (it will usually hit the L1, but
    still costs a port slot) - so threads that fall out of phase with
    their warp-mates stop benefiting, which is the cost warp repacking
    recovers.
    """

    threads: List[_ThreadState]
    age: int
    ready_time: int
    from_collector: bool = False
    inflight: Dict[int, int] = field(default_factory=dict)


class RTUnit:
    """One SM's RT unit, optionally augmented with the predictor."""

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
        self._hot = bvh.hot()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, rays: RayBatch) -> RTUnitResult:
        """Trace every ray in ``rays`` (in order) and return statistics."""
        table = getattr(self.predictor, "table", None)
        table_base = table_stats_state(table)
        with telemetry.span(
            "rt_unit.run", rays=len(rays),
            predictor=self.predictor is not None, engine="scalar",
        ) as sp:
            result = self._run(rays)
            sp.add(cycles=result.cycles, warp_steps=result.warp_steps)
        publish_rt_unit_result(result)
        publish_table_stats(table, since=table_base, engine="scalar")
        return result

    def _run(self, rays: RayBatch) -> RTUnitResult:
        """The discrete-event loop behind :meth:`run`."""
        threads = self._make_threads(rays)
        pending = [
            threads[i : i + self.rt.warp_size]
            for i in range(0, len(threads), self.rt.warp_size)
        ]
        pending.reverse()  # pop() from the back yields original order

        use_predictor = self.predictor is not None
        repack = use_predictor and self.predictor.config.repack
        # The unit's real capacity limit is the ray buffer (8 warps x 32
        # rays); "additional warps" (Section 4.4.2) raise the number of
        # simultaneously executing warps, i.e. buffer-resident rays.
        extra = self.predictor.config.extra_warps if use_predictor else 0
        buffer_capacity = (self.rt.max_warps + extra) * self.rt.warp_size
        # `capacity` is a constructor floor (push() drains at warp_size
        # regardless); widening it for wide-SIMT configs is behaviorally
        # free and keeps warp_size > COLLECTOR_CAPACITY legal.
        collector = PartialWarpCollector(
            warp_size=self.rt.warp_size,
            capacity=max(COLLECTOR_CAPACITY, self.rt.warp_size),
            timeout_cycles=self.config.collector_timeout,
        )
        collector_last_push = 0
        collector_ready: List[List[int]] = []  # flushed warps awaiting a slot

        heap: List[Tuple[int, int, _Warp]] = []
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
        mis_nodes = 0
        mis_tris = 0
        box_tests = 0
        tri_tests = 0
        predictor_lookups = 0
        predictor_updates = 0
        guard_restarts = 0
        retired_rays = 0
        steps_since_retire = 0
        watchdog_cycles = self.config.watchdog_cycles
        watchdog_stall_steps = self.config.watchdog_stall_steps
        l1_before = (self.memory.l1.stats.accesses, self.memory.l1.stats.hits)
        l2_before = (self.memory.l2.stats.accesses, self.memory.l2.stats.hits)
        dram_before = self.memory.dram.stats.accesses
        dram_row_before = self.memory.dram.stats.row_hits

        def launch(warp: _Warp) -> None:
            nonlocal resident
            resident += 1
            heapq.heappush(heap, (warp.ready_time, warp.age, warp))

        def dispatch_collector_ready(time: int) -> None:
            """Launch flushed repacked warps immediately.

            Their rays already hold ray-buffer slots (only ray IDs moved,
            Section 4.4.1), so no admission gate applies.
            """
            nonlocal collector_warps
            while collector_ready:
                ids = collector_ready.pop(0)
                collector_warps += 1
                launch(
                    _Warp(
                        threads=[threads[r] for r in ids],
                        age=next(counter),
                        ready_time=time + self.rt.queue_latency,
                        from_collector=True,
                    )
                )

        def admit_source(time: int) -> None:
            """Admit pending source warps while ray-buffer space allows."""
            nonlocal buffer_used, warps_executed, collector_last_push
            nonlocal predictor_lookups
            while pending and buffer_used + self.rt.warp_size <= buffer_capacity:
                group = pending.pop()
                buffer_used += len(group)
                ready = time + self.rt.queue_latency
                if use_predictor:
                    ready += self._predictor_stage(group)
                    predictor_lookups += len(group)
                    if repack:
                        predicted = [t for t in group if t.predicted]
                        group = [t for t in group if not t.predicted]
                        if predicted:
                            for ids in collector.push([t.ray_id for t in predicted]):
                                collector_ready.append(ids)
                            collector_last_push = ready
                            dispatch_collector_ready(ready)
                        if not group:
                            continue
                warps_executed += 1
                launch(_Warp(threads=list(group), age=next(counter), ready_time=ready))

        def drain_collector(time: int, force: bool) -> None:
            """Flush the collector on timeout (or unconditionally at the end)."""
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
                # Nothing in flight: force out stragglers, then admit.
                drain_collector(now, force=True)
                dispatch_collector_ready(now)
                admit_source(now)
                if not heap:
                    break
            ready, _, warp = heapq.heappop(heap)
            now = max(now, ready)
            step = self._step_warp(warp, now)
            warp_steps += 1
            active_thread_steps += step.active_threads
            if lane_hist is not None:
                lane_hist.add(step.active_threads)
            mis_nodes += step.mis_node_fetches
            mis_tris += step.mis_tri_fetches
            box_tests += step.box_tests
            tri_tests += step.tri_tests
            predictor_updates += step.updates
            guard_restarts += step.guard_restarts

            # Watchdog: a corrupted state machine must abort with
            # diagnostics, not spin until the host process is killed.
            retired_rays += step.retired
            steps_since_retire = 0 if step.retired else steps_since_retire + 1
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
                    f"({retired_rays}/{len(threads)} rays retired, "
                    f"{resident} resident warps, {len(pending)} source warps pending)",
                    cycles=now,
                    diagnostics={
                        "retired_rays": retired_rays,
                        "total_rays": len(threads),
                        "resident_warps": resident,
                        "pending_source_warps": len(pending),
                        "buffer_used": buffer_used,
                        "warp_steps": warp_steps,
                        "collector_occupancy": len(collector),
                    },
                )

            if step.finished:
                resident -= 1
                buffer_used -= len(warp.threads)
                dispatch_collector_ready(step.end_time)
                admit_source(step.end_time)
            else:
                warp.ready_time = step.end_time
                heapq.heappush(heap, (step.end_time, warp.age, warp))

            if repack:
                drain_collector(now, force=False)

        if lane_hist is not None:
            lane_hist.publish(engine="scalar")
        total_cycles = now
        l1 = self.memory.l1.stats
        l2 = self.memory.l2.stats
        dram = self.memory.dram.stats
        return RTUnitResult(
            cycles=total_cycles,
            rays=len(threads),
            hits=sum(1 for t in threads if t.hit_tri >= 0),
            predicted=sum(1 for t in threads if t.predicted),
            verified=sum(1 for t in threads if t.verified),
            node_fetches=sum(t.node_fetches for t in threads),
            tri_fetches=sum(t.tri_fetches for t in threads),
            misprediction_node_fetches=mis_nodes,
            misprediction_tri_fetches=mis_tris,
            box_tests=box_tests,
            tri_tests=tri_tests,
            warps_executed=warps_executed + collector_warps,
            warp_steps=warp_steps,
            active_thread_steps=active_thread_steps,
            stack_spills=sum(t.spills for t in threads),
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
            guard_restarts=guard_restarts,
            dram_row_hits=dram.row_hits - dram_row_before,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_threads(self, rays: RayBatch) -> List[_ThreadState]:
        threads: List[_ThreadState] = []
        hashes = None
        if self.predictor is not None:
            hashes = self.predictor.hash_batch(rays.origins, rays.directions)
        for i in range(len(rays)):
            ray = rays[i]
            thread = _ThreadState(
                ray_id=i,
                origin=ray.origin,
                direction=ray.direction,
                inv_direction=ray.inv_direction(),
                t_min=ray.t_min,
                t_max=ray.t_max,
                stack=[0],
            )
            if hashes is not None:
                thread.ray_hash = int(hashes[i])
            threads.append(thread)
        return threads

    def _predictor_stage(self, group: Sequence[_ThreadState]) -> int:
        """Run lookups for a warp; returns the stage latency in cycles.

        Lookups drain through the table's access ports; predicted rays
        get their predicted node(s) pushed above a restart sentinel.
        """
        assert self.predictor is not None
        config = self.predictor.config
        for thread in group:
            nodes = self.predictor.predict(thread.ray_hash)
            if nodes:
                thread.predicted = True
                # On verification failure the sentinel triggers a root restart.
                thread.stack = [_RESTART_SENTINEL] + list(reversed(nodes))
        return (len(group) + config.ports - 1) // config.ports + config.lookup_latency

    def _step_warp(self, warp: _Warp, now: int) -> _StepOutcome:
        """Service every thread of ``warp`` that is ready at cycle ``now``.

        Threads progress semi-independently, as in the paper's RT unit
        (per-warp FIFO, requests merged MSHR-style, results broadcast to
        the ray buffer): each ready thread pops one stack entry, its
        distinct cache lines issue back-to-back through the L1 port, and
        the thread becomes ready again at its own data-return time plus
        the pipelined intersection latency.  The warp re-enters the
        scheduler at the earliest thread-ready time, and only releases
        its warp slot when every thread has completed - so a slow
        (mispredicted) thread still holds the slot, which is precisely
        the cost warp repacking removes.
        """
        hot = self._hot
        left = hot.left
        line_of = self.memory.line_of
        node_base = self.bvh.node_address
        tri_base = self.bvh.triangle_address

        out = _StepOutcome(end_time=now, finished=False, active_threads=0)
        # Gather the threads to service and their memory lines.  Lines are
        # deduplicated across the whole service group (MSHR merging); the
        # coalesce window lets slightly-later threads join the iteration,
        # modeling the per-warp FIFO merge and data broadcast.
        if self.rt.warp_barrier:
            horizon = None  # every active thread joins the iteration
        else:
            horizon = now + self.rt.coalesce_window
        lines: Dict[int, int] = {}  # line -> completion time (filled below)
        participants: List[Tuple[_ThreadState, List[int], int]] = []

        for thread in warp.threads:
            if thread.done or (horizon is not None and thread.ready_time > horizon):
                continue
            if not thread.stack:
                thread.done = True  # traversal exhausted: scene miss
                self._retire_thread(thread, out)
                continue
            node = thread.stack.pop()
            if node == _RESTART_SENTINEL:
                # Prediction exhausted without a hit: misprediction.
                out.mis_node_fetches += thread.verify_node_fetches
                out.mis_tri_fetches += thread.verify_tri_fetches
                thread.restarted = True
                node = 0  # restart the full traversal from the root
            elif not 0 <= node < len(left):
                # Speculative stack entry outside the BVH (a corrupted
                # prediction that bypassed the predictor's range guard).
                # A negative index would *silently* wrap in the Python
                # node arrays - the worst possible failure.  Degrade:
                # discard the speculative stack, charge the verification
                # traffic as a misprediction, restart from the root.
                if thread.restarted:
                    raise TraversalError(
                        f"ray {thread.ray_id} popped invalid node {node} "
                        "after a guard restart (corrupted traversal state)",
                        bad_nodes=[node],
                        num_nodes=len(left),
                    )
                out.mis_node_fetches += thread.verify_node_fetches
                out.mis_tri_fetches += thread.verify_tri_fetches
                out.guard_restarts += 1
                thread.restarted = True
                thread.stack = []
                node = 0

            thread_lines: List[int] = []
            if left[node] < 0:
                tests = self._leaf_step(thread, node, thread_lines, line_of, tri_base)
                out.tri_tests += tests
                latency = self.rt.tri_test_latency + max(0, tests - 1)
            else:
                self._interior_step(thread, node, thread_lines, line_of, node_base)
                out.box_tests += 2
                latency = self.rt.box_test_latency + 1
            if len(thread.stack) > self.rt.stack_entries:
                thread.spills += 1
                latency += self.rt.stack_spill_penalty
            for line in thread_lines:
                lines.setdefault(line, 0)
            participants.append((thread, thread_lines, latency))

        out.active_threads = len(participants)
        if not participants:
            # Popped early relative to thread readiness (or all done).
            remaining = [t.ready_time for t in warp.threads if not t.done]
            if remaining:
                out.end_time = max(now + 1, min(remaining))
                out.finished = False
            else:
                out.end_time = now + 1
                out.finished = True
            return out

        # Each warp iteration first claims a controller slot (one warp is
        # serviced per cycle), then issues its distinct lines through the
        # SM's L1 port; misses overlap MSHR-style, so each line completes
        # independently.  A line whose data is still in flight for this
        # warp merges for free (MSHR + broadcast); once returned, a later
        # request must re-access the memory system.
        start = self.memory.acquire_scheduler_slot(now)
        inflight = warp.inflight
        for line in lines:
            pending = inflight.get(line)
            if pending is not None and pending >= start:
                lines[line] = pending
                continue
            ready = self.memory.access_line_time(line, start)
            lines[line] = ready
            inflight[line] = ready
            if len(inflight) > 4 * self.rt.warp_size:
                # Prune stale entries opportunistically.
                warp.inflight = {
                    l: t for l, t in inflight.items() if t >= start
                }
                inflight = warp.inflight

        for thread, thread_lines, latency in participants:
            data_ready = max((lines[l] for l in thread_lines), default=start + 1)
            # A thread that joined the iteration early (ready later than
            # `now` but within the window) still pays its residual latency.
            residual = max(0, thread.ready_time - now)
            thread.ready_time = max(data_ready, start + residual) + latency
            if thread.done:
                self._retire_thread(thread, out)

        if all(t.done for t in warp.threads):
            out.end_time = max(now + 1, max(t.ready_time for t in warp.threads))
            out.finished = True
        else:
            remaining = [t.ready_time for t in warp.threads if not t.done]
            # Barrier semantics: the next iteration starts when the slowest
            # thread's data returned; otherwise when the fastest is ready.
            pick = max(remaining) if self.rt.warp_barrier else min(remaining)
            out.end_time = max(now + 1, pick)
            out.finished = False
        return out

    def _interior_step(self, thread, node, thread_lines, line_of, node_base) -> None:
        """Fetch an interior node and box-test both children."""
        hot = self._hot
        thread.node_fetches += 1
        if thread.predicted and not thread.restarted and not thread.verified:
            thread.verify_node_fetches += 1
        thread_lines.append(line_of(node_base(node)))

        ox, oy, oz = thread.origin
        ix, iy, iz = thread.inv_direction
        child = hot.left[node]
        other = hot.right[node]
        hit_l, t_l = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, thread.t_min, thread.t_max,
            hot.lo_x[child], hot.lo_y[child], hot.lo_z[child],
            hot.hi_x[child], hot.hi_y[child], hot.hi_z[child],
        )
        hit_r, t_r = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, thread.t_min, thread.t_max,
            hot.lo_x[other], hot.lo_y[other], hot.lo_z[other],
            hot.hi_x[other], hot.hi_y[other], hot.hi_z[other],
        )
        stack = thread.stack
        if hit_l and hit_r:
            if t_l <= t_r:
                stack.append(other)
                stack.append(child)
            else:
                stack.append(child)
                stack.append(other)
        elif hit_l:
            stack.append(child)
        elif hit_r:
            stack.append(other)

    def _leaf_step(self, thread, node, thread_lines, line_of, tri_base) -> int:
        """Fetch and test a leaf's triangles; returns tests performed."""
        hot = self._hot
        ox, oy, oz = thread.origin
        dx, dy, dz = thread.direction
        start = hot.first_tri[node]
        count = hot.tri_count[node]
        tests = 0
        verifying = thread.predicted and not thread.restarted and not thread.verified
        for tri in range(start, start + count):
            thread.tri_fetches += 1
            if verifying:
                thread.verify_tri_fetches += 1
            thread_lines.append(line_of(tri_base(tri)))
            tests += 1
            t = ray_triangle_intersect(
                ox, oy, oz, dx, dy, dz, thread.t_min, thread.t_max,
                hot.tri_v0[tri], hot.tri_v1[tri], hot.tri_v2[tri],
            )
            if t is not None:
                thread.hit_tri = tri
                thread.done = True
                if verifying:
                    thread.verified = True
                break
        return tests

    def _retire_thread(self, thread: _ThreadState, out: _StepOutcome) -> None:
        """Train the predictor once when a hitting ray completes."""
        if thread.trained:
            return
        thread.trained = True
        out.retired += 1
        if thread.hit_tri >= 0 and self.predictor is not None:
            self.predictor.train(thread.ray_hash, thread.hit_tri)
            out.updates += 1
            if thread.verified:
                self.predictor.confirm(
                    thread.ray_hash, self.predictor.trained_node_for(thread.hit_tri)
                )



def simulate_workload(
    bvh: FlatBVH, rays: RayBatch, config: Optional[GPUConfig] = None
) -> SimOutput:
    """:func:`repro.gpu.simulate_workload` on :class:`RTUnit`, cold tables."""
    config = config or GPUConfig()
    assignments = split_rays_across_sms(rays, config.num_sms, config.rt_unit.warp_size)
    with telemetry.span(
        "gpu.simulate", rays=len(rays), sms=config.num_sms,
        predictor=config.predictor is not None, engine="scalar",
    ) as sp:
        per_sm = _simulate_serial(bvh, rays, config, None, assignments, RTUnit)
        cycles = max((r.cycles for r in per_sm), default=0)
        sp.add(cycles=cycles)
    return SimOutput(cycles=cycles, per_sm=per_sm)
