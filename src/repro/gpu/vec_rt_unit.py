"""Vectorized (SoA) implementation of the RT-unit timing model.

:class:`VectorRTUnit` replaces the per-thread stepper
:class:`repro.reference.RTUnit`, tracing each ray once and replaying
it.  Timing never changes which nodes a ray visits: the ray, the tree
and, for a predicted ray, the speculative stack installed at admission
fix that sequence.  So a batched DFS - one exact-order slab kernel for
both children of every interior pop, one gathered Moeller-Trumbore
kernel for all leaf triangles - records the visits, and the event loop
advances per-ray cursors through them with array gathers.

Trace then replay
-----------------
* A *visit* is one stack pop: a run ``[rec, rec + cnt)`` of the unit's
  line table (node lines, then triangle lines, so a leaf visit is its
  triangles' lines up to the first hit), its latency including the
  spill penalty, and whether it ends the ray with a hit.  ``cnt < 0``
  marks no visit: an empty stack (``_MISS``, a scene miss) or an
  invalid pop after a restart (``_FAULT``, the stepper's
  ``TraversalError``), acted on when the ray is next serviced.
* *Root traces* (from a stack holding only the root) are built in
  chunks of whole source warps as each chunk's first warp is admitted,
  which bounds the kernels' temporaries.
* At admission, the warp's predictor lookups run in member order and
  the same DFS builds every predicted ray's *verification trace* from
  its speculative stack ``[SENTINEL, nodes...]``.  It ends in a hit, or in the restart (the
  sentinel or a guard-invalid node) that links it to the root trace,
  whose records are copied behind it: each cursor walks one run.
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

Each step expands its visits' line runs in member order and walks the
unique lines in first-occurrence order (the stepper's MSHR ``dict``
order) through the shared port, caches and DRAM banks - the one Python
loop, as it mutates that state line by line.  Training and confirmation
stay per retired ray in member order: reordering them would change the
LRU order within a table set.
"""

from __future__ import annotations

import heapq
import itertools
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
from repro.core.predictor import RayPredictor
from repro.core.repacking import COLLECTOR_CAPACITY, PartialWarpCollector
from repro.errors import SimulationStallError, TraversalError
from repro.geometry.intersect import ray_triangle_intersect_batch
from repro.geometry.ray import RayBatch
from repro.gpu.config import GPUConfig
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.rt_unit import _RESTART_SENTINEL, RTUnitResult, _StepOutcome
from repro.telemetry.publish import (
    LaneHistogram,
    publish_rt_unit_result,
    publish_table_stats,
    table_stats_state,
)

#: Line counts of the records that end a trace without a visit.
_MISS = -1
_FAULT = -2

#: Line count above which a step dedups its lines by sorting.
_SORT_DEDUP_LINES = 256

#: Rays per root-trace DFS (rounded up to whole source warps): enough to
#: amortize the kernels' per-call cost, few enough to bound their
#: temporaries.
_ROOT_CHUNK = 512

def _slab_exact(origins, inv_dirs, t_min, t_max, lo, hi):
    """Slab test with the scalar kernel's exact operation order.

    ``np.minimum``/``np.maximum`` propagate NaN; Python's swap-and-fold
    in :func:`~repro.geometry.intersect.ray_aabb_intersect` keeps the
    accumulator on NaN (comparisons are False).  Degenerate rays with
    ``0 * inf`` slab products therefore need this laddered form to stay
    bit-identical to the oracle.
    """
    with np.errstate(invalid="ignore"):
        t1 = (lo - origins) * inv_dirs
        t2 = (hi - origins) * inv_dirs
    swap = t1 > t2
    near = np.where(swap, t2, t1)
    far = np.where(swap, t1, t2)
    # t_near = max(nx, ny, nz, t_min) as a left fold, like Python's max().
    t_near = near[:, 0]
    for v in (near[:, 1], near[:, 2], t_min):
        t_near = np.where(v > t_near, v, t_near)
    t_far = far[:, 0]
    for v in (far[:, 1], far[:, 2], t_max):
        t_far = np.where(v < t_far, v, t_far)
    return t_near <= t_far, t_near


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index runs ``[starts[i], starts[i] + lengths[i])``."""
    offsets = np.cumsum(lengths) - lengths
    total = int(offsets[-1] + lengths[-1]) if len(lengths) else 0
    return np.arange(total) + np.repeat(starts - offsets, lengths)


class _VecState:
    """Per-ray thread state as struct-of-arrays planes, plus the records."""

    def __init__(self, rays: RayBatch) -> None:
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
        self.ray_hash = np.zeros(n, dtype=np.uint64)
        self.done, self.predicted, self.verified = np.zeros((3, n), dtype=bool)
        self.hit_tri = np.full(n, -1, dtype=np.int64)
        # The counters of the records each ray executes; `cur` is its next
        # record, `root` its root trace (built for rays [0, rooted)).
        (self.ready_time, self.node_fetches, self.tri_fetches, self.spills,
         self.cur, self.root, self.root_len) = np.zeros((7, n), dtype=np.int64)
        self.mis_node_fetches = self.mis_tri_fetches = self.guard_restarts = 0
        self.rooted = 0
        # Record planes (rec, cnt, lat as int32; hit), grown geometrically.
        cap = 24 * n + 64
        self.planes = [np.empty(cap, dtype=np.int32) for _ in range(3)]
        self.planes.append(np.empty(cap, dtype=bool))
        self.used = 0

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
    """A resident warp over SoA state: member ray IDs plus metadata."""

    members: np.ndarray
    age: int
    ready_time: int
    inflight: Dict[int, int] = field(default_factory=dict)
    #: Members not yet done, in member order.
    live: np.ndarray = field(init=False)

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
        self._v0, self._v1, self._v2 = (
            np.asarray(v, np.float64) for v in (bvh.mesh.v0, bvh.mesh.v1, bvh.mesh.v2)
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
        ])

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
        st = _VecState(rays)
        if self.predictor is not None:
            hashes = self.predictor.hash_batch(rays.origins, rays.directions)
            st.ray_hash = np.asarray(hashes, dtype=np.uint64)
        n = st.n
        warp_size = self.rt.warp_size
        chunk = -(-_ROOT_CHUNK // warp_size) * warp_size
        pending = [
            np.arange(i, min(i + warp_size, n), dtype=np.int64)
            for i in range(0, n, warp_size)
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
                members = np.asarray(ids, dtype=np.int64)
                launch(_VecWarp(members, next(counter), time + self.rt.queue_latency))

        def admit_source(time: int) -> None:
            nonlocal buffer_used, warps_executed, collector_last_push
            nonlocal predictor_lookups
            while pending and buffer_used + warp_size <= buffer_capacity:
                group = pending.pop()
                buffer_used += len(group)
                if group[-1] >= st.rooted:  # next chunk's root traces
                    rows = np.arange(st.rooted, min(n, st.rooted + chunk))
                    stack = np.zeros((len(rows), self._stack_depth), dtype=np.int64)
                    depth = np.ones(len(rows), dtype=np.int64)
                    self._trace(st, rows, stack, depth, speculative=False)
                    st.rooted += len(rows)
                ready = time + self.rt.queue_latency
                if use_predictor:
                    ready += self._predictor_stage(st, group)
                    predictor_lookups += len(group)
                    if repack:
                        pm = st.predicted[group]
                        predicted = group[pm]
                        group = group[~pm]
                        if len(predicted):
                            for ids in collector.push(predicted.tolist()):
                                collector_ready.append(ids)
                            collector_last_push = ready
                            dispatch_collector_ready(ready)
                        if not len(group):
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
            step = self._step_warp(st, warp, now)
            warp_steps += 1
            active_thread_steps += step.active_threads
            if lane_hist is not None:
                lane_hist.add(step.active_threads)
            predictor_updates += step.updates

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

            if step.finished:
                resident -= 1
                buffer_used -= len(warp.members)
                dispatch_collector_ready(step.end_time)
                admit_source(step.end_time)
            else:
                warp.ready_time = step.end_time
                heapq.heappush(heap, (step.end_time, warp.age, warp))

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
            predicted=int(st.predicted.sum()),
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

    # Predictor stage: per-ray lookups, then verification traces
    def _predictor_stage(self, st: _VecState, group: np.ndarray) -> int:
        assert self.predictor is not None
        config = self.predictor.config
        predict = self.predictor.predict
        found = [predict(h) or [] for h in st.ray_hash[group].tolist()]
        counts = np.array([len(f) for f in found], dtype=np.int64)
        nodes = np.zeros((len(group), max(1, int(counts.max()))), dtype=np.int64)
        for i, f in enumerate(found):
            nodes[i, : len(f)] = f
        hitm = counts > 0
        rows = group[hitm]
        if len(rows):
            c = counts[hitm]
            picked = nodes[hitm]
            st.predicted[rows] = True
            # Scalar layout: [SENTINEL] + reversed(nodes), so list slot j
            # lands at stack position c - j (position c pops first).
            width = int(c.max()) + 1 + self._stack_depth
            stack = np.zeros((len(rows), width), dtype=np.int64)
            stack[:, 0] = _RESTART_SENTINEL
            for j in range(picked.shape[1]):
                sel = c > j
                stack[sel, (c - j)[sel]] = picked[sel, j]
            self._trace(st, rows, stack, 1 + c, speculative=True)
        ports = max(1, config.ports)
        return (len(group) + ports - 1) // ports + config.lookup_latency

    # Trace: batched DFS in the scalar stepper's pop/push order
    def _trace(
        self, st: _VecState, rows: np.ndarray, stack: np.ndarray,
        depth: np.ndarray, speculative: bool,
    ) -> None:
        """Record the traces of ``rows`` from their ``stack`` planes.

        A trace ends in a hit, an empty stack (``_MISS``), an invalid pop
        after a restart (``_FAULT``) or - *linked* - a restart with
        nothing below it, whose root visit is the root trace's first.
        ``speculative`` traces verify until their first restart.  Each
        ray's records (plus a linked one's root trace) land contiguously
        at its cursor; its counters become those of the records it runs.
        """
        rt = self.rt
        bvh = self.bvh
        left = bvh.left
        num_nodes = self._num_nodes
        k = len(rows)
        origin, direction, inv, t_min, t_max = (
            plane[rows] for plane in
            (st.origin, st.direction, st.inv_direction, st.t_min, st.t_max)
        )
        length, node_fetches, tri_fetches, spills, ver_nodes, ver_tris = np.zeros(
            (6, k), dtype=np.int64
        )
        linked, restarted, verified = np.zeros((3, k), dtype=bool)
        hit_tri = np.full(k, -1, dtype=np.int64)
        out: List[List[np.ndarray]] = []  # [ray, rec, cnt, lat, hit]
        steps: List[int] = []

        def emit(j, rec, cnt, lat=0, hit=False):
            out.append(np.broadcast_arrays(j, rec, cnt, lat, hit))
            steps.append(it)

        act = np.arange(k)
        it = 0
        while len(act):
            dep = depth[act]
            empty = dep == 0
            if empty.any():
                emit(act[empty], 0, _MISS)
                length[act[empty]] = it + 1
                act, dep = act[~empty], dep[~empty]
                if not len(act):
                    break
            dep -= 1
            node = stack[act, dep]
            depth[act] = dep
            if node.min() < 0 or node.max() >= num_nodes:
                sent = node == _RESTART_SENTINEL
                bad = ~sent & ((node < 0) | (node >= num_nodes))
                fault = bad & restarted[act]
                # Every restart charges the verification fetches so far
                # as a misprediction; only the first ends verifying.
                charged = act[(sent | bad) & ~fault]
                st.mis_node_fetches += int(ver_nodes[charged].sum())
                st.mis_tri_fetches += int(ver_tris[charged].sum())
                st.guard_restarts += int((bad & ~fault).sum())
                restarted[charged] = True
                if fault.any():
                    emit(act[fault], node[fault], _FAULT)
                    length[act[fault]] = it + 1
                link = (sent & (dep == 0)) | (bad & ~fault)
                linked[act[link]] = True
                length[act[link]] = it
                keep = ~(link | fault)
                act, dep = act[keep], dep[keep]
                node = np.where(sent, 0, node)[keep]
                if not len(act):
                    break

            ver = ~restarted[act] if speculative else None
            is_leaf = left[node] < 0
            im = ~is_leaf
            rec = node.copy()
            cnt = np.ones(len(act), dtype=np.int64)
            lat = np.full(len(act), rt.box_test_latency + 1, dtype=np.int64)
            hit = np.zeros(len(act), dtype=bool)

            rows_i = act[im]
            if len(rows_i):
                nodes_i = node[im]
                node_fetches[rows_i] += 1
                if speculative:
                    ver_nodes[rows_i[ver[im]]] += 1
                child = left[nodes_i]
                other = bvh.right[nodes_i]
                # One merged slab call for both children: rows duplicated,
                # left boxes in the first half, right boxes in the second.
                rows2 = np.concatenate([rows_i, rows_i])
                nodes2 = np.concatenate([child, other])
                hit2, t2 = _slab_exact(
                    origin[rows2], inv[rows2], t_min[rows2], t_max[rows2],
                    bvh.lo[nodes2], bvh.hi[nodes2],
                )
                k_i = len(rows_i)
                hit_l, hit_r = hit2[:k_i], hit2[k_i:]
                near_first = t2[:k_i] <= t2[k_i:]
                n_push = hit_l.astype(np.int64) + hit_r
                first = np.where(hit_l & hit_r, np.where(near_first, other, child),
                                 np.where(hit_l, child, other))
                base = dep[im]
                one = n_push >= 1
                stack[rows_i[one], base[one]] = first[one]
                two = n_push == 2
                if two.any():
                    second = np.where(near_first, child, other)
                    stack[rows_i[two], base[two] + 1] = second[two]
                depth[rows_i] = base + n_push

            if is_leaf.any():
                rows_l = act[is_leaf]
                counts = bvh.tri_count[node[is_leaf]]
                starts = bvh.first_tri[node[is_leaf]]
                seg = np.repeat(np.arange(len(rows_l)), counts)
                tri_ids = _runs(starts, counts)
                pos = tri_ids - starts[seg]
                rseg = rows_l[seg]
                t = ray_triangle_intersect_batch(
                    origin[rseg], direction[rseg], t_min[rseg], t_max[rseg],
                    self._v0[tri_ids], self._v1[tri_ids], self._v2[tri_ids],
                )
                hitp = t < np.inf
                first_pos = counts.copy()  # no hit: every triangle tested
                if hitp.any():
                    np.minimum.at(first_pos, seg[hitp], pos[hitp])
                hit_any = first_pos < counts
                tests = np.where(hit_any, first_pos + 1, counts)
                tri_fetches[rows_l] += tests
                hit_tri[rows_l[hit_any]] = (starts + first_pos)[hit_any]
                if speculative:
                    vl = ver[is_leaf]
                    ver_tris[rows_l[vl]] += tests[vl]
                    verified[rows_l[hit_any & vl]] = True
                rec[is_leaf] = num_nodes + starts
                cnt[is_leaf] = tests
                lat[is_leaf] = rt.tri_test_latency + np.maximum(0, tests - 1)
                hit[is_leaf] = hit_any

            # The spill penalty applies to the post-push stack depth.
            spill = depth[act] > rt.stack_entries
            if spill.any():
                spills[act[spill]] += 1
                lat[spill] += rt.stack_spill_penalty
            emit(act, rec, cnt, lat, hit)
            if hit.any():
                length[act[hit]] = it + 1
                act = act[~hit]
            it += 1

        # Lay the records out per ray; a linked ray's root trace follows.
        tail = np.where(linked, st.root_len[rows], 0)
        total = length + tail
        start = st.reserve(int(total.sum())) + np.cumsum(total) - total
        planes = st.planes
        if out:
            pos = start[np.concatenate([o[0] for o in out])]
            pos += np.repeat(steps, [len(o[0]) for o in out])
            for i, plane in enumerate(planes):
                plane[pos] = np.concatenate([o[i + 1] for o in out])
        if linked.any():
            src = _runs(st.root[rows[linked]], tail[linked])
            dst = _runs((start + length)[linked], tail[linked])
            for plane in planes:
                plane[dst] = plane[src]
        st.cur[rows] = start
        if not speculative:
            st.root[rows] = start
            st.root_len[rows] = length
        st.hit_tri[rows] = np.where(linked, st.hit_tri[rows], hit_tri)
        st.verified[rows] = verified
        for plane, own in (
            (st.node_fetches, node_fetches), (st.tri_fetches, tri_fetches),
            (st.spills, spills),
        ):
            plane[rows] = own + np.where(linked, plane[rows], 0)

    # Replay: one warp iteration, vectorized across ready threads
    def _step_warp(self, st: _VecState, warp: _VecWarp, now: int) -> _StepOutcome:
        rt = self.rt
        rec_plane, cnt_plane, lat_plane, hit_plane = st.planes
        out = _StepOutcome(end_time=now, finished=False, active_threads=0)
        live = warp.live
        parts = live
        if not rt.warp_barrier:
            parts = live[st.ready_time[live] <= now + rt.coalesce_window]
        cur = st.cur[parts]
        cnt = cnt_plane[cur]
        if len(cnt) and cnt.min() < 0:
            ended = cnt < 0
            rows = parts[ended]
            fault = cnt[ended] == _FAULT
            if fault.any():
                bad = int(rec_plane[cur[ended][fault][0]])
                raise TraversalError(
                    f"ray {int(rows[fault][0])} popped invalid node {bad} "
                    "after a guard restart (corrupted traversal state)",
                    bad_nodes=[bad],
                    num_nodes=self._num_nodes,
                )
            # Drained stacks retire as scene misses (hit_tri stays -1).
            self._retire_rows(st, rows, out)
            parts, cur, cnt = parts[~ended], cur[~ended], cnt[~ended]
        k = out.active_threads = len(parts)
        if k:
            st.cur[parts] = cur + 1
            ends = np.cumsum(cnt)
            offsets = ends - cnt
            lines = self._lines[
                np.arange(ends[-1]) + np.repeat(rec_plane[cur] - offsets, cnt)
            ]
            # Unique lines go out in first-occurrence order (member order,
            # each visit's lines in order).  Sorting dedups wide steps
            # faster than a dict, which wins below a few hundred lines.
            inverse = None
            if len(lines) > _SORT_DEDUP_LINES:
                uniq, first, inverse = np.unique(
                    lines, return_index=True, return_inverse=True
                )
                keys = uniq.tolist()
                order = [keys[j] for j in np.argsort(first).tolist()]
            else:
                keys = lines.tolist()
                order = dict.fromkeys(keys)
            start = self.memory.acquire_scheduler_slot(now)
            access_line = self.memory.access_line_time
            inflight = warp.inflight
            ready: Dict[int, int] = {}
            for line in order:
                # A line still in flight for this warp merges for free.
                pending = inflight.get(line)
                if pending is not None and pending >= start:
                    ready[line] = pending
                    continue
                ready[line] = inflight[line] = access_line(line, start)
                if len(inflight) > 4 * rt.warp_size:
                    inflight = warp.inflight = {
                        ln: tm for ln, tm in inflight.items() if tm >= start
                    }
            line_ready = np.fromiter(map(ready.get, keys), np.int64, len(keys))
            if inverse is not None:
                line_ready = line_ready[inverse]
            # A thread's data is ready at its last line's return; an empty
            # leaf requests no lines and waits for `start + 1`.
            if cnt.all():
                data_ready = np.maximum.reduceat(line_ready, offsets)
            else:
                data_ready = np.full(k, start + 1, dtype=np.int64)
                has = cnt > 0
                if has.any():
                    data_ready[has] = np.maximum.reduceat(line_ready, offsets[has])
            residual = np.maximum(0, st.ready_time[parts] - now)
            st.ready_time[parts] = (
                np.maximum(data_ready, start + residual) + lat_plane[cur]
            )
            # Retire freshly-hit threads in member order (train order must
            # match the scalar engine's predictor-stamp sequence).
            hit = hit_plane[cur]
            if hit.any():
                self._retire_rows(st, parts[hit], out)
        if out.retired:
            live = warp.live = live[~st.done[live]]

        if not len(live):
            out.finished = True
            last = int(st.ready_time[warp.members].max()) if k else 0
            out.end_time = max(now + 1, last)
        else:
            rem = st.ready_time[live]
            pick = int(rem.max() if k and rt.warp_barrier else rem.min())
            out.end_time = max(now + 1, pick)
        return out

    def _retire_rows(self, st: _VecState, rows: np.ndarray, out: _StepOutcome) -> None:
        """Retire ``rows``; train/confirm in member order (scalar parity)."""
        st.done[rows] = True
        out.retired += len(rows)
        predictor = self.predictor
        for r in rows.tolist():
            tri = int(st.hit_tri[r])
            if tri >= 0 and predictor is not None:
                h = int(st.ray_hash[r])
                predictor.train(h, tri)
                out.updates += 1
                if st.verified[r]:
                    predictor.confirm(h, predictor.trained_node_for(tri))


__all__ = ["VectorRTUnit"]
