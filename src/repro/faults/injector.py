"""Deterministic fault injection for the predictor pipeline.

The injector models three corruption surfaces:

* **Predictor table** (:meth:`FaultInjector.corrupt_table_once`) - the
  table SRAM flips a bit, holds a stale node after a rebuild, or aliases
  a different ray hash.  These are exactly the faults the speculation
  guards must absorb: the paper's verify-then-fallback flow makes any
  *in-range* wrong node merely slow, and the predictor's range guard
  turns out-of-range nodes into "no prediction".
* **Ray batches** (:meth:`FaultInjector.perturb_rays`) - NaN/inf
  origins, NaN or zero-length directions: malformed workload input that
  the :func:`repro.geometry.ray.validate_ray_batch` boundary must
  filter before traversal.
* **Geometry** (:meth:`FaultInjector.degrade_mesh`) - zero-area
  triangles and duplicated vertices, the classic OBJ-export defects a
  builder and traverser must tolerate.

Everything is driven by seeded :class:`numpy.random.Generator` streams
(no legacy ``numpy.random.*`` global state anywhere) and logged as
:class:`InjectionRecord` entries, so any failing schedule replays
exactly from ``FaultConfig(seed=...)``.  Each corruption surface draws
from its own child stream spawned from one ``SeedSequence``, so the
table schedule does not shift when ray or geometry injection also runs
- fault sequences are reproducible across processes, surface mixes,
and numpy versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.predictor import RayPredictor
from repro.core.table import NODE_INDEX_BITS, PredictorTable
from repro.errors import InputValidationError
from repro.geometry.ray import RayBatch
from repro.geometry.triangle import TriangleMesh

#: Table-entry fault modes.
FAULT_KINDS: Tuple[str, ...] = (
    "out_of_range",  # node id beyond the BVH (stale after a rebuild)
    "negative",      # sign corruption - would wrap Python list indexing
    "bitflip",       # single bit flip in the stored node id
    "stale",         # a different, valid node id (plausible but wrong)
    "alias_tag",     # tag corruption: entry answers for another ray hash
)

#: Ray-batch fault modes.
RAY_FAULT_KINDS: Tuple[str, ...] = (
    "nan_origin",
    "inf_origin",
    "nan_direction",
    "zero_direction",
)

#: Geometry fault modes.
GEOMETRY_FAULT_KINDS: Tuple[str, ...] = (
    "zero_area",          # all three vertices collapsed to one point
    "duplicate_vertex",   # two corners share one vertex (degenerate edge)
)


@dataclass(frozen=True)
class FaultConfig:
    """Settings for one injection campaign.

    Attributes:
        seed: seeds the injector's private RNG; two injectors with equal
            configs produce identical schedules.
        table_rate: per-lookup probability that one occupied table entry
            is corrupted just before the lookup proceeds.
        table_kinds: table fault modes to draw from (uniformly).
        ray_rate: fraction of rays perturbed by :meth:`perturb_rays`.
        ray_kinds: ray fault modes to draw from.
        geometry_rate: fraction of triangles degraded by
            :meth:`degrade_mesh`.
        geometry_kinds: geometry fault modes to draw from.
    """

    seed: int = 0
    table_rate: float = 0.1
    table_kinds: Tuple[str, ...] = FAULT_KINDS
    ray_rate: float = 0.05
    ray_kinds: Tuple[str, ...] = RAY_FAULT_KINDS
    geometry_rate: float = 0.02
    geometry_kinds: Tuple[str, ...] = GEOMETRY_FAULT_KINDS

    def __post_init__(self) -> None:
        for rate, name in (
            (self.table_rate, "table_rate"),
            (self.ray_rate, "ray_rate"),
            (self.geometry_rate, "geometry_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise InputValidationError(f"{name} must be in [0, 1], got {rate}")
        for kinds, valid, name in (
            (self.table_kinds, FAULT_KINDS, "table_kinds"),
            (self.ray_kinds, RAY_FAULT_KINDS, "ray_kinds"),
            (self.geometry_kinds, GEOMETRY_FAULT_KINDS, "geometry_kinds"),
        ):
            unknown = [k for k in kinds if k not in valid]
            if unknown:
                raise InputValidationError(f"unknown {name}: {unknown}")
            if not kinds:
                raise InputValidationError(f"{name} must not be empty")


@dataclass(frozen=True)
class InjectionRecord:
    """One injected fault, logged for reproducibility.

    Attributes:
        op: monotone sequence number within the injector.
        surface: ``"table"``, ``"rays"`` or ``"geometry"``.
        kind: the fault mode applied.
        location: where it landed (set/way/slot, ray index, triangle).
        before / after: the corrupted value's old and new state.
    """

    op: int
    surface: str
    kind: str
    location: str
    before: object
    after: object


class FaultInjector:
    """Seeded fault source with a complete injection log.

    RNG discipline: one :class:`numpy.random.SeedSequence` per injector,
    spawned into an independent :class:`numpy.random.Generator` child
    stream per corruption surface.  Kind selection draws *indices*
    (``Generator.integers``) rather than ``Generator.choice`` over
    string arrays, keeping schedules byte-stable across numpy versions.
    """

    #: Child-stream order (``SeedSequence.spawn`` is order-sensitive;
    #: this tuple pins it).
    _SURFACES = ("table", "rays", "geometry")

    def __init__(self, config: Optional[FaultConfig] = None, num_nodes: int = 0) -> None:
        self.config = config or FaultConfig()
        self.num_nodes = num_nodes
        children = np.random.SeedSequence(self.config.seed).spawn(
            len(self._SURFACES)
        )
        self._streams: Dict[str, np.random.Generator] = {
            surface: np.random.default_rng(child)
            for surface, child in zip(self._SURFACES, children)
        }
        # The table stream doubles as the injector's primary generator
        # (kept as ``rng`` for back-compat with earlier callers).
        self.rng = self._streams["table"]
        self.log: List[InjectionRecord] = []

    @staticmethod
    def _pick(rng: np.random.Generator, kinds: Tuple[str, ...]) -> str:
        """Uniform kind draw by index (version-stable, pure Generator)."""
        return kinds[int(rng.integers(len(kinds)))]

    # ------------------------------------------------------------------
    def _record(self, surface: str, kind: str, location: str, before, after) -> InjectionRecord:
        rec = InjectionRecord(
            op=len(self.log), surface=surface, kind=kind,
            location=location, before=before, after=after,
        )
        self.log.append(rec)
        return rec

    # ------------------------------------------------------------------
    # Predictor-table faults
    # ------------------------------------------------------------------
    def maybe_corrupt_table(self, table: PredictorTable) -> Optional[InjectionRecord]:
        """With probability ``table_rate``, corrupt one occupied entry."""
        if self.config.table_rate <= 0.0:
            return None
        if self.rng.random() >= self.config.table_rate:
            return None
        return self.corrupt_table_once(table)

    def corrupt_table_once(self, table: PredictorTable) -> Optional[InjectionRecord]:
        """Corrupt one randomly chosen occupied entry (no-op when empty)."""
        slots = table.occupied_slots()
        if not slots:
            return None
        set_index, way = slots[int(self.rng.integers(len(slots)))]
        kind = self._pick(self.rng, self.config.table_kinds)
        location = f"set {set_index} way {way}"

        if kind == "alias_tag":
            old = table.entry_tag(set_index, way)
            new = int(self.rng.integers(1 << table.hash_bits))
            table.corrupt_tag(set_index, way, new)
            return self._record("table", kind, location, old, new)

        nodes = table.entry_nodes(set_index, way)
        if not nodes:
            return None
        slot = int(self.rng.integers(len(nodes)))
        old = int(nodes[slot])
        if kind == "out_of_range":
            new = self.num_nodes + int(self.rng.integers(1, 1 << 16))
        elif kind == "negative":
            new = -int(self.rng.integers(1, 1 << 16))
        elif kind == "bitflip":
            new = old ^ (1 << int(self.rng.integers(NODE_INDEX_BITS)))
        elif kind == "stale":
            new = int(self.rng.integers(max(1, self.num_nodes)))
        else:  # pragma: no cover - guarded by FaultConfig validation
            raise InputValidationError(f"unknown table fault kind {kind!r}")
        table.corrupt_node(set_index, way, slot, new)
        return self._record("table", kind, f"{location} slot {slot}", old, new)

    # ------------------------------------------------------------------
    # Ray-batch faults
    # ------------------------------------------------------------------
    def perturb_rays(self, rays: RayBatch) -> RayBatch:
        """Return a copy of ``rays`` with ``ray_rate`` of them malformed."""
        rng = self._streams["rays"]
        origins = rays.origins.copy()
        directions = rays.directions.copy()
        n = len(rays)
        picked = np.nonzero(rng.random(n) < self.config.ray_rate)[0]
        for i in picked:
            kind = self._pick(rng, self.config.ray_kinds)
            axis = int(rng.integers(3))
            if kind == "nan_origin":
                before = float(origins[i, axis])
                origins[i, axis] = np.nan
            elif kind == "inf_origin":
                before = float(origins[i, axis])
                origins[i, axis] = np.inf
            elif kind == "nan_direction":
                before = float(directions[i, axis])
                directions[i, axis] = np.nan
            else:  # zero_direction
                before = tuple(directions[i])
                directions[i] = 0.0
            self._record("rays", kind, f"ray {int(i)}", before, kind)
        return RayBatch(origins, directions, rays.t_min.copy(), rays.t_max.copy())

    # ------------------------------------------------------------------
    # Geometry faults
    # ------------------------------------------------------------------
    def degrade_mesh(self, mesh: TriangleMesh) -> TriangleMesh:
        """Return a copy of ``mesh`` with ``geometry_rate`` bad triangles."""
        rng = self._streams["geometry"]
        v0 = mesh.v0.copy()
        v1 = mesh.v1.copy()
        v2 = mesh.v2.copy()
        n = len(mesh)
        picked = np.nonzero(rng.random(n) < self.config.geometry_rate)[0]
        for i in picked:
            kind = self._pick(rng, self.config.geometry_kinds)
            if kind == "zero_area":
                v1[i] = v0[i]
                v2[i] = v0[i]
            else:  # duplicate_vertex
                v2[i] = v1[i]
            self._record("geometry", kind, f"triangle {int(i)}", None, kind)
        return TriangleMesh(v0, v1, v2)


class FaultyPredictor:
    """A :class:`RayPredictor` proxy that injects table faults on lookup.

    Before every ``predict`` call the injector may (per its
    ``table_rate``) corrupt one occupied table entry - modeling SRAM
    corruption racing real lookups.  All other attribute access is
    delegated to the wrapped predictor, so the proxy drops into
    :func:`repro.core.simulate.simulate_predictor` (via its
    ``predictor=`` argument) and :class:`~repro.gpu.VectorRTUnit`
    unchanged: each probes the table once per ray through ``predict``.
    """

    def __init__(self, predictor: RayPredictor, injector: FaultInjector) -> None:
        self.inner = predictor
        self.injector = injector
        if injector.num_nodes == 0:
            injector.num_nodes = predictor.bvh.num_nodes

    def predict(self, ray_hash: int):
        """Corrupt (maybe), then delegate the guarded lookup."""
        self.injector.maybe_corrupt_table(self.inner.table)
        return self.inner.predict(ray_hash)

    def predict_raw(self, ray_hash: int):
        """Corrupt (maybe), then look up *without* the range guard.

        Exposes what an unguarded pipeline would consume; used by tests
        that exercise the downstream traversal guard directly.
        """
        self.injector.maybe_corrupt_table(self.inner.table)
        return self.inner.table.lookup(ray_hash)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
