"""The ray intersection predictor (Sections 3-4).

:class:`RayPredictor` glues together a hash function, the predictor
table, and Go Up Level training:

* ``predict(ray)`` hashes the ray and looks the table up, returning the
  predicted node(s) to verify (or ``None``);
* ``train(ray, hit_tri)`` computes the Go Up Level ancestor of the leaf
  containing the intersected triangle and inserts it into the table.

The predictor is deliberately timing-free; the functional concurrency
model lives in :mod:`repro.core.simulate` and the full port/latency model
in :mod:`repro.gpu`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.core.hashing import RayHasher, make_hasher
from repro.core.table import PredictorTable


@dataclass
class GuardStats:
    """Counters for the predictor's speculation-safety guards.

    The guards enforce the paper's safety contract (Section 3): a
    prediction - even one corrupted in the table SRAM - may only cost
    cycles, never change traversal correctness.  Invalid predicted node
    indices degrade to "no prediction"; invalid training requests are
    dropped.  Counters make the degradation observable.
    """

    invalid_nodes_dropped: int = 0
    predictions_rejected: int = 0
    invalid_training_dropped: int = 0

    def screen(self, nodes: Optional[List[int]], num_nodes: int) -> Optional[List[int]]:
        """The in-range nodes of a looked-up prediction, or ``None``.

        Nodes outside ``[0, num_nodes)`` are dropped and counted; a
        prediction with no valid node left is rejected (counted) and
        degrades to ``None``, as does an empty one.
        """
        if not nodes:
            return None
        valid = [n for n in nodes if 0 <= n < num_nodes]
        dropped = len(nodes) - len(valid)
        if dropped:
            self.invalid_nodes_dropped += dropped
        if not valid:
            self.predictions_rejected += 1
            return None
        return valid

    @property
    def total_guard_events(self) -> int:
        """All guard interventions (for quick 'anything odd?' checks)."""
        return (
            self.invalid_nodes_dropped
            + self.predictions_rejected
            + self.invalid_training_dropped
        )


@dataclass(frozen=True)
class PredictorConfig:
    """Predictor settings; defaults reproduce Table 3.

    Attributes:
        num_entries: total predictor entries (1024).
        ways: set associativity (4); 1 means direct-mapped (tags kept).
        nodes_per_entry: predicted-node slots per entry (1).
        hash_function: ``"grid_spherical"`` or ``"two_point"``.
        origin_bits: Grid Hash bits per origin axis (5).
        direction_bits: spherical-direction bits (3; Grid Spherical only).
        length_ratio: estimated length ratio (Two Point only).
        node_policy: node replacement policy (``"lru"``/``"lfu"``/``"lru-k"``).
        go_up_level: ancestor level stored on training (3).
        ports: predictor access ports (4 accesses/cycle; timing model).
        lookup_latency: table access latency in cycles (timing model).
        repack: enable warp repacking after prediction (Section 4.4).
        extra_warps: additional warps admitted after repacking (4.4.2).
    """

    num_entries: int = 1024
    ways: int = 4
    nodes_per_entry: int = 1
    hash_function: str = "grid_spherical"
    origin_bits: int = 5
    direction_bits: int = 3
    length_ratio: float = 0.15
    node_policy: str = "lru"
    go_up_level: int = 3
    ports: int = 4
    lookup_latency: int = 1
    repack: bool = True
    extra_warps: int = 0

    def __post_init__(self) -> None:
        # The RT unit divides each lookup group by ``ports``, adds
        # ``lookup_latency`` to it and sizes its ray buffer with
        # ``extra_warps``.
        least_values = (("ports", 1), ("lookup_latency", 0), ("extra_warps", 0))
        for name, least in least_values:
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")

    @property
    def hash_bits(self) -> int:
        """Width of the ray hash / tag (3 bits per origin axis)."""
        return 3 * self.origin_bits

    def with_overrides(self, **kwargs) -> "PredictorConfig":
        """Copy with selected fields replaced (sweep helper)."""
        return replace(self, **kwargs)


class RayPredictor:
    """A per-SM ray intersection predictor bound to one BVH.

    The tree-dependent values a probe reads are fixed when the predictor
    is built: the node and triangle counts as ints, and every triangle's
    Go Up Level node (``ancestors[leaf_of_triangle]``) as one int64
    array read through a memoryview.  :meth:`rebind` refreshes all
    three; the table keeps its entries.
    """

    def __init__(self, bvh: FlatBVH, config: Optional[PredictorConfig] = None) -> None:
        self.config = config or PredictorConfig()
        self.hasher: RayHasher = make_hasher(
            self.config.hash_function,
            bvh.root_aabb(),
            origin_bits=self.config.origin_bits,
            direction_bits=self.config.direction_bits,
            length_ratio=self.config.length_ratio,
        )
        self.table = PredictorTable(
            num_entries=self.config.num_entries,
            ways=self.config.ways,
            nodes_per_entry=self.config.nodes_per_entry,
            hash_bits=self.config.hash_bits,
            node_policy=self.config.node_policy,
        )
        self.guards = GuardStats()
        self._bind(bvh)

    def _bind(self, bvh: FlatBVH) -> None:
        """Read the probe-time values of ``bvh``."""
        self.bvh = bvh
        self._num_nodes = bvh.num_nodes
        self._num_triangles = bvh.num_triangles
        # Ancestor links are precomputed at BVH build time in hardware
        # (stored in node padding, Figure 8); fetching them is free.  An
        # array, not a list: it stays 8 bytes per triangle on deep trees.
        trained = bvh.ancestors(self.config.go_up_level)[bvh.leaf_of_triangle()]
        self._trained_nodes = memoryview(trained)

    # ------------------------------------------------------------------
    def hash_ray(self, origin: Sequence[float], direction: Sequence[float]) -> int:
        """Hash one ray with the configured scheme."""
        return self.hasher.hash_ray(origin, direction)

    def hash_batch(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Hash a whole batch (vectorized)."""
        return self.hasher.hash_batch(origins, directions)

    def predict(self, ray_hash: int) -> Optional[List[int]]:
        """Table lookup; returns predicted node indices or ``None``.

        Speculation-safety guard: every returned node index is
        range-checked against the bound BVH.  An out-of-range index
        (stale entry after a rebuild, bit-flipped SRAM, injected fault)
        is dropped; if nothing valid remains the lookup degrades to "no
        prediction" so the caller falls back to a full traversal.  The
        guard never raises - a wrong prediction must only cost cycles.
        """
        return self.guards.screen(self.table.lookup(ray_hash), self._num_nodes)

    def confirm(self, ray_hash: int, node: int) -> None:
        """Tell the table which predicted node verified (policy feedback)."""
        self.table.confirm(ray_hash, node)

    def train(self, ray_hash: int, hit_tri: int) -> int:
        """Insert the traversal result for a ray that hit triangle ``hit_tri``.

        Returns the node actually stored (the Go Up Level ancestor of the
        leaf containing the triangle), or ``-1`` if ``hit_tri`` is out of
        range - an invalid training request is dropped (and counted)
        rather than corrupting the table or raising from deep inside a
        simulation loop.
        """
        if not 0 <= hit_tri < self._num_triangles:
            self.guards.invalid_training_dropped += 1
            return -1
        node = self._trained_nodes[hit_tri]
        self.table.update(ray_hash, node)
        return node

    def trained_node_for(self, hit_tri: int) -> int:
        """The node that training on ``hit_tri`` would store (no insert).

        Returns ``-1`` for an out-of-range triangle index (same guard as
        :meth:`train`).
        """
        if not 0 <= hit_tri < self._num_triangles:
            return -1
        return self._trained_nodes[hit_tri]

    def reset(self) -> None:
        """Clear the table (new frame)."""
        self.table.clear()

    def rebind(self, bvh: FlatBVH) -> None:
        """Point the predictor at a refitted tree, keeping the table.

        Inter-frame persistence (the paper's conclusion): when geometry
        moves but the tree is *refitted* (topology preserved), stored
        node indices remain valid, so a warm table can carry over to the
        next frame.  The hash keeps the original scene bounds so ray
        hashes stay comparable across frames.  The node count, the
        triangle count and the per-triangle Go Up Level nodes are read
        again from ``bvh``.

        Raises:
            ValueError: if ``bvh`` has a different topology.
        """
        if bvh.num_nodes != self._num_nodes or bvh.num_triangles != self._num_triangles:
            raise ValueError("rebind requires an identically-shaped (refitted) BVH")
        self._bind(bvh)
