"""Tournament hashing - the Section 4.2 future-work extension.

The paper leaves "combining multiple hash functions" to future work.
This module implements the natural design, borrowed from tournament
branch predictors: run a Grid Spherical table and a Two Point table side
by side (each at half capacity, so storage stays comparable to the
baseline predictor) plus a small chooser table of saturating counters
that learns, per ray-hash region, which component's predictions verify.

:class:`TournamentPredictor` exposes the same surface as
:class:`~repro.core.predictor.RayPredictor` (``hash_batch`` /
``predict`` / ``confirm`` / ``train`` / ``config``), so both the
functional simulator and the RT-unit timing model accept it unchanged -
the two component hashes are packed into one opaque integer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.core.hashing import GridSphericalHash, TwoPointHash, fold_hash
from repro.core.predictor import GuardStats, PredictorConfig
from repro.core.table import PredictorTable

#: Bits reserved for each packed component hash.
_PACK_BITS = 24
_PACK_MASK = (1 << _PACK_BITS) - 1
#: Saturating-counter range of the chooser (2-bit, like gshare choosers).
_COUNTER_MAX = 3


class TournamentPredictor:
    """Two component predictors and a chooser, one opaque interface."""

    def __init__(
        self,
        bvh: FlatBVH,
        config: Optional[PredictorConfig] = None,
        chooser_bits: int = 8,
    ) -> None:
        self.bvh = bvh
        self.config = config or PredictorConfig()
        if self.config.num_entries < 2:
            raise ValueError("tournament predictor needs at least 2 entries")
        aabb = bvh.root_aabb()
        self.hasher_a = GridSphericalHash(
            aabb, self.config.origin_bits, self.config.direction_bits
        )
        self.hasher_b = TwoPointHash(
            aabb, self.config.origin_bits, self.config.length_ratio
        )
        half = max(self.config.ways, self.config.num_entries // 2)
        self.table_a = PredictorTable(
            num_entries=half,
            ways=self.config.ways,
            nodes_per_entry=self.config.nodes_per_entry,
            hash_bits=self.config.hash_bits,
            node_policy=self.config.node_policy,
        )
        self.table_b = PredictorTable(
            num_entries=half,
            ways=self.config.ways,
            nodes_per_entry=self.config.nodes_per_entry,
            hash_bits=self.config.hash_bits,
            node_policy=self.config.node_policy,
        )
        self.chooser_bits = chooser_bits
        # Counter > midpoint: prefer component A; < midpoint: prefer B.
        self._chooser = np.full(1 << chooser_bits, _COUNTER_MAX // 2, dtype=np.int8)
        self.guards = GuardStats()
        # Each triangle's Go Up Level node as one int64 array; a memoryview
        # read yields a plain int, as in RayPredictor._bind.
        self._num_nodes = bvh.num_nodes
        self._num_triangles = bvh.num_triangles
        trained = bvh.ancestors(self.config.go_up_level)[bvh.leaf_of_triangle()]
        self._trained_nodes = memoryview(trained)

    # ------------------------------------------------------------------
    # Hashing: both component hashes packed into one opaque value.
    # ------------------------------------------------------------------
    def hash_ray(self, origin: Sequence[float], direction: Sequence[float]) -> int:
        """Pack both component hashes into one opaque value."""
        a = self.hasher_a.hash_ray(origin, direction)
        b = self.hasher_b.hash_ray(origin, direction)
        return (a << _PACK_BITS) | b

    def hash_batch(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Vectorized packed hashing of a ray batch."""
        a = self.hasher_a.hash_batch(origins, directions)
        b = self.hasher_b.hash_batch(origins, directions)
        return (a << np.uint64(_PACK_BITS)) | b

    @staticmethod
    def _unpack(ray_hash: int) -> tuple:
        return ray_hash >> _PACK_BITS, ray_hash & _PACK_MASK

    def _chooser_index(self, hash_a: int) -> int:
        return fold_hash(hash_a, self.config.hash_bits, self.chooser_bits)

    # ------------------------------------------------------------------
    # Predictor interface
    # ------------------------------------------------------------------
    def predict(self, ray_hash: int) -> Optional[List[int]]:
        """Look both tables up; return the chooser-preferred prediction.

        The chosen nodes pass the same range guard as
        :meth:`RayPredictor.predict` (:meth:`GuardStats.screen`).
        """
        hash_a, hash_b = self._unpack(ray_hash)
        nodes_a = self.table_a.lookup(hash_a)
        nodes_b = self.table_b.lookup(hash_b)
        if nodes_a is None:
            nodes = nodes_b
        elif nodes_b is None:
            nodes = nodes_a
        elif self._chooser[self._chooser_index(hash_a)] > _COUNTER_MAX // 2:
            nodes = nodes_a
        else:
            nodes = nodes_b
        return self.guards.screen(nodes, self._num_nodes)

    def confirm(self, ray_hash: int, node: int) -> None:
        """Credit the component whose table held the verifying node."""
        hash_a, hash_b = self._unpack(ray_hash)
        index = self._chooser_index(hash_a)
        in_a = node in (self.table_a.peek(hash_a) or [])
        in_b = node in (self.table_b.peek(hash_b) or [])
        if in_a and not in_b:
            self._chooser[index] = min(_COUNTER_MAX, self._chooser[index] + 1)
        elif in_b and not in_a:
            self._chooser[index] = max(0, self._chooser[index] - 1)
        if in_a:
            self.table_a.confirm(hash_a, node)
        if in_b:
            self.table_b.confirm(hash_b, node)

    def train(self, ray_hash: int, hit_tri: int) -> int:
        """Insert the Go Up Level ancestor into both component tables.

        Returns the stored node, or ``-1`` (neither table touched, counted
        in :attr:`guards`) for an out-of-range ``hit_tri``, as
        :meth:`RayPredictor.train` does.
        """
        node = self.trained_node_for(hit_tri)
        if node < 0:
            self.guards.invalid_training_dropped += 1
            return -1
        hash_a, hash_b = self._unpack(ray_hash)
        self.table_a.update(hash_a, node)
        self.table_b.update(hash_b, node)
        return node

    def trained_node_for(self, hit_tri: int) -> int:
        """The node training on ``hit_tri`` would store (``-1`` if out of range)."""
        if not 0 <= hit_tri < self._num_triangles:
            return -1
        return self._trained_nodes[hit_tri]

    def reset(self) -> None:
        """Clear both tables and the chooser (new frame)."""
        self.table_a.clear()
        self.table_b.clear()
        self._chooser[:] = _COUNTER_MAX // 2

    def size_kib(self) -> float:
        """Total storage: both tables plus the 2-bit chooser counters."""
        chooser_bits = 2 * (1 << self.chooser_bits)
        return (
            self.table_a.size_bits() + self.table_b.size_bits() + chooser_bits
        ) / 8.0 / 1024.0
