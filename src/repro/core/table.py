"""The per-SM predictor table (Section 4.1, Figure 5).

A set-associative table of predictor entries.  Each entry holds a valid
bit, a ray-hash tag, and one or more predicted-node slots (27-bit BVH
node indices in hardware).  The ray hash indexes the table (folded to
the index width) and the full hash is compared against the stored tags;
entry replacement within a set is LRU, node replacement within an entry
is pluggable (Section 6.1.3).

At the paper's best configuration - 1024 entries, 4-way, 1 node/entry,
15-bit tags - the table costs 1024 * (1 + 15 + 27) bits = 5.5 KB per SM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import telemetry
from repro.core.policies import NodeReplacementPolicy, node_policy_factory

#: Bits per stored node index (2^27 nodes = at least 67M triangles).
NODE_INDEX_BITS = 27
#: The valid bit per entry.
VALID_BITS = 1


@dataclass
class TableStats:
    """Counters for predictor-table traffic."""

    lookups: int = 0
    hits: int = 0
    updates: int = 0
    entry_evictions: int = 0
    node_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched an entry (the predicted rate)."""
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    """One predictor entry: tag + node slots managed by a policy."""

    __slots__ = ("tag", "policy")

    def __init__(self, tag: int, policy: NodeReplacementPolicy) -> None:
        self.tag = tag
        self.policy = policy


class PredictorTable:
    """Set-associative table mapping ray hashes to predicted BVH nodes.

    Everything a probe needs besides the ray hash is computed here, once:
    the tag mask, the set-index mask, the fold shifts (the set index is
    :func:`~repro.core.hashing.fold_hash` of the tag to ``index_bits``)
    and the node-policy factory.  None of them depends on a tree, so
    :meth:`RayPredictor.rebind <repro.core.predictor.RayPredictor.rebind>`
    refreshes nothing here: entries, LRU order and statistics carry over
    to the refitted tree.
    """

    def __init__(
        self,
        num_entries: int = 1024,
        ways: int = 4,
        nodes_per_entry: int = 1,
        hash_bits: int = 15,
        node_policy: str = "lru",
        node_policy_kwargs: Optional[dict] = None,
    ) -> None:
        if num_entries < 1 or ways < 1:
            raise ValueError("num_entries and ways must be >= 1")
        if num_entries % ways != 0:
            raise ValueError("num_entries must be divisible by ways")
        num_sets = num_entries // ways
        if num_sets & (num_sets - 1):
            raise ValueError("num_entries / ways must be a power of two")
        self.num_entries = num_entries
        self.ways = ways
        self.nodes_per_entry = nodes_per_entry
        self.hash_bits = hash_bits
        self.num_sets = num_sets
        self.index_bits = num_sets.bit_length() - 1
        self.node_policy = node_policy
        self._node_policy_kwargs = dict(node_policy_kwargs or {})
        self._new_policy = node_policy_factory(
            node_policy, nodes_per_entry, **self._node_policy_kwargs
        )
        # Entries build their policies on allocation; reject a bad
        # capacity or kwargs now rather than at the first update.
        self._new_policy()
        self._tag_mask = (1 << hash_bits) - 1
        self._index_mask = num_sets - 1
        # The set index XORs the tag's index_bits-wide chunks, as
        # hashing.fold_hash does; chunk k starts at bit k * index_bits.
        # One set needs no fold: its index mask is 0.
        self._fold_shifts = (
            tuple(range(self.index_bits, hash_bits, self.index_bits))
            if self.index_bits else ()
        )
        # Each set is an LRU-ordered list of entries (front = LRU victim).
        self._sets: List[List[_Entry]] = [[] for _ in range(num_sets)]
        self.stats = TableStats()
        # Tag-alias introspection (docs/OBSERVABILITY.md): a lookup whose
        # set holds more than one entry with the probed tag - impossible
        # in normal operation, observable after ``corrupt_tag`` fault
        # injection.  Enablement is sampled at construction so the
        # disabled lookup path pays a single attribute check.
        self._telemetry = telemetry.enabled()
        self.tag_alias_probes = 0

    # ------------------------------------------------------------------
    def _index_and_tag(self, ray_hash: int) -> tuple[int, int]:
        """Fold the hash to a set index; the tag is the full-width hash.

        The probes below inline this fold.
        """
        tag = ray_hash & self._tag_mask
        index = tag
        for shift in self._fold_shifts:
            index ^= tag >> shift
        return index & self._index_mask, tag

    def _match(self, ray_hash: int) -> Optional[_Entry]:
        """The entry nearest the LRU end whose tag matches, if any."""
        index, tag = self._index_and_tag(ray_hash)
        for entry in self._sets[index]:
            if entry.tag == tag:
                return entry
        return None

    # ------------------------------------------------------------------
    def lookup(self, ray_hash: int) -> Optional[List[int]]:
        """Look a ray hash up; returns the predicted nodes or ``None``.

        A hit refreshes the entry's LRU position (the entry was useful
        enough to consult; whether it verifies is reported separately via
        :meth:`confirm`).  If tags alias after ``corrupt_tag``, the
        matching entry nearest the LRU end answers.
        """
        self.stats.lookups += 1
        tag = ray_hash & self._tag_mask
        index = tag
        for shift in self._fold_shifts:
            index ^= tag >> shift
        bucket = self._sets[index & self._index_mask]
        if self._telemetry:
            telemetry.record_hook_activation()
            if sum(1 for e in bucket if e.tag == tag) > 1:
                self.tag_alias_probes += 1
        for entry in bucket:
            if entry.tag == tag:
                self.stats.hits += 1
                bucket.remove(entry)
                bucket.append(entry)
                return entry.policy.nodes
        return None

    def peek(self, ray_hash: int) -> Optional[List[int]]:
        """Probe without touching LRU state or statistics."""
        entry = self._match(ray_hash)
        return entry.policy.nodes if entry is not None else None

    def confirm(self, ray_hash: int, node: int) -> None:
        """Record that ``node`` from this entry verified a ray (policy use)."""
        entry = self._match(ray_hash)
        if entry is not None:
            entry.policy.touch(node)

    def update(self, ray_hash: int, node: int) -> None:
        """Insert a traversal result: the ray hashed to ``ray_hash`` and
        intersected (the Go Up Level ancestor) ``node``.

        Allocates an entry on miss (evicting the set's LRU entry if the
        set is full) and inserts the node per the node policy.
        """
        self.stats.updates += 1
        tag = ray_hash & self._tag_mask
        index = tag
        for shift in self._fold_shifts:
            index ^= tag >> shift
        bucket = self._sets[index & self._index_mask]
        for entry in bucket:
            if entry.tag == tag:
                bucket.remove(entry)
                break
        else:
            if len(bucket) >= self.ways:
                del bucket[0]
                self.stats.entry_evictions += 1
            entry = _Entry(tag, self._new_policy())
        bucket.append(entry)
        if entry.policy.insert(node) is not None:
            self.stats.node_evictions += 1

    # ------------------------------------------------------------------
    # Fault-injection surface (used by :mod:`repro.faults.injector`).
    #
    # These methods model physical corruption of the table SRAM - a
    # node field, a tag, or a whole entry changing underneath the
    # predictor - without reaching into the private set structure.
    # ------------------------------------------------------------------
    def occupied_slots(self) -> List[tuple[int, int]]:
        """All ``(set_index, way)`` pairs currently holding an entry."""
        return [
            (set_index, way)
            for set_index, bucket in enumerate(self._sets)
            for way in range(len(bucket))
        ]

    def entry_nodes(self, set_index: int, way: int) -> List[int]:
        """The node slots of one entry (copy)."""
        return self._sets[set_index][way].policy.nodes

    def entry_tag(self, set_index: int, way: int) -> int:
        """The tag of one entry."""
        return self._sets[set_index][way].tag

    def corrupt_node(self, set_index: int, way: int, slot: int, value: int) -> int:
        """Overwrite one node slot with ``value``; returns the old node."""
        return self._sets[set_index][way].policy.replace_node(slot, value)

    def corrupt_tag(self, set_index: int, way: int, value: int) -> int:
        """Overwrite one entry's tag (hash aliasing); returns the old tag.

        The entry now answers lookups for a *different* ray hash - the
        aliased-set fault mode: rays that never trained this entry will
        receive its (now unrelated) prediction.
        """
        entry = self._sets[set_index][way]
        old = entry.tag
        entry.tag = value & self._tag_mask
        return old

    # ------------------------------------------------------------------
    def occupancy(self) -> float:
        """Fraction of entries currently valid."""
        used = sum(len(bucket) for bucket in self._sets)
        return used / self.num_entries

    def iter_nodes(self) -> List[int]:
        """All node indices currently stored (for oracle-lookup scans)."""
        nodes: List[int] = []
        for bucket in self._sets:
            for entry in bucket:
                nodes.extend(entry.policy.nodes)
        return nodes

    def size_bits(self) -> int:
        """Storage cost in bits (valid + tag + node slots, per entry)."""
        per_entry = VALID_BITS + self.hash_bits + self.nodes_per_entry * NODE_INDEX_BITS
        return self.num_entries * per_entry

    def size_kib(self) -> float:
        """Storage cost in KiB (the paper quotes 5.5 KB for the default)."""
        return self.size_bits() / 8.0 / 1024.0

    def clear(self) -> None:
        """Invalidate every entry (start of a new frame)."""
        self._sets = [[] for _ in range(self.num_sets)]
