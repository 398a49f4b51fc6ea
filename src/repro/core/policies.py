"""Node replacement policies for multi-node predictor entries.

When an entry stores more than one predicted node (Table 6 columns), an
incoming node must evict an old one.  Section 6.1.3 compares LRU, LFU and
LRU-K and finds the differences insignificant; all three are implemented
so that result is reproducible.

A policy instance manages the slots of a *single* entry.  Slots store
BVH node indices; "use" events come from successful verifications.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional


class NodeReplacementPolicy:
    """Base class: an ordered set of node slots with a replacement rule."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._nodes: List[int] = []

    @property
    def nodes(self) -> List[int]:
        """Current predicted nodes, most recently inserted/used ordering."""
        return list(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def insert(self, node: int) -> Optional[int]:
        """Insert ``node``; returns the evicted node, if any."""
        raise NotImplementedError

    def touch(self, node: int) -> None:
        """Record a use (successful verification) of ``node``."""
        raise NotImplementedError

    def replace_node(self, slot: int, node: int) -> int:
        """Overwrite the node in ``slot`` in place; returns the old value.

        This is the fault-injection hook: it models a bit-flipped or
        stale node field without going through the replacement rule.
        Recency/frequency metadata intentionally keeps tracking the old
        value - hardware corruption does not update LRU state either.
        """
        old = self._nodes[slot]
        self._nodes[slot] = node
        return old


class LRUPolicy(NodeReplacementPolicy):
    """Evict the least recently inserted-or-used node."""

    def insert(self, node: int) -> Optional[int]:
        """Insert ``node``; returns the evicted node, if any."""
        nodes = self._nodes
        if node in nodes:
            nodes.remove(node)
            nodes.append(node)
            return None
        nodes.append(node)
        return nodes.pop(0) if len(nodes) > self.capacity else None

    def touch(self, node: int) -> None:
        """Record a use of ``node``."""
        if node in self._nodes:
            self._nodes.remove(node)
            self._nodes.append(node)


class LFUPolicy(NodeReplacementPolicy):
    """Evict the least frequently used node (ties break oldest-first)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._counts: Dict[int, int] = {}

    def insert(self, node: int) -> Optional[int]:
        """Insert ``node``; returns the evicted node, if any."""
        if node in self._nodes:
            self.touch(node)
            return None
        evicted = None
        if len(self._nodes) >= self.capacity:
            evicted = min(self._nodes, key=lambda n: (self._counts.get(n, 0),
                                                      self._nodes.index(n)))
            self._nodes.remove(evicted)
            self._counts.pop(evicted, None)
        self._nodes.append(node)
        self._counts[node] = 1
        return evicted

    def touch(self, node: int) -> None:
        """Record a use of ``node``."""
        if node in self._counts:
            self._counts[node] += 1


class LRUKPolicy(NodeReplacementPolicy):
    """LRU-K: evict the node with the oldest K-th most recent reference.

    Nodes with fewer than K references rank before (are evicted before)
    nodes with K references, per O'Neil et al.; ``k`` defaults to 2.
    """

    def __init__(self, capacity: int, k: int = 2) -> None:
        super().__init__(capacity)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._history: Dict[int, List[int]] = {}
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _kth_reference(self, node: int) -> int:
        refs = self._history.get(node, [])
        if len(refs) < self.k:
            return -1  # "infinitely old": evicted first
        return refs[-self.k]

    def insert(self, node: int) -> Optional[int]:
        """Insert ``node``, evicting the oldest-K-th-reference victim."""
        if node in self._nodes:
            self.touch(node)
            return None
        evicted = None
        if len(self._nodes) >= self.capacity:
            evicted = min(self._nodes, key=self._kth_reference)
            self._nodes.remove(evicted)
            self._history.pop(evicted, None)
        self._nodes.append(node)
        self._history[node] = [self._tick()]
        return evicted

    def touch(self, node: int) -> None:
        """Record a reference to ``node`` in its K-history."""
        if node in self._history:
            refs = self._history[node]
            refs.append(self._tick())
            # Only the last K references matter.
            if len(refs) > self.k:
                del refs[: len(refs) - self.k]


def node_policy_factory(
    kind: str, capacity: int, **kwargs
) -> Callable[[], NodeReplacementPolicy]:
    """A zero-argument constructor of ``kind`` policies (``lru``/``lfu``/
    ``lru-k``) over ``capacity`` slots.

    The name is resolved here, once: a predictor table builds one policy
    per new entry and calls the factory without dispatching again.
    ``kwargs`` reach LRU-K only.  Bad capacities or kwargs raise when the
    factory is first called.
    """
    if kind == "lru":
        return partial(LRUPolicy, capacity)
    if kind == "lfu":
        return partial(LFUPolicy, capacity)
    if kind in ("lru-k", "lruk"):
        return partial(LRUKPolicy, capacity, **kwargs)
    raise ValueError(f"unknown node replacement policy: {kind!r}")


def make_node_policy(kind: str, capacity: int, **kwargs) -> NodeReplacementPolicy:
    """Construct a node replacement policy by name (``lru``/``lfu``/``lru-k``)."""
    return node_policy_factory(kind, capacity, **kwargs)()
