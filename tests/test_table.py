"""Unit tests for the predictor table (Section 4.1)."""

import os
from dataclasses import astuple, replace
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.hashing import fold_hash
from repro.core.policies import (
    LFUPolicy,
    LRUKPolicy,
    LRUPolicy,
    NodeReplacementPolicy,
)
from repro.core.table import PredictorTable, TableStats
from repro.telemetry.publish import publish_table_stats, table_stats_state

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))


def make(entries=64, ways=4, nodes=1, bits=15, policy="lru"):
    return PredictorTable(
        num_entries=entries, ways=ways, nodes_per_entry=nodes,
        hash_bits=bits, node_policy=policy,
    )


class TestBasics:
    def test_miss_returns_none(self):
        table = make()
        assert table.lookup(0x1234) is None
        assert table.stats.lookups == 1
        assert table.stats.hits == 0

    def test_update_then_hit(self):
        table = make()
        table.update(0x1234, 42)
        assert table.lookup(0x1234) == [42]
        assert table.stats.hit_rate == 1.0

    def test_different_hash_does_not_hit(self):
        table = make()
        table.update(0x1234, 42)
        assert table.lookup(0x4321) is None

    def test_same_index_different_tag_are_separate(self):
        # With 16 sets (index_bits 4), hash 16 folds to 16 ^ (16 >> 4) = 17,
        # masked to set 1: the set of hash 1, under a different tag.
        table = make(entries=16, ways=1, bits=15)
        assert table._index_and_tag(1) == (1, 1)
        assert table._index_and_tag(16) == (1, 16)
        table.update(1, 7)
        assert table.lookup(16) is None
        # Two ways: the shared set holds both entries, each under its tag.
        table = make(entries=32, ways=2, bits=15)
        assert table._index_and_tag(1)[0] == table._index_and_tag(16)[0] == 1
        table.update(1, 7)
        table.update(16, 9)
        assert table.lookup(1) == [7]
        assert table.lookup(16) == [9]

    def test_update_same_entry_single_slot_replaces(self):
        table = make(nodes=1)
        table.update(5, 10)
        table.update(5, 20)
        assert table.lookup(5) == [20]
        assert table.stats.node_evictions == 1

    def test_multi_node_entry_accumulates(self):
        table = make(nodes=2)
        table.update(5, 10)
        table.update(5, 20)
        assert sorted(table.lookup(5)) == [10, 20]

    def test_clear(self):
        table = make()
        table.update(1, 2)
        table.clear()
        assert table.lookup(1) is None
        assert table.occupancy() == 0.0

    def test_clear_preserves_stats(self):
        table = make(entries=8, ways=2, nodes=2, bits=6)
        table.update(3, 5)
        table.lookup(3)
        stats = replace(table.stats)
        table.clear()
        # Clearing invalidates entries (a new frame), not the counters.
        assert table.stats == stats
        assert table.occupied_slots() == []
        assert table.lookup(3) is None


class TestAssociativity:
    def test_set_eviction_lru(self):
        # Direct-mapped, 4 sets: force two tags into one set.
        table = make(entries=4, ways=1, bits=4)
        # With 2 index bits from folding a 4-bit tag: find colliding hashes.
        h1, h2 = None, None
        for a in range(16):
            for b in range(a + 1, 16):
                ia, ta = table._index_and_tag(a)
                ib, tb = table._index_and_tag(b)
                if ia == ib and ta != tb:
                    h1, h2 = a, b
                    break
            if h1 is not None:
                break
        assert h1 is not None
        table.update(h1, 100)
        table.update(h2, 200)  # evicts h1 in a direct-mapped set
        assert table.lookup(h1) is None
        assert table.lookup(h2) == [200]
        assert table.stats.entry_evictions == 1

    def test_higher_associativity_retains_both(self):
        table = make(entries=8, ways=2, bits=4)
        h1, h2 = None, None
        for a in range(16):
            for b in range(a + 1, 16):
                ia, ta = table._index_and_tag(a)
                ib, tb = table._index_and_tag(b)
                if ia == ib and ta != tb:
                    h1, h2 = a, b
                    break
            if h1 is not None:
                break
        table.update(h1, 100)
        table.update(h2, 200)
        assert table.lookup(h1) == [100]
        assert table.lookup(h2) == [200]

    def test_lookup_refreshes_entry_lru(self):
        table = make(entries=2, ways=2, bits=6)
        # Both entries land in the single set (2 entries / 2 ways = 1 set).
        table.update(1, 10)
        table.update(2, 20)
        table.lookup(1)  # refresh entry 1
        table.update(3, 30)  # evicts entry 2 (LRU)
        assert table.lookup(1) == [10]
        assert table.lookup(2) is None


class TestConfigValidation:
    def test_entries_divisible_by_ways(self):
        with pytest.raises(ValueError):
            PredictorTable(num_entries=10, ways=4)

    def test_sets_power_of_two(self):
        with pytest.raises(ValueError):
            PredictorTable(num_entries=12, ways=4)

    def test_positive(self):
        with pytest.raises(ValueError):
            PredictorTable(num_entries=0, ways=1)

    def test_rejects_bad_node_policy(self):
        # Rejected at construction, not at the first update mid-sweep.
        with pytest.raises(ValueError, match="policy"):
            PredictorTable(node_policy="mru")
        with pytest.raises(ValueError, match="k must be"):
            PredictorTable(node_policy="lru-k", node_policy_kwargs={"k": 0})

    def test_rejects_bad_shapes(self):
        for kwargs in (
            dict(num_entries=0),
            dict(num_entries=6, ways=4),
            dict(num_entries=12, ways=2),  # 6 sets: not a power of two
            dict(node_policy="mru"),
        ):
            with pytest.raises(ValueError):
                PredictorTable(**kwargs)


class TestSizeAccounting:
    def test_paper_default_is_5_5kb(self):
        # 1024 entries x (1 valid + 15 tag + 27 node) bits = 5.375 KiB,
        # the "5.5 KB" the paper quotes.
        table = PredictorTable(num_entries=1024, ways=4, nodes_per_entry=1, hash_bits=15)
        assert table.size_bits() == 1024 * 43
        assert 5.3 < table.size_kib() < 5.5

    def test_default_shape_is_5_375_kib(self):
        table = make(entries=1024, ways=4, nodes=1, bits=15)
        assert table.size_bits() == 1024 * 43
        assert table.size_kib() == pytest.approx(5.375)

    def test_size_scales_with_nodes(self):
        one = make(nodes=1).size_bits()
        two = make(nodes=2).size_bits()
        assert two > one


class TestConfirm:
    def test_confirm_touches_policy(self):
        table = make(nodes=2, policy="lfu")
        table.update(5, 10)
        table.update(5, 20)
        table.confirm(5, 10)
        table.confirm(5, 10)
        table.update(5, 30)  # should evict 20 (less frequently used)
        assert 10 in table.lookup(5)
        assert 20 not in table.lookup(5)

    def test_confirm_missing_entry_is_noop(self):
        table = make()
        table.confirm(99, 1)  # must not raise


class TestOccupancyAndIteration:
    def test_occupancy_grows(self):
        table = make(entries=16, ways=4, bits=10)
        assert table.occupancy() == 0.0
        for h in range(8):
            table.update(h * 37, h)
        assert 0.0 < table.occupancy() <= 0.5

    def test_iter_nodes(self):
        table = make()
        table.update(1, 11)
        table.update(2, 22)
        assert sorted(table.iter_nodes()) == [11, 22]


class TestFaultSurface:
    def test_way_zero_is_the_lru_end(self):
        table = make(entries=2, ways=2, bits=6)  # one set
        table.update(1, 10)
        table.update(2, 20)
        assert [table.entry_tag(0, w) for w in (0, 1)] == [1, 2]
        table.lookup(1)
        assert [table.entry_tag(0, w) for w in (0, 1)] == [2, 1]

    @pytest.mark.parametrize("ways", (1, 2, 4, 8))
    def test_corrupt_lands_on_one_logical_slot(self, ways):
        """Corruption returns the old value and lands on one logical slot."""
        table = make(entries=8, ways=ways, nodes=2, bits=6)

        def entries():
            """``{(set, way): (tag, nodes)}`` over every occupied slot."""
            return {
                sw: (table.entry_tag(*sw), table.entry_nodes(*sw))
                for sw in table.occupied_slots()
            }

        rng = np.random.default_rng(13)
        for _ in range(200):
            table.update(int(rng.integers(24)) * 37 % 256, int(rng.integers(12)))
        slots = table.occupied_slots()
        assert slots
        for _ in range(8):
            expect = entries()
            s, w = slots[int(rng.integers(len(slots)))]
            tag, nodes = expect[s, w]
            slot = int(rng.integers(len(nodes)))
            value = int(rng.integers(1 << 10))
            assert table.corrupt_node(s, w, slot, value) == nodes[slot]
            new_tag = int(rng.integers(1 << 8))
            assert table.corrupt_tag(s, w, new_tag) == tag
            nodes[slot] = value
            expect[s, w] = (new_tag & 0x3F, nodes)
            # Nothing else moved: no other entry, slot or LRU position.
            assert table.occupied_slots() == slots
            assert entries() == expect


class TestTagAliases:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        telemetry.disable()
        telemetry.reset_telemetry()
        yield
        telemetry.disable()
        telemetry.reset_telemetry()

    @staticmethod
    def _aliased_lookups():
        """Give both entries of one set tag 1, then look tags 1 and 3 up."""
        table = make(entries=2, ways=2, bits=6)  # one set
        table.update(1, 10)  # front of the set (LRU end)
        table.update(2, 20)
        base = table_stats_state(table)
        table.corrupt_tag(0, 1, 1)
        found = [table.lookup(1), table.lookup(3)]
        return table, base, found

    def test_enabled_counts_aliased_lookups(self):
        telemetry.enable(reset=True)
        table, base, found = self._aliased_lookups()
        # The aliased lookup answers with the entry at the LRU end.
        assert found == [[10], None]
        publish_table_stats(table, since=base)
        assert telemetry.get_registry().value("table.tag_aliases") == 1
        assert telemetry.hook_activations() == 2

    def test_disabled_records_no_hook(self):
        table, _, found = self._aliased_lookups()
        assert found == [[10], None]
        assert table.tag_alias_probes == 0
        assert telemetry.hook_activations() == 0


# ----------------------------------------------------------------------
# The table as it was before its probes folded with construction-time
# shifts: verbatim minus its size and occupancy accounting, which the
# property below does not drive.  Production must equal it exactly.
# ----------------------------------------------------------------------
class OracleLRUPolicy(LRUPolicy):
    """``LRUPolicy.insert`` as it was: membership tested twice on a hit."""

    def insert(self, node: int) -> Optional[int]:
        if node in self._nodes:
            self.touch(node)
            return None
        evicted = None
        if len(self._nodes) >= self.capacity:
            evicted = self._nodes.pop(0)
        self._nodes.append(node)
        return evicted


def oracle_node_policy(kind: str, capacity: int, **kwargs) -> NodeReplacementPolicy:
    """The name dispatch every new entry went through."""
    if kind == "lru":
        return OracleLRUPolicy(capacity)
    if kind == "lfu":
        return LFUPolicy(capacity)
    if kind in ("lru-k", "lruk"):
        return LRUKPolicy(capacity, **kwargs)
    raise ValueError(f"unknown node replacement policy: {kind!r}")


class _OracleEntry:
    __slots__ = ("tag", "policy")

    def __init__(self, tag: int, policy: NodeReplacementPolicy) -> None:
        self.tag = tag
        self.policy = policy


class OracleTable:
    """The per-probe ``fold_hash`` and ``_find`` table."""

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
        oracle_node_policy(node_policy, nodes_per_entry, **self._node_policy_kwargs)
        self._sets: List[List[_OracleEntry]] = [[] for _ in range(num_sets)]
        self.stats = TableStats()
        self._telemetry = telemetry.enabled()
        self.tag_alias_probes = 0

    def _index_and_tag(self, ray_hash: int) -> tuple:
        tag = ray_hash & ((1 << self.hash_bits) - 1)
        if self.index_bits == 0:
            return 0, tag
        index = fold_hash(tag, self.hash_bits, self.index_bits)
        return index, tag

    def _find(self, bucket, tag):
        for entry in bucket:
            if entry.tag == tag:
                return entry
        return None

    def lookup(self, ray_hash: int) -> Optional[List[int]]:
        self.stats.lookups += 1
        index, tag = self._index_and_tag(ray_hash)
        bucket = self._sets[index]
        if self._telemetry:
            telemetry.record_hook_activation()
            if sum(1 for e in bucket if e.tag == tag) > 1:
                self.tag_alias_probes += 1
        entry = self._find(bucket, tag)
        if entry is None:
            return None
        self.stats.hits += 1
        bucket.remove(entry)
        bucket.append(entry)
        return entry.policy.nodes

    def peek(self, ray_hash: int) -> Optional[List[int]]:
        index, tag = self._index_and_tag(ray_hash)
        entry = self._find(self._sets[index], tag)
        return entry.policy.nodes if entry is not None else None

    def confirm(self, ray_hash: int, node: int) -> None:
        index, tag = self._index_and_tag(ray_hash)
        entry = self._find(self._sets[index], tag)
        if entry is not None:
            entry.policy.touch(node)

    def update(self, ray_hash: int, node: int) -> None:
        self.stats.updates += 1
        index, tag = self._index_and_tag(ray_hash)
        bucket = self._sets[index]
        entry = self._find(bucket, tag)
        if entry is None:
            if len(bucket) >= self.ways:
                bucket.pop(0)
                self.stats.entry_evictions += 1
            policy = oracle_node_policy(
                self.node_policy, self.nodes_per_entry, **self._node_policy_kwargs
            )
            entry = _OracleEntry(tag, policy)
            bucket.append(entry)
        else:
            bucket.remove(entry)
            bucket.append(entry)
        if entry.policy.insert(node) is not None:
            self.stats.node_evictions += 1

    def occupied_slots(self):
        return [
            (set_index, way)
            for set_index, bucket in enumerate(self._sets)
            for way in range(len(bucket))
        ]

    def entry_nodes(self, set_index: int, way: int) -> List[int]:
        return self._sets[set_index][way].policy.nodes

    def entry_tag(self, set_index: int, way: int) -> int:
        return self._sets[set_index][way].tag

    def corrupt_node(self, set_index: int, way: int, slot: int, value: int) -> int:
        return self._sets[set_index][way].policy.replace_node(slot, value)

    def corrupt_tag(self, set_index: int, way: int, value: int) -> int:
        entry = self._sets[set_index][way]
        old = entry.tag
        entry.tag = value & ((1 << self.hash_bits) - 1)
        return old

    def clear(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]


#: Stream operations; probes that move entries come three times as often.
_OPS = ("lookup",) * 3 + ("update",) * 3 + (
    "peek", "confirm", "corrupt_node", "corrupt_tag", "clear",
)


@st.composite
def _table_runs(draw):
    """A table shape, a stream of probes and faults, and the telemetry
    switch.

    Hashes come from a pool of a few values, some wider than the tag, so
    probes hit, sets fill and evict, and a corrupted tag can alias a
    live one.  Node values repeat, so inserts find their node present.
    """
    ways = draw(st.sampled_from((1, 2, 4, 8)))
    sets = 2 ** draw(st.integers(0, (64 // ways).bit_length() - 1))
    hash_bits = draw(st.integers(1, 30))
    shape = dict(
        num_entries=ways * sets, ways=ways,
        nodes_per_entry=draw(st.integers(1, 3)), hash_bits=hash_bits,
        node_policy=draw(st.sampled_from(("lru", "lfu", "lru-k"))),
    )
    pool = draw(st.lists(st.integers(0, (1 << (hash_bits + 2)) - 1),
                         min_size=1, max_size=4))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(_OPS), st.sampled_from(pool),
                  st.integers(0, 15), st.integers(0, 63)),
        min_size=10, max_size=120,
    ))
    return shape, ops, draw(st.booleans())


def _apply(table, op):
    """Run one stream operation; faults land on an occupied slot."""
    name, ray_hash, node, pick = op
    if name in ("lookup", "peek"):
        return getattr(table, name)(ray_hash)
    if name in ("update", "confirm"):
        return getattr(table, name)(ray_hash, node)
    if name == "clear":
        return table.clear()
    slots = table.occupied_slots()
    if not slots:
        return None
    set_index, way = slots[pick % len(slots)]
    if name == "corrupt_tag":
        return table.corrupt_tag(set_index, way, ray_hash)
    slot = pick % len(table.entry_nodes(set_index, way))
    return table.corrupt_node(set_index, way, slot, node)


def _state(table):
    slots = table.occupied_slots()
    return (
        astuple(table.stats), slots,
        [(table.entry_tag(*sw), table.entry_nodes(*sw)) for sw in slots],
        table.tag_alias_probes,
    )


class TestMatchesOracleTable:
    """Production equals the per-probe fold_hash table on every probe."""

    @settings(max_examples=MAX_EXAMPLES)
    @given(run=_table_runs())
    def test_streams(self, run):
        shape, ops, telemetry_on = run
        if telemetry_on:
            telemetry.enable(reset=True)
        try:
            got, want = PredictorTable(**shape), OracleTable(**shape)
        finally:
            telemetry.disable()
            telemetry.reset_telemetry()
        for op in ops:
            assert _apply(got, op) == _apply(want, op), op
            assert _state(got) == _state(want), op

    @pytest.mark.parametrize("hash_bits", range(1, 13))
    def test_set_index_is_fold_hash(self, hash_bits):
        # Every tag, every index width up to one past the tag: the set a
        # direct-mapped update fills, the set a lookup reads and the
        # helper's index all equal fold_hash (0 for a single set).
        for index_bits in range(hash_bits + 2):
            table = make(entries=1 << index_bits, ways=1, bits=hash_bits)
            for tag in range(1 << hash_bits):
                want = fold_hash(tag, hash_bits, index_bits) if index_bits else 0
                table.update(tag, tag)
                assert table.entry_tag(want, 0) == tag
                assert table.lookup(tag) == [tag]
                assert table._index_and_tag(tag) == (want, tag)
