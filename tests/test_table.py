"""Unit tests for the predictor table (Section 4.1)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.core.table import PredictorTable
from repro.telemetry.publish import publish_table_stats, table_stats_state


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
        # Two hashes that fold to the same set index but differ in tag.
        table = make(entries=16, ways=1, bits=15)
        # index_bits = 4; craft hashes with equal folded index.
        h1 = 0b000_0000_0000_0001
        h2 = h1 | (1 << 4) | 1  # changes tag, keeps... compute fold manually
        table.update(h1, 7)
        if table._index_and_tag(h1)[0] == table._index_and_tag(h2)[0]:
            assert table.lookup(h2) is None

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
