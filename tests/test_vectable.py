"""Predictor-table checks kept from the struct-of-arrays comparison suite.

This module used to compare ``VectorizedPredictorTable`` with
:class:`~repro.core.table.PredictorTable`. The struct-of-arrays table is
gone; the checks below still describe the surviving table, so they keep
their names and now pin ``PredictorTable`` alone: bad shapes and node
policies are rejected at construction, ``clear()`` keeps the statistics,
the paper's default shape is 5.375 KiB, and corruption returns the old
value and lands on the logical ``(set, way, slot)``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.table import PredictorTable

ASSOCIATIVITIES = (1, 2, 4, 8)


def _table(ways, num_entries=8, nodes_per_entry=2, hash_bits=6):
    return PredictorTable(
        num_entries=num_entries,
        ways=ways,
        nodes_per_entry=nodes_per_entry,
        hash_bits=hash_bits,
        node_policy="lru",
    )


def _entries(table):
    """``{(set, way): (tag, nodes)}`` over every occupied slot."""
    return {
        sw: (table.entry_tag(*sw), table.entry_nodes(*sw))
        for sw in table.occupied_slots()
    }


class TestScalarEquivalence:
    def test_clear_preserves_stats(self):
        table = _table(2)
        table.update(3, 5)
        table.lookup(3)
        stats = replace(table.stats)
        table.clear()
        # Clearing invalidates entries (a new frame), not the counters.
        assert table.stats == stats
        assert table.occupied_slots() == []
        assert table.lookup(3) is None

    def test_size_accounting_matches(self):
        table = _table(4, num_entries=1024, nodes_per_entry=1, hash_bits=15)
        assert table.size_bits() == 1024 * 43
        assert table.size_kib() == pytest.approx(5.375)

    def test_rejects_bad_shapes_like_scalar(self):
        for kwargs in (
            dict(num_entries=0),
            dict(num_entries=6, ways=4),
            dict(num_entries=12, ways=2),  # 6 sets: not a power of two
            dict(node_policy="mru"),
        ):
            with pytest.raises(ValueError):
                PredictorTable(**kwargs)


class TestFaultSurfaceEquivalence:
    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    def test_corrupt_node_and_tag(self, ways):
        """Corruption returns the old value and lands on one logical slot."""
        table = _table(ways)
        rng = np.random.default_rng(13)
        for _ in range(200):
            table.update(int(rng.integers(24)) * 37 % 256, int(rng.integers(12)))
        slots = table.occupied_slots()
        assert slots
        for _ in range(8):
            expect = _entries(table)
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
            assert _entries(table) == expect
