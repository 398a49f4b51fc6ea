"""Unit tests for the cache and DRAM models."""

import pytest

from repro.gpu.cache import Cache
from repro.gpu.config import CacheConfig, DRAMConfig
from repro.gpu.dram import DRAM


class TestCacheConfig:
    def test_defaults(self):
        config = CacheConfig()
        assert config.num_lines == config.size_bytes // 128
        assert config.num_sets * config.ways == config.num_lines

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64, line_bytes=128)

    def test_uneven_ways_raise(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=128 * 3, line_bytes=128, ways=2)

    @pytest.mark.parametrize("make", [CacheConfig, DRAMConfig], ids=["cache", "dram"])
    def test_negative_latency_raises(self, make):
        # The RT unit's replay merges a warp's repeated touches of a line
        # on no access returning before it was issued.
        assert make(latency=0).latency == 0
        with pytest.raises(ValueError, match="latency must be >= 0"):
            make(latency=-1)


class TestCache:
    def make(self, size=1024, ways=2):
        return Cache(CacheConfig(size_bytes=size, line_bytes=128, ways=ways))

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert not cache.access(5)
        assert cache.access(5)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        # 1024B/128B = 8 lines, 2-way -> 4 sets; lines 0, 4, 8 share set 0.
        cache = self.make()
        cache.access(0)
        cache.access(4)
        cache.access(8)  # evicts 0
        assert not cache.access(0)

    def test_lru_refresh_on_hit(self):
        cache = self.make()
        cache.access(0)
        cache.access(4)
        cache.access(0)  # refresh
        cache.access(8)  # evicts 4
        assert cache.access(0)
        assert not cache.access(4)

    def test_different_sets_no_conflict(self):
        cache = self.make()
        cache.access(0)
        cache.access(1)
        cache.access(2)
        assert cache.access(0)

    def test_probe_does_not_mutate(self):
        cache = self.make()
        cache.access(3)
        before = cache.stats.accesses
        assert cache.probe(3)
        assert not cache.probe(99)
        assert cache.stats.accesses == before

    def test_flush(self):
        cache = self.make()
        cache.access(1)
        cache.flush()
        assert not cache.probe(1)

    def test_line_of(self):
        cache = self.make()
        assert cache.line_of(0) == 0
        assert cache.line_of(127) == 0
        assert cache.line_of(128) == 1

    def test_hit_rate(self):
        cache = self.make()
        assert cache.stats.hit_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == 0.5


class TestDRAM:
    def make(self, banks=4, latency=100, occupancy=20):
        return DRAM(DRAMConfig(num_banks=banks, latency=latency, bank_occupancy=occupancy))

    def test_idle_bank_latency(self):
        dram = self.make()
        assert dram.access(0, now=10) == 110

    def test_bank_queueing(self):
        dram = self.make()
        dram.access(0, now=0)       # bank 0 busy until 20
        assert dram.access(4, now=0) == 120  # same bank (4 % 4 == 0): queued
        assert dram.stats.stall_cycles == 20

    def test_different_banks_parallel(self):
        dram = self.make()
        assert dram.access(0, now=0) == 100
        assert dram.access(1, now=0) == 100  # bank 1, no queueing

    def test_bank_of(self):
        dram = self.make(banks=4)
        assert dram.bank_of(0) == 0
        assert dram.bank_of(5) == 1

    def test_reset_timing_keeps_stats(self):
        dram = self.make()
        dram.access(0, now=0)
        dram.reset_timing()
        assert dram.stats.accesses == 1
        assert dram.access(0, now=0) == 100  # no queueing after reset

    def test_bank_parallelism_bounds(self):
        dram = self.make(banks=4)
        for i in range(16):
            dram.access(i, now=0)
        par = dram.stats.bank_parallelism(4)
        assert 0.0 < par <= 4.0

    def test_avg_queue_delay(self):
        dram = self.make()
        dram.access(0, now=0)
        dram.access(4, now=0)
        assert dram.stats.avg_queue_delay == 10.0


class TestDRAMEdgeCases:
    def test_bank_parallelism_zero_span(self):
        dram = DRAM(DRAMConfig(num_banks=4))
        assert dram.stats.bank_parallelism(4) == 0.0

    def test_bank_parallelism_capped_at_banks(self):
        dram = DRAM(DRAMConfig(num_banks=2, latency=10, bank_occupancy=1000))
        dram.access(0, now=0)
        dram.access(1, now=0)
        assert dram.stats.bank_parallelism(2) <= 2.0

    def test_single_bank_serializes_everything(self):
        dram = DRAM(DRAMConfig(num_banks=1, latency=10, bank_occupancy=5))
        first = dram.access(0, now=0)
        second = dram.access(123, now=0)
        assert second == first + 5
