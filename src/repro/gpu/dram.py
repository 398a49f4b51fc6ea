"""Banked DRAM timing model.

Addresses interleave across banks at cache-line granularity.  Each bank
services one request at a time; a request arriving at a busy bank queues
behind it.  This reproduces the first-order behaviour the paper relies
on in Section 6.2.2: repacked warps mix interior- and leaf-node requests,
spreading accesses across banks and raising bank-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import DRAMConfig


@dataclass
class DRAMStats:
    """DRAM service counters."""

    accesses: int = 0
    stall_cycles: int = 0
    busy_cycles: int = 0
    first_access_time: int = 0
    last_release_time: int = 0
    row_hits: int = 0

    @property
    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit the bank's open row buffer."""
        return self.row_hits / self.accesses if self.accesses else 0.0

    def bank_parallelism(self, num_banks: int) -> float:
        """Average banks busy simultaneously over the active span."""
        span = self.last_release_time - self.first_access_time
        if span <= 0:
            return 0.0
        return min(float(num_banks), self.busy_cycles / span)

    @property
    def avg_queue_delay(self) -> float:
        """Average cycles a request waited for its bank."""
        return self.stall_cycles / self.accesses if self.accesses else 0.0


class DRAM:
    """Per-bank busy-until / open-row bookkeeping."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        # Config as plain ints and bank state as lists: `access` runs once
        # per DRAM request of the timing model, where NumPy scalars and
        # attribute chains would dominate it.
        self._num_banks = config.num_banks
        self._lines_per_row = config.lines_per_row
        self._latency = config.latency
        self._occupancy = config.bank_occupancy
        self._busy_until = [0] * config.num_banks
        self._open_row = [-1] * config.num_banks
        self.stats = DRAMStats()

    def bank_of(self, line_addr: int) -> int:
        """Bank servicing ``line_addr`` (line-interleaved)."""
        return line_addr % self._num_banks

    def row_of(self, line_addr: int) -> int:
        """DRAM row of ``line_addr`` within its bank.

        With line-interleaved banks, consecutive same-bank lines
        (stride ``num_banks``) map to one row of ``lines_per_row``
        columns.
        """
        return (line_addr // self._num_banks) // self._lines_per_row

    def access(self, line_addr: int, now: int) -> int:
        """Service a request arriving at cycle ``now``.

        Returns the cycle at which data is available.  The bank is held
        for ``bank_occupancy`` cycles from service start.
        """
        bank = self.bank_of(line_addr)
        busy = self._busy_until[bank]
        start = busy if busy > now else now
        release = start + self._occupancy
        self._busy_until[bank] = release

        stats = self.stats
        if stats.accesses == 0:
            stats.first_access_time = start
        stats.accesses += 1
        stats.stall_cycles += start - now
        stats.busy_cycles += self._occupancy
        if release > stats.last_release_time:
            stats.last_release_time = release
        row = self.row_of(line_addr)
        if self._open_row[bank] == row:
            stats.row_hits += 1
        self._open_row[bank] = row
        return start + self._latency

    def reset_timing(self) -> None:
        """Clear bank busy/row state (new kernel) without losing statistics."""
        self._busy_until = [0] * self._num_banks
        self._open_row = [-1] * self._num_banks
