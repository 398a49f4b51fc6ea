"""How fast the host ran while a pass ran, from a fixed probe kernel.

On a shared host the same code does not run at one speed.  On the
2-vCPU x86-64 VM this benchmark was tuned on, a CPU-bound loop flips
between two speeds about 1.8x apart, in phases from a second to over a
minute long, as other tenants come and go.  A pass's wall-clock time
then measures the neighbours as much as the program.

:class:`HostSpeed` measures that drift while a pass runs.  A POSIX
interval timer (``SIGALRM``) interrupts the process at a steady
wall-clock rate, and the handler times one run of :func:`probe_kernel`,
a small pure-Python loop that never calls the program.  Because the
samples are spread evenly over wall time, the mean of
``REFERENCE_PROBE_S / sample`` is the share of reference speed the host
gave the process during the pass, and::

    pass seconds at reference speed = (wall seconds - probe seconds) * speed

is the time the pass would have taken on the host in its fast phase.
The probe's own time (``overhead_s``) is never counted as pass time.
A change to the program changes the pass time but not the probe, so
it shows in full in the normalised time.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional

#: Seconds one :func:`probe_kernel` run takes on the reference host in
#: its fast phase: about the 5th percentile (0.49 ms) of 7 900 samples
#: taken during passes on the 2-vCPU x86-64 VM with Python 3.11 this
#: benchmark was tuned on; their median was 0.82 ms.  It only sets the
#: scale of the normalised times.
REFERENCE_PROBE_S = 0.0005
#: Seconds between probes while a pass runs (1-2 % of the time).
PASS_INTERVAL_S = 0.05


def probe_kernel() -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    counts: dict = {}
    total = 0
    for i in range(3000):
        counts[i & 63] = counts.get(i & 63, 0) + i
        total += (i * 7) % 13
    return total


class HostSpeed:
    """Probes the host at a steady wall-clock rate while it is entered.

    Only one instance may run at a time: it owns ``SIGALRM`` and the
    real-time interval timer, and restores both on exit.  With
    ``interval_s=None`` it does not probe and reports speed 1.0.
    """

    def __init__(self, interval_s: Optional[float] = PASS_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        entered = time.perf_counter()
        probe_kernel()
        done = time.perf_counter()
        self.samples.append(done - entered)
        self.overhead_s += time.perf_counter() - entered

    def __enter__(self) -> "HostSpeed":
        if self.interval_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Mean share of reference speed over the samples (1.0 if none)."""
        if not self.samples:
            return 1.0
        shares = [REFERENCE_PROBE_S / sample for sample in self.samples]
        return sum(shares) / len(shares)
