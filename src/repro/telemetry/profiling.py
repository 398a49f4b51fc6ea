"""Profiling hooks: per-phase wall/CPU timing and a sampling profiler.

Two opt-in layers on top of the metrics/tracing pillars:

* :class:`PhaseTimer` - coarse per-phase wall *and* CPU time, cheap
  enough to leave on for a whole run; ``repro telemetry``
  (:mod:`repro.telemetry.runner`) embeds its report as the ``phases``
  section of ``telemetry.json``.
* :class:`SamplingProfiler` - a zero-dependency statistical profiler: a
  background thread snapshots the target thread's stack via
  ``sys._current_frames()`` at a fixed interval and aggregates collapsed
  stacks.  Overhead scales with the sampling rate, not with the profiled
  code, so it is safe on the simulator's Python-heavy hot paths where a
  deterministic tracer (``cProfile``) would distort timings badly.
"""

from __future__ import annotations

import logging
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class PhaseRecord:
    """Accumulated timing of one named phase."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    count: int = 0


@dataclass
class PhaseTimer:
    """Accumulates wall and CPU time per named phase.

    Phases may nest; each level accounts its own full duration (no
    self-time subtraction), mirroring span semantics.
    """

    phases: Dict[str, PhaseRecord] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        """Time a ``with`` block under ``name``."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            record = self.phases.setdefault(name, PhaseRecord())
            record.wall_s += time.perf_counter() - wall0
            record.cpu_s += time.process_time() - cpu0
            record.count += 1

    def report(self) -> Dict[str, dict]:
        """JSON-friendly per-phase report, insertion-ordered."""
        return {
            name: {
                "wall_s": round(rec.wall_s, 6),
                "cpu_s": round(rec.cpu_s, 6),
                "count": rec.count,
            }
            for name, rec in self.phases.items()
        }

    def reset(self) -> None:
        self.phases.clear()


class SamplingProfiler:
    """Periodic stack sampler for one thread (default: the caller's).

    Usage::

        profiler = SamplingProfiler(interval_s=0.005)
        profiler.start()
        ...workload...
        profiler.stop()
        for stack, count in profiler.top(10):
            print(count, stack)

    Stacks are collapsed to ``module:function`` frames joined with
    ``;`` (leaf last), the flamegraph-friendly folded format.
    """

    def __init__(self, interval_s: float = 0.005, max_depth: int = 64) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.max_depth = max_depth
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self._target_tid: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def start(self, target_tid: Optional[int] = None) -> None:
        """Begin sampling ``target_tid`` (default: the calling thread)."""
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._target_tid = target_tid or threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self, join_timeout_s: float = 2.0, raise_on_leak: bool = True) -> None:
        """Stop sampling (idempotent).

        The sampler thread normally exits within one interval.  If it is
        still alive after ``join_timeout_s`` something is genuinely wrong
        (the loop is wedged inside ``sys._current_frames``); leaking it
        silently would let a daemon thread keep mutating ``samples``
        behind the caller's back, so the leak is reported: a warning is
        logged and, with ``raise_on_leak`` (the default), a
        :class:`RuntimeError` is raised.  ``raise_on_leak=False`` keeps
        the diagnostic but suppresses the exception, for teardown paths
        that are already unwinding another error.
        """
        if self._thread is None:
            return
        self._stop.set()
        thread = self._thread
        thread.join(timeout=join_timeout_s)
        self._thread = None
        if thread.is_alive():
            message = (
                f"SamplingProfiler thread {thread.name!r} did not stop "
                f"within {join_timeout_s:.1f}s; daemon thread leaked and "
                "its samples are no longer trustworthy"
            )
            logging.getLogger(__name__).warning(message)
            if raise_on_leak:
                raise RuntimeError(message)

    @contextmanager
    def profile(self):
        """Context-manager form: sample the enclosed block."""
        self.start()
        try:
            yield self
        except BaseException:
            # Don't let a leak diagnostic mask the workload's own error;
            # the warning is still logged.
            self.stop(raise_on_leak=False)
            raise
        else:
            self.stop()

    def __enter__(self) -> "SamplingProfiler":
        """``with SamplingProfiler() as p:`` - same contract as
        :meth:`profile`: the sampler always stops on the way out, and a
        failing block keeps its partial samples (the leak diagnostic
        never masks the workload's own exception)."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(raise_on_leak=exc_type is None)

    # ------------------------------------------------------------------
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_tid)
            if frame is None:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                module = code.co_filename.rsplit("/", 1)[-1]
                stack.append(f"{module}:{code.co_name}")
                frame = frame.f_back
                depth += 1
            key = ";".join(reversed(stack))
            self.samples[key] = self.samples.get(key, 0) + 1
            self.total_samples += 1

    # ------------------------------------------------------------------
    def top(self, n: int = 20) -> List[Tuple[str, int]]:
        """The ``n`` hottest collapsed stacks, descending by samples."""
        return sorted(self.samples.items(), key=lambda kv: -kv[1])[:n]

    def hot_functions(self, n: int = 15) -> List[Tuple[str, int]]:
        """Leaf-frame aggregation: where time is actually spent."""
        leaves: Dict[str, int] = {}
        for stack, count in self.samples.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(), key=lambda kv: -kv[1])[:n]

    def report(self, n: int = 15) -> dict:
        """JSON-friendly profile summary."""
        return {
            "interval_s": self.interval_s,
            "total_samples": self.total_samples,
            "hot_functions": [
                {"frame": frame, "samples": count}
                for frame, count in self.hot_functions(n)
            ],
            "hot_stacks": [
                {"stack": stack, "samples": count}
                for stack, count in self.top(n)
            ],
        }


__all__ = ["PhaseRecord", "PhaseTimer", "SamplingProfiler"]
