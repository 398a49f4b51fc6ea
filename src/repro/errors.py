"""Structured exception hierarchy and CLI exit codes.

Everything the library raises on *anticipated* failure derives from
:class:`ReproError`, so callers (and the ``python -m repro`` CLI) can
distinguish "your input is bad" from "the simulator is broken" without
string-matching messages.  Speculation-related errors carry enough
context to reproduce the failure: the offending node indices, the cycle
the watchdog fired at, the rays whose occlusion results diverged.

The predictor's safety contract (Section 3 of the paper) is that a
wrong - even corrupted - prediction may only cost cycles, never change
which rays report occlusion.  Guard code that *enforces* that contract
degrades silently (a bad prediction becomes "no prediction"); these
exceptions are reserved for the boundaries where degrading is impossible
or would hide a real bug (corrupted traversal state, a stalled
simulation, a differential-oracle mismatch).

Exit-code map (``EXIT_*`` constants, used by ``repro.__main__``):

====  =============================================
code  meaning
====  =============================================
0     success
2     usage error (argparse)
4     invalid input (rays, configuration, arguments)
5     traversal integrity violation
6     simulation watchdog fired (stall / cycle cap)
7     differential oracle found a mismatch
70    unexpected internal error
====  =============================================
"""

from __future__ import annotations

from typing import Optional, Sequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 4
EXIT_TRAVERSAL = 5
EXIT_WATCHDOG = 6
EXIT_ORACLE = 7
EXIT_INTERNAL = 70


class ReproError(Exception):
    """Base class for all structured errors raised by this package."""

    exit_code: int = EXIT_INTERNAL


class InputValidationError(ReproError, ValueError):
    """User-supplied input (rays, meshes, config values) is invalid."""

    exit_code = EXIT_INPUT


class RayValidationError(InputValidationError):
    """A ray batch contains non-finite or degenerate rays.

    Raised only in ``mode="raise"`` validation; the default pipeline
    filters bad rays and reports counters instead.
    """


class TraversalError(ReproError):
    """Traversal was asked to index outside the BVH.

    This is the hard guard at the speculation boundary: a corrupted
    predicted node index must become either "no prediction" (the soft
    guards upstream) or this structured error - never a raw
    ``IndexError`` from indexing the node arrays.

    Attributes:
        bad_nodes: the offending node indices.
        num_nodes: the BVH's node count at the time of the check.
    """

    exit_code = EXIT_TRAVERSAL

    def __init__(
        self,
        message: str,
        bad_nodes: Optional[Sequence[int]] = None,
        num_nodes: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.bad_nodes = list(bad_nodes) if bad_nodes is not None else []
        self.num_nodes = num_nodes


class SimulationStallError(ReproError):
    """The GPU simulator's watchdog aborted a non-progressing run.

    Attributes:
        cycles: simulated cycle the watchdog fired at.
        diagnostics: free-form state snapshot (resident warps, buffer
            occupancy, retired/total rays, ...), rendered into the
            message for CLI users and kept structured for tests.
    """

    exit_code = EXIT_WATCHDOG

    def __init__(self, message: str, cycles: int = 0, diagnostics: Optional[dict] = None) -> None:
        super().__init__(message)
        self.cycles = cycles
        self.diagnostics = dict(diagnostics or {})


class OracleMismatchError(ReproError):
    """The differential oracle found per-ray occlusion divergence.

    If this fires, speculation changed correctness - the one thing the
    predictor architecture promises cannot happen.

    Attributes:
        mismatched_rays: indices of rays whose occlusion result differed
            between the baseline and predictor-under-faults runs.
    """

    exit_code = EXIT_ORACLE

    def __init__(self, message: str, mismatched_rays: Optional[Sequence[int]] = None) -> None:
        super().__init__(message)
        self.mismatched_rays = list(mismatched_rays) if mismatched_rays is not None else []


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code documented above."""
    if isinstance(exc, ReproError):
        return exc.exit_code
    if isinstance(exc, (KeyError, ValueError)):
        return EXIT_INPUT
    return EXIT_INTERNAL
