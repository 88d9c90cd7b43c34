"""Times at a fixed reference speed of the machine.

The shared host's speed drifts by up to 2x over tens of seconds, and the
program's timings follow it: with plain wall times, five runs of identical
code spread by 27% (interquartile range over median) on the design sweep.
A short fixed probe, taken between the operations of a run, measures that
drift: every time a run reports is its wall time scaled by REF_PROBE_S over
the median probe time of the run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Times are reported at the reference speed, at which probe() takes this long.
REF_PROBE_S = 0.05

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_A = 1e-3 * _M[:10, :10]


def probe() -> float:
    """Wall time of a fixed mix of the program's kinds of work: small dense
    eigenproblems, matrix-vector steps in a Python loop, float formatting.
    It runs no code of the program, so a faster program still reads faster."""
    x = np.ones(10, dtype=complex)
    t0 = time.perf_counter()
    for _ in range(20):
        np.linalg.eigvals(_M)
    for _ in range(2500):
        x = x + 0.5 * (_A @ x)
    ",".join(f"{v:.17g}" for v in np.tile(_M.real.ravel(), 3))
    return time.perf_counter() - t0


class Clock:
    """Probe times collected over a run, one after each group of operations."""

    def __init__(self):
        self.probes: list[float] = []

    def tick(self) -> None:
        self.probes.append(probe())

    def factor(self, first: int = 0) -> float:
        """Multiplier from wall times to reference-speed times, from the
        probes since index `first` (by default, all of the run)."""
        return REF_PROBE_S / statistics.median(self.probes[max(first, 0):])
