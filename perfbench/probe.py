"""Host-speed probe: corrects pass times for the speed of the host.

On a shared VM the same work can take 1.5 times as long in one minute as in
the next, in phases that last from seconds to minutes.  Medians within a run
cannot remove a phase that covers the whole run.  So every timed pass is
bracketed by a fixed piece of work that does not depend on mixcacc: a loop of
interpreted Python and small numpy operations, like the mix the simulators
run.  A pass's corrected time is its wall time scaled by
``NOMINAL_S / probe time``, the probe time being the mean of the probes just
before and just after the pass.  It reads as seconds on a host on which the
probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np

# About the probe's time on the baseline host in its fast phase (README).
NOMINAL_S = 0.045

_KEYS = np.random.default_rng(0).random(1000)


def probe() -> float:
    """Wall time of the fixed probe work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    b = np.ones_like(_KEYS)
    for _ in range(2_000):
        b = np.minimum(_KEYS * 0.5 + b, 3.0)
        np.argsort(_KEYS)
    return time.perf_counter() - t0


class Corrected:
    """Times passes, each between two probes, and keeps raw and corrected
    times per kind of pass."""

    def __init__(self):
        self.last_probe = probe()
        self.probes: list[float] = []
        self.raw: dict[str, list[float]] = {}
        self.corrected: dict[str, list[float]] = {}

    def add(self, kind: str, elapsed: float) -> None:
        """Record a pass of ``kind`` that took ``elapsed`` seconds and has
        just ended."""
        before, self.last_probe = self.last_probe, probe()
        speed = (before + self.last_probe) / 2.0
        self.probes.append(speed)
        self.raw.setdefault(kind, []).append(elapsed)
        self.corrected.setdefault(kind, []).append(elapsed * NOMINAL_S / speed)
