"""Comfort, safety and efficiency metrics over simulation traces.

Single-platoon metrics compare a mixed platoon against reference runs over
one analysis window, a ``(t0, t1)`` pair of times: the acceleration margin
against the all-ACC platoon, the gap margin against the homogeneous platoon
of each follower's own controller, and the occupancy gain as the ratio of
maximum platoon footprints.  They read a run only through its
:class:`WindowScores`, which one :class:`WindowReduction` takes: a sweep's
batch while it runs, in blocks of 16 ticks, and ``Trace.scores`` over a
recorded trace as one block.
Ring metrics are the road throughput from roadside counters, one float in
veh/h, and per-vehicle speed volatility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_FLOOR = 5.0 / 3.6          # m/s, samples below this are near-standstill
BRAKE_DETECT_U = -7.2            # m/s^2, commanded input marking emergency onset
SINUSOIDAL_PERIODS = 5           # leader periods in a sinusoidal analysis window
NO_ONSET = "no emergency braking onset in trace"


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


def sinusoidal_window(warmup: float, frequency: float) -> tuple[float, float]:
    """Analysis window: :data:`SINUSOIDAL_PERIODS` leader periods after warmup."""
    return warmup, warmup + SINUSOIDAL_PERIODS / frequency


def peak_abs_accel(scores: WindowScores) -> np.ndarray:
    """Largest absolute realized acceleration of each follower inside the
    window, follower 1 first.

    Ticks where the vehicle is slower than :data:`SPEED_FLOOR` are ignored
    (jerky standstill samples are not representative).
    """
    peaks = scores.checked().peaks
    empty = np.flatnonzero(np.isneginf(peaks))
    if empty.size:
        raise MetricsError(f"no usable acceleration samples for vehicle {empty[0] + 1}")
    return peaks


def _worst(per: np.ndarray) -> tuple[float, int]:
    """The smallest margin and its vehicle, the first such on ties."""
    i = int(np.argmin(per))
    return float(per[i]), i + 1


def delta_a(scores: WindowScores, ref_peaks: np.ndarray) -> tuple[float, int]:
    """Acceleration margin of a platoon against the all-ACC reference.

    ``ref_peaks`` are the :func:`peak_abs_accel` values of the all-ACC
    platoon.  A positive margin means the studied controller needed milder
    accelerations than ACC in the same seat; returns the worst (smallest)
    follower margin and its vehicle.
    """
    own = peak_abs_accel(scores)
    if len(ref_peaks) != len(own):
        raise MetricsError("platoon size mismatch between trace and reference")
    return _worst(ref_peaks - own)


def min_gap(scores: WindowScores) -> np.ndarray:
    """Smallest bumper gap of each follower inside the window, follower 1 first."""
    return scores.checked().gaps


def delta_d(scores: WindowScores, ref_gaps: dict[str, np.ndarray]) -> tuple[float, int]:
    """Gap margin of each follower against its own-controller homogeneous run.

    ``ref_gaps`` maps a controller letter to the :func:`min_gap` values of
    its homogeneous platoon.  A negative margin means the mixed platoon
    compressed that follower's gap below what the controller achieves among
    its own kind; returns the worst (smallest) follower margin and its
    vehicle.
    """
    own = min_gap(scores)
    ref = np.empty_like(own)
    for i, letter in enumerate(scores.config[1:], 1):
        if letter not in ref_gaps:
            raise MetricsError(f"missing homogeneous reference for controller {letter!r}")
        if i > len(ref_gaps[letter]):
            raise MetricsError(f"homogeneous reference shorter than platoon at vehicle {i}")
        ref[i - 1] = ref_gaps[letter][i - 1]
    return _worst(own - ref)


def max_platoon_occupancy(scores: WindowScores) -> float:
    """Largest total follower gap length inside the window (lengths excluded)."""
    return float(scores.checked().occupancy)


def eta(scores: WindowScores, ref_occupancy: float) -> float:
    """Occupancy gain: maximum ACC footprint over maximum studied footprint.

    ``ref_occupancy`` is the :func:`max_platoon_occupancy` of the all-ACC
    platoon.
    """
    own = max_platoon_occupancy(scores)
    if own <= 0.0:
        raise MetricsError("degenerate occupancy in studied trace")
    return ref_occupancy / own


@dataclass
class WindowScores:
    """A platoon run reduced to what the metrics above read of it: its
    analysis window and, inside it, each follower's peak |a| above
    :data:`SPEED_FLOOR` and least gap, and the peak occupancy.  A sweep's
    batch reduces its rows as they run; ``Trace.scores`` reduces a trace
    the same way."""

    config: str
    scenario_kind: str
    terminated_by_collision: bool
    window: tuple[float, float] | None   # None: no braking onset came
    peaks: np.ndarray                    # -inf: no sample above the floor
    gaps: np.ndarray
    occupancy: float                     # -inf: no tick in the window

    def checked(self) -> WindowScores:
        """Itself, or the error that leaves it nothing to score."""
        if self.window is None:
            raise MetricsError(NO_ONSET)
        if self.occupancy == -np.inf:
            raise MetricsError(f"empty analysis window {self.window}")
        return self


class WindowReduction:
    """The :class:`WindowScores` of a batch of platoon rows, taken a block of
    ticks at a time.  A ``braking`` row's window opens at the first head
    command at most :data:`BRAKE_DETECT_U` and closes after the first tick
    from there with every vehicle below :data:`SPEED_FLOOR`; the others' is
    ``window``."""

    def __init__(self, braking: list[bool], n: int, window: tuple[float, float]):
        self.braking = np.array(braking, dtype=bool)
        self.t0 = np.where(self.braking, np.inf, window[0])   # inf: not yet open
        self.t1 = np.where(self.braking, np.inf, window[1])   # inf: not yet closed
        self.peaks = np.full((len(braking), n - 1), -np.inf)
        self.gaps = np.full((len(braking), n - 1), np.inf)
        self.occupancy = np.full(len(braking), -np.inf)

    def block(self, ts: np.ndarray, gap, speed, accel, head_u, live: np.ndarray) -> None:
        """Reduce the ticks ``ts`` of the rows ``live`` (ticks x rows, a mask
        over the first rows), with ``head_u`` each row's head command.  The
        window edges are first ticks, so a block gives the bits its ticks
        give one at a time."""
        rows = live.shape[1]
        t0, t1, ts = self.t0[:rows], self.t1[:rows], ts[:, None]
        onset = live & (head_u <= BRAKE_DETECT_U)
        opens = (t0 == np.inf) & onset.any(axis=0)
        t0[opens] = ts[onset.argmax(axis=0)[opens], 0]
        w = live & (ts >= t0 - 1e-9) & (ts <= t1 + 1e-9)
        stop = w & self.braking[:rows] & (speed < SPEED_FLOOR).all(axis=2)
        closes = stop.any(axis=0)
        t1[closes] = ts[stop.argmax(axis=0)[closes], 0]
        w &= ts <= t1 + 1e-9
        g = gap[:, :, 1:]
        np.maximum(self.peaks[:rows], np.maximum.reduce(
            np.abs(accel[:, :, 1:]), axis=0, initial=-np.inf,
            where=w[:, :, None] & (speed[:, :, 1:] >= SPEED_FLOOR)), out=self.peaks[:rows])
        np.fmin(self.gaps[:rows], np.fmin.reduce(g, axis=0, initial=np.inf, where=w[:, :, None]),
                out=self.gaps[:rows])
        np.maximum(self.occupancy[:rows], np.maximum.reduce(
            np.nansum(g, axis=2), axis=0, initial=-np.inf, where=w), out=self.occupancy[:rows])

    def scores(self, j: int, end: float, config: str, kind: str, collided: bool) -> WindowScores:
        """Row ``j``'s record; its last tick ran at ``end``."""
        t0, t1 = float(self.t0[j]), float(self.t1[j])
        window = None if t0 == np.inf else (t0, float(end) if t1 == np.inf else t1)
        return WindowScores(config, kind, collided, window, self.peaks[j], self.gaps[j],
                            float(self.occupancy[j]))


# ---------------------------------------------------------------------------
# Ring metrics
# ---------------------------------------------------------------------------

def road_throughput(
    counter_times: np.ndarray,
    counter_devices: np.ndarray,
    devices: tuple[str, ...],
    t_start: float,
    t_end: float,
    window_s: float,
) -> float:
    """Road-level vehicle flux in veh/h: each device's count per whole
    counting window from ``t_start``, averaged over devices, then over
    windows."""
    n_windows = int(math.floor((t_end - t_start) / window_s))
    if n_windows < 1:
        raise MetricsError("observation period shorter than one counting window")
    edges = t_start + np.arange(n_windows + 1) * window_s
    per_device = []
    for dev in devices:
        sel = counter_times[counter_devices == dev]
        sel = sel[(sel >= t_start) & (sel < edges[-1])]
        counts, _ = np.histogram(sel, bins=edges)
        per_device.append(counts * (3600.0 / window_s))
    return float(np.mean(per_device, axis=0).mean())


def volatility(speed_samples: np.ndarray) -> np.ndarray:
    """Per-vehicle speed volatility: sample std over absolute mean.

    ``speed_samples`` has shape (samples, vehicles).  Vehicles with a zero
    mean speed have undefined volatility and get NaN.
    """
    if speed_samples.ndim != 2 or speed_samples.shape[0] < 2:
        raise MetricsError("need at least two speed samples per vehicle")
    mean = speed_samples.mean(axis=0)
    std = speed_samples.std(axis=0, ddof=1)
    out = np.full(mean.shape, np.nan)
    ok = np.abs(mean) > 0.0
    out[ok] = std[ok] / np.abs(mean[ok])
    return out
