"""Comfort, safety and efficiency metrics over simulation traces.

Single-platoon metrics compare a mixed platoon against reference runs over
one analysis window, a ``(t0, t1)`` pair of times: the acceleration margin
against the all-ACC platoon, the gap margin against the homogeneous platoon
of each follower's own controller, and the occupancy gain as the ratio of
maximum platoon footprints.  Ring metrics are the road throughput from
roadside counters, one float in veh/h, and per-vehicle speed volatility.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_FLOOR = 5.0 / 3.6          # m/s, samples below this are near-standstill
BRAKE_DETECT_U = -7.2            # m/s^2, commanded input marking emergency onset
SINUSOIDAL_PERIODS = 5           # leader periods in a sinusoidal analysis window


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


def sinusoidal_window(warmup: float, frequency: float) -> tuple[float, float]:
    """Analysis window: :data:`SINUSOIDAL_PERIODS` leader periods after warmup."""
    return warmup, warmup + SINUSOIDAL_PERIODS / frequency


def braking_window(trace) -> tuple[float, float]:
    """Analysis window from the head's emergency onset until the platoon has stopped.

    The window opens at the first tick where the head commands at most
    :data:`BRAKE_DETECT_U` and closes at the first subsequent tick where every
    vehicle is slower than 5 km/h; if the platoon never gets that slow the
    window runs to the end of the trace.
    """
    onset = np.flatnonzero(trace.ctrl_input[:, 0] <= BRAKE_DETECT_U)
    if onset.size == 0:
        raise MetricsError("no emergency braking onset in trace")
    k0 = int(onset[0])
    slow = np.all(trace.speed[k0:] < SPEED_FLOOR, axis=1)
    stopped = np.flatnonzero(slow)
    k1 = k0 + int(stopped[0]) if stopped.size else len(trace.times) - 1
    return float(trace.times[k0]), float(trace.times[k1])


def _window_slice(trace, window: tuple[float, float]) -> np.ndarray:
    mask = trace.window_mask(*window)
    if not mask.any():
        raise MetricsError(f"empty analysis window {window}")
    return mask


def peak_abs_accel(trace, window: tuple[float, float]) -> np.ndarray:
    """Largest absolute realized acceleration of each follower inside the
    window, follower 1 first.

    Ticks where the vehicle is slower than :data:`SPEED_FLOOR` are ignored
    (jerky standstill samples are not representative).
    """
    mask = _window_slice(trace, window)
    a = np.where(trace.speed[mask, 1:] >= SPEED_FLOOR, np.abs(trace.accel[mask, 1:]), -np.inf)
    peaks = a.max(axis=0)
    empty = np.flatnonzero(np.isneginf(peaks))
    if empty.size:
        raise MetricsError(f"no usable acceleration samples for vehicle {empty[0] + 1}")
    return peaks


def _worst(per: np.ndarray) -> tuple[float, int]:
    """The smallest margin and its vehicle, the first such on ties."""
    i = int(np.argmin(per))
    return float(per[i]), i + 1


def delta_a(trace, window: tuple[float, float], ref_peaks: np.ndarray) -> tuple[float, int]:
    """Acceleration margin of a platoon against the all-ACC reference.

    ``ref_peaks`` are the :func:`peak_abs_accel` values of the all-ACC
    platoon.  A positive margin means the studied controller needed milder
    accelerations than ACC in the same seat; returns the worst (smallest)
    follower margin and its vehicle.
    """
    own = peak_abs_accel(trace, window)
    if len(ref_peaks) != len(own):
        raise MetricsError("platoon size mismatch between trace and reference")
    return _worst(ref_peaks - own)


def min_gap(trace, window: tuple[float, float]) -> np.ndarray:
    """Smallest bumper gap of each follower inside the window, follower 1 first."""
    # a platoon trace derives its gap on every read, so read it once
    return np.nanmin(trace.gap[_window_slice(trace, window), 1:], axis=0)


def delta_d(trace, window: tuple[float, float],
            ref_gaps: dict[str, np.ndarray]) -> tuple[float, int]:
    """Gap margin of each follower against its own-controller homogeneous run.

    ``ref_gaps`` maps a controller letter to the :func:`min_gap` values of
    its homogeneous platoon.  A negative margin means the mixed platoon
    compressed that follower's gap below what the controller achieves among
    its own kind; returns the worst (smallest) follower margin and its
    vehicle.
    """
    own = min_gap(trace, window)
    ref = np.empty_like(own)
    for i, letter in enumerate(trace.config[1:], 1):
        if letter not in ref_gaps:
            raise MetricsError(f"missing homogeneous reference for controller {letter!r}")
        if i > len(ref_gaps[letter]):
            raise MetricsError(f"homogeneous reference shorter than platoon at vehicle {i}")
        ref[i - 1] = ref_gaps[letter][i - 1]
    return _worst(own - ref)


def max_platoon_occupancy(trace, window: tuple[float, float]) -> float:
    """Largest total follower gap length inside the window (lengths excluded)."""
    mask = _window_slice(trace, window)
    total = np.nansum(trace.gap[mask, 1:], axis=1)
    return float(total.max())


def eta(trace, window: tuple[float, float], ref_occupancy: float) -> float:
    """Occupancy gain: maximum ACC footprint over maximum studied footprint.

    ``ref_occupancy`` is the :func:`max_platoon_occupancy` of the all-ACC
    platoon.
    """
    own = max_platoon_occupancy(trace, window)
    if own <= 0.0:
        raise MetricsError("degenerate occupancy in studied trace")
    return ref_occupancy / own


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
