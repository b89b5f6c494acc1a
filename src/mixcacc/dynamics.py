"""Longitudinal vehicle motion with a first-order actuation lag.

Commanded accelerations are clamped, then tracked by the powertrain with time
constant ``tau``.  Integration is semi-implicit Euler: the updated acceleration
feeds the speed update, the updated speed feeds the position update.  Speeds
never go negative; at standstill a negative actuation state is zeroed so a
stopped vehicle does not report phantom deceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

VEHICLE_LENGTH = 4.0  # m, every vehicle is a passenger car

# Auto-hold: below this crawl speed, with the predecessor also crawling and
# the gap short, the brake is applied and held so queued vehicles rest
# instead of creeping into the bumper ahead (released once the predecessor
# moves off).  Needed because time-headway spacing policies command a zero
# gap at standstill.
STANDSTILL_SPEED = 0.5   # m/s
STANDSTILL_GAP = 3.0     # m
STANDSTILL_BRAKE = -0.5  # m/s^2


@dataclass
class DynamicsParams:
    """Actuation lag and integration settings shared by all vehicles."""

    tau: float = 0.5             # powertrain lag time constant [s]
    dt: float = 0.01             # integration step [s]
    u_min: float = -8.0          # commanded acceleration clamp [m/s^2]
    u_max: float = 2.5
    emergency_u_min: float = -9.0  # clamp while emergency braking is commanded

    def __post_init__(self):
        if self.tau <= 0.0 or self.dt <= 0.0:
            raise ValueError("tau and dt must be positive")
        if self.dt > self.tau:   # the lag update would overshoot its command
            raise ValueError("powertrain lag tau must not be shorter than the step dt")
        if not self.u_min < 0.0 < self.u_max:
            raise ValueError("input clamp must satisfy u_min < 0 < u_max")
        if self.emergency_u_min > self.u_min:
            raise ValueError("emergency_u_min cannot be tighter than u_min")


@dataclass
class VehicleState:
    """Kinematic state of one vehicle.

    ``position`` is the front bumper coordinate and grows in the driving
    direction.  ``accel`` is the realized acceleration after the lag,
    ``ctrl_input`` the last commanded acceleration after clamping.
    """

    position: float
    speed: float
    accel: float = 0.0
    ctrl_input: float = 0.0
    length: float = VEHICLE_LENGTH
    lane: int = 0


def step_vehicle(state: VehicleState, u_cmd: float, params: DynamicsParams,
                 emergency: bool = False) -> VehicleState:
    """Advance one vehicle by one integration step of ``params.dt`` seconds.

    This is :func:`advance` on one vehicle for one step.  Commands are
    clamped to the actuator range; only with ``emergency`` do they reach
    below ``u_min``, down to ``emergency_u_min``.
    """
    if not math.isfinite(u_cmd):
        raise ValueError(f"non-finite control input: {u_cmd!r}")
    if not emergency:
        u_cmd = max(params.u_min, u_cmd)
    x, v, a = (np.array([f], dtype=float) for f in (state.position, state.speed, state.accel))
    nobody = np.zeros(1, dtype=bool)
    u = advance(x, v, a, np.array([u_cmd], dtype=float), params, 1, nobody, nobody, None, 1.0)
    return replace(state, position=float(x[0]), speed=float(v[0]), accel=float(a[0]),
                   ctrl_input=float(u[0]))


def step_arrays(
    pos: np.ndarray,
    speed: np.ndarray,
    accel: np.ndarray,
    u_cmd: np.ndarray,
    params: DynamicsParams,
    tau: np.ndarray | float | None = None,
) -> None:
    """One physics step of :func:`advance` for every vehicle, without hold
    or Ploeg filter; mutates the arrays in place.

    ``tau`` may be a per-vehicle array; entries equal to ``params.dt`` make the
    actuation track the command exactly (used for lag-free driver models).
    ``u_cmd`` is clamped in place; commands below ``u_min`` count as commanded
    emergency braking and are admitted down to ``emergency_u_min``.
    """
    nobody = np.zeros(np.shape(pos), dtype=bool)
    u_cmd[...] = advance(pos, speed, accel, u_cmd, params, 1, nobody, nobody, None, 1.0, tau)


def advance(pos, speed, accel, u, params: DynamicsParams, steps: int,
            hold, ploeg, filt, filter_tau: float, tau=None) -> np.ndarray:
    """Integrate one control period of ``steps`` physics steps under ``u``.

    Vehicles in the mask ``ploeg`` apply the state ``filt`` of a first-order
    actuation filter with time constant ``filter_tau`` that runs at the
    physics rate towards their command; the other vehicles' entries of
    ``filt`` are left alone.  Vehicles in the mask ``hold`` apply at most
    :data:`STANDSTILL_BRAKE`; the cap acts on what they apply, so a held
    vehicle's filter keeps tracking its unclamped command.  Mutates the
    state arrays and ``filt``; returns the clamped commands of the last step.
    The other vehicles apply one command throughout, capped and clamped once.
    """
    lag_gain = params.dt / (params.tau if tau is None else tau)
    cmd = _clamp(u.copy(), hold, params)
    filtered = None
    if ploeg.any():
        # the filter reads only its own state and the held command, so all
        # its substeps run first, as one (steps x Ploeg cars) block
        at = np.flatnonzero(ploeg)
        target, state = u[ploeg], filt[ploeg]
        filtered = np.empty((steps, at.size))
        gain = params.dt / filter_tau
        for row in filtered:
            np.subtract(target, state, out=row)
            row *= gain
            row += state
            state = row
        filt[ploeg] = state
        _clamp(filtered, hold[ploeg], params)
        flat = cmd.reshape(-1)
    buf = np.empty_like(pos)
    for step in range(steps):
        if filtered is not None:
            flat[at] = filtered[step]
        np.subtract(cmd, accel, out=buf)
        buf *= lag_gain
        accel += buf
        np.multiply(accel, params.dt, out=buf)
        speed += buf
        stopped = speed <= 0.0
        if stopped.any():
            speed[stopped] = 0.0
            accel[stopped & (accel < 0.0)] = 0.0
        np.multiply(speed, params.dt, out=buf)
        pos += buf
    return cmd


def _clamp(cmd, hold, params: DynamicsParams):
    """Cap held vehicles at the standstill brake, then clamp to the actuator
    range, in place; ``hold`` broadcasts against ``cmd``'s last axis."""
    if hold.any():
        np.minimum(cmd, STANDSTILL_BRAKE, out=cmd, where=hold)
    # maximum then minimum is np.clip without its dispatch overhead
    np.maximum(cmd, params.emergency_u_min, out=cmd)
    np.minimum(cmd, params.u_max, out=cmd)
    return cmd
