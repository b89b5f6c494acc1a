"""Longitudinal controllers for platoon members.

Four cooperative/automatic controllers plus an IDM car-following model used
for human-driven baseline traffic:

* ACC: radar-only constant time headway.
* Ploeg: consensus-style constant time headway with predecessor input
  feed-forward; the command is the state of a first-order actuation filter
  whose drive target refreshes at control rate.
* PATH: constant spacing with predecessor and leader feed-forward.
* GSBL: bidirectional spring-damper coupling to the physical neighbors with a
  speed reference tracked from the elected leader; a small supervisory state
  machine (cruise/override) retunes the reference during hard braking.

The raw control laws are plain arithmetic and accept scalars or numpy arrays
interchangeably; the simulation engines call them on arrays.  The per-vehicle
``*_control`` wrappers and :func:`gsbl_mode_update` are the reference
specification the vectorized code is tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import VehicleState, VEHICLE_LENGTH

# Beacons older than this are considered stale and are not acted upon.
BEACON_MAX_AGE = 0.25  # s

# Override entry thresholds of the GSBL supervisory logic.
GSBL_OVERRIDE_GAP = 4.0      # m, critically small front gap
GSBL_CLOSING_SPEED = 0.1     # m/s, minimum closing speed for the gap trigger
GSBL_SPEED_GUARD = 0.01      # m/s, guard band for the adaptive gain division


@dataclass
class Beacon:
    """State sample broadcast by a vehicle (or measured by radar)."""

    vehicle_id: int
    position: float       # front bumper [m]
    speed: float          # [m/s]
    accel: float          # realized acceleration [m/s^2]
    ctrl_input: float     # commanded acceleration [m/s^2]
    timestamp: float      # [s]
    length: float = VEHICLE_LENGTH

    def age(self, now: float) -> float:
        return now - self.timestamp

    def is_stale(self, now: float, max_age: float = BEACON_MAX_AGE) -> bool:
        return self.age(now) > max_age


def bumper_gap(ego_position: float, pred_position: float, pred_length: float):
    """Bumper-to-bumper distance between ego and its predecessor."""
    return pred_position - pred_length - ego_position


def gap_to(ego: VehicleState, pred: VehicleState | Beacon):
    return bumper_gap(ego.position, pred.position, pred.length)


# ---------------------------------------------------------------------------
# ACC
# ---------------------------------------------------------------------------

@dataclass
class AccParams:
    H: float = 1.2        # time headway [s]
    lam: float = 0.1      # spacing error gain [1/s]

    def __post_init__(self):
        if self.H <= 0.0:
            raise ValueError("ACC headway must be positive")


def acc_accel(v, v_pred, gap, H, lam):
    """Constant time headway law; spacing error is H*v minus the actual gap."""
    spacing_error = H * v - gap
    return -((v - v_pred) + lam * spacing_error) / H


def acc_control(ego: VehicleState, pred: VehicleState | Beacon, p: AccParams):
    """ACC command from radar measurements of the predecessor."""
    return acc_accel(ego.speed, pred.speed, gap_to(ego, pred), p.H, p.lam)


def cruise_accel(v, v_set, gain=0.5):
    """Plain speed tracking, used when no predecessor is available."""
    return gain * (v_set - v)


# ---------------------------------------------------------------------------
# Ploeg
# ---------------------------------------------------------------------------

@dataclass
class PloegParams:
    H: float = 0.5        # time headway [s]
    kp: float = 0.2
    kd: float = 0.7
    u_state: float = 0.0  # actuation filter state, integrated at physics rate
    stale_held: bool = False

    def __post_init__(self):
        if self.H <= 0.0:
            raise ValueError("Ploeg headway must be positive")


def ploeg_target(gap, v, a, v_pred, u_pred, H, kp, kd):
    """Drive target of the Ploeg actuation filter.

    The commanded acceleration is not this value directly but the state of a
    first-order filter with time constant H pulled towards it.
    """
    spacing = kp * (gap - H * v)
    closing = kd * (v_pred - v - H * a)
    return spacing + closing + u_pred


def ploeg_accel_rate(u, gap, v, a, v_pred, u_pred, H, kp, kd):
    """Time derivative of the Ploeg actuation state."""
    return (ploeg_target(gap, v, a, v_pred, u_pred, H, kp, kd) - u) / H


def ploeg_control(
    ego: VehicleState,
    pred: Beacon,
    p: PloegParams,
    now: float | None = None,
) -> float:
    """Refresh the filter drive target from the current measurements.

    Returns the target held for the coming control period; the engine
    integrates ``p.u_state`` towards it at the physics rate and applies that
    state as the actual command.  A stale predecessor beacon returns the
    current state itself, freezing the filter, and sets ``p.stale_held``.
    """
    if now is not None and pred.is_stale(now):
        p.stale_held = True
        return p.u_state
    p.stale_held = False
    return ploeg_target(
        gap_to(ego, pred), ego.speed, ego.accel,
        pred.speed, pred.ctrl_input, p.H, p.kp, p.kd,
    )


# ---------------------------------------------------------------------------
# PATH
# ---------------------------------------------------------------------------

def path_gains(c1: float, xi: float, omega_n: float) -> tuple[float, float, float, float, float]:
    """Derived feedback gains of the PATH constant spacing law.

    Requires 0 < c1 < 1, xi >= 1 and omega_n > 0 so the roots stay real.
    """
    if not 0.0 < c1 < 1.0:
        raise ValueError("c1 must lie in (0, 1)")
    if xi < 1.0:
        raise ValueError("xi must be >= 1")
    if omega_n <= 0.0:
        raise ValueError("omega_n must be positive")
    root = xi + math.sqrt(xi * xi - 1.0)
    alpha1 = 1.0 - c1
    alpha2 = c1
    alpha3 = -(2.0 * xi - c1 * root) * omega_n
    alpha4 = -c1 * root * omega_n
    alpha5 = -(omega_n * omega_n)
    return alpha1, alpha2, alpha3, alpha4, alpha5


@dataclass
class PathParams:
    c1: float = 0.5
    xi: float = 1.0
    omega_n: float = 0.2
    dd: float = 5.0       # constant desired gap [m]
    last_u: float = 0.0   # held when beacons go stale
    stale_held: bool = False
    gains: tuple[float, float, float, float, float] = field(init=False)

    def __post_init__(self):
        self.gains = path_gains(self.c1, self.xi, self.omega_n)


def path_accel(u_pred, u_lead, v, v_pred, v_lead, gap, dd, gains):
    """Constant spacing law with predecessor and leader feed-forward."""
    a1, a2, a3, a4, a5 = gains
    return (
        a1 * u_pred
        + a2 * u_lead
        + a3 * (v - v_pred)
        + a4 * (v - v_lead)
        + a5 * (dd - gap)
    )


def path_control(
    ego: VehicleState,
    pred: Beacon,
    leader: Beacon,
    p: PathParams,
    now: float | None = None,
) -> float:
    """PATH command from predecessor and elected leader beacons."""
    if now is not None and (pred.is_stale(now) or leader.is_stale(now)):
        p.stale_held = True
        return p.last_u
    p.stale_held = False
    u = path_accel(
        pred.ctrl_input, leader.ctrl_input,
        ego.speed, pred.speed, leader.speed,
        gap_to(ego, pred), p.dd, p.gains,
    )
    p.last_u = u
    return u


# ---------------------------------------------------------------------------
# GSBL
# ---------------------------------------------------------------------------

class GsblMode(enum.Enum):
    CRUISE = "cruise"
    OVERRIDE = "override"


@dataclass
class GsblParams:
    k: float = 0.7                     # spring gain [1/s^2]
    h: float = 0.71                    # damper gain [1/s]
    r_default: float = math.sqrt(0.5)  # speed tracking gain [1/s]
    r_min: float = math.sqrt(0.5)
    r_max: float = 8.0
    d: float = 5.0                     # rest gap [m]
    delta_a: float = -2.0              # override deceleration threshold [m/s^2]
    delta_t: float = 1.0               # override speed projection horizon [s]
    r: float = math.sqrt(0.5)
    v_r: float = 0.0                   # speed reference [m/s]
    mode: GsblMode = GsblMode.CRUISE

    def __post_init__(self):
        if not self.r_min <= self.r_max:
            raise ValueError("need r_min <= r_max")


def gsbl_accel(gap_front, v_pred, gap_rear, v_succ, v, v_r, k, h, r, d):
    """Spring-damper field for a member with platoon neighbors on both sides."""
    return (
        k * (gap_front - d)
        - k * (gap_rear - d)
        + h * (v_pred - v)
        + h * (v_succ - v)
        - r * (v - v_r)
    )


def gsbl_accel_tail(gap_front, v_pred, v, v_r, k, h, r, d):
    """Spring-damper field for the last member (no successor)."""
    return k * (gap_front - d) + h * (v_pred - v) - r * (v - v_r)


def gsbl_accel_head(gap_rear, v_succ, v, v_r, k, h, r, d):
    """Spring-damper field for a leaderless head (successor coupling only)."""
    return -k * (gap_rear - d) + h * (v_succ - v) - r * (v - v_r)


def gsbl_control(
    ego: VehicleState,
    pred: Beacon | None,
    succ: Beacon | None,
    p: GsblParams,
) -> float:
    """GSBL command; couples to whichever physical neighbors exist."""
    if pred is None and succ is None:
        raise ValueError("GSBL vehicle needs at least one neighbor")
    if pred is None:
        gap_rear = bumper_gap(succ.position, ego.position, ego.length)
        return gsbl_accel_head(
            gap_rear, succ.speed, ego.speed, p.v_r, p.k, p.h, p.r, p.d
        )
    if succ is None:
        return gsbl_accel_tail(
            gap_to(ego, pred), pred.speed, ego.speed, p.v_r,
            p.k, p.h, p.r, p.d,
        )
    gap_rear = bumper_gap(succ.position, ego.position, ego.length)
    return gsbl_accel(
        gap_to(ego, pred), pred.speed, gap_rear, succ.speed,
        ego.speed, p.v_r, p.k, p.h, p.r, p.d,
    )


def gsbl_mode_update(
    p: GsblParams,
    leader: Beacon,
    ego: VehicleState,
    pred: VehicleState | Beacon,
) -> GsblParams:
    """Supervisory update on reception of a leader beacon.

    A non-negative leader command always restores cruise.  A strongly braking
    leader, or a critically small and closing front gap while the leader
    brakes, forces override; otherwise the state latches.  Override projects
    the leader speed ``delta_t`` ahead and retunes the tracking gain so that
    the commanded deceleration is realized; cruise tracks the leader speed
    with the default gain.  Pure function: returns an updated copy.
    """
    v_l = leader.speed
    u_l = leader.ctrl_input
    mode = p.mode
    if u_l >= 0.0:
        mode = GsblMode.CRUISE
    else:
        hard_braking = u_l <= p.delta_a
        gap = gap_to(ego, pred)
        closing = gap <= GSBL_OVERRIDE_GAP and (ego.speed - pred.speed) > GSBL_CLOSING_SPEED
        if hard_braking or closing:
            mode = GsblMode.OVERRIDE
    if mode is GsblMode.OVERRIDE:
        a_des = u_l
        v_des = v_l + u_l * p.delta_t
        dv = ego.speed - v_des
        if abs(dv) < GSBL_SPEED_GUARD:
            r = p.r_max
        else:
            r = min(p.r_max, max(p.r_min, abs(a_des / dv)))
        return replace(p, mode=mode, v_r=v_des, r=r)
    return replace(p, mode=mode, v_r=v_l, r=p.r_default)


def gsbl_mode_arrays(override, v_l, u_l, v, v_pred, gap, p: GsblParams):
    """Vectorized :func:`gsbl_mode_update`, float for float.

    ``override`` holds the latched modes (True for override); ``v_l``/``u_l``
    are the leader beacons, ``v``/``v_pred`` the ego and predecessor speeds
    and ``gap`` the ego's front bumper gap.  Returns the new override flags,
    speed references and tracking gains.
    """
    trigger = (u_l <= p.delta_a) | (
        (gap <= GSBL_OVERRIDE_GAP) & ((v - v_pred) > GSBL_CLOSING_SPEED)
    )
    override = ~(u_l >= 0.0) & (override | trigger)
    v_des = v_l + u_l * p.delta_t
    dv = v - v_des
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.abs(u_l / dv)
    # Python's max/min return their first argument unless the second is
    # strictly larger/smaller; np.where keeps that rule, NaN included
    gain = np.where(gain > p.r_min, gain, p.r_min)
    gain = np.where(gain < p.r_max, gain, p.r_max)
    gain = np.where(np.abs(dv) < GSBL_SPEED_GUARD, p.r_max, gain)
    return (
        override,
        np.where(override, v_des, v_l),
        np.where(override, gain, p.r_default),
    )


# ---------------------------------------------------------------------------
# IDM
# ---------------------------------------------------------------------------

@dataclass
class IdmParams:
    v0: float = 33.33     # desired speed [m/s], usually overridden per vehicle
    T: float = 1.6        # desired time headway [s]
    a_max: float = 0.73   # maximum acceleration [m/s^2]
    b_comf: float = 1.67  # comfortable deceleration [m/s^2]
    s0: float = 2.0       # standstill gap [m]
    delta: float = 4.0    # free acceleration exponent


def idm_accel(v, gap, v_pred, p: IdmParams, v0=None):
    """IDM acceleration; pass ``gap=None`` for free driving.

    Accepts scalars or arrays.
    """
    if v0 is None:
        v0 = p.v0
    free = 1.0 - (v / v0) ** p.delta
    if gap is None:
        return p.a_max * free
    dv = v - v_pred
    s_star = p.s0 + np.maximum(
        0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b_comf))
    )
    s = np.maximum(gap, 0.01)
    return p.a_max * (free - (s_star / s) ** 2)


def idm_control(ego: VehicleState, pred: VehicleState | Beacon | None, p: IdmParams):
    if pred is None:
        return idm_accel(ego.speed, None, 0.0, p)
    return idm_accel(ego.speed, gap_to(ego, pred), pred.speed, p)


# ---------------------------------------------------------------------------
# Bundled defaults
# ---------------------------------------------------------------------------

@dataclass
class ControllerSet:
    """Default parameter sets for every controller family."""

    acc: AccParams = field(default_factory=AccParams)
    ploeg: PloegParams = field(default_factory=PloegParams)
    path: PathParams = field(default_factory=PathParams)
    gsbl: GsblParams = field(default_factory=GsblParams)
    idm: IdmParams = field(default_factory=IdmParams)

    def equilibrium_gap(self, letter: str, speed: float) -> float:
        """Steady-state bumper gap of a follower controller at a given speed."""
        if letter == "A":
            return self.acc.H * speed
        if letter == "L":
            return self.ploeg.H * speed
        if letter == "P":
            return self.path.dd
        if letter == "G":
            return self.gsbl.d
        if letter == "I":
            return self.idm.s0 + speed * self.idm.T
        raise ValueError(f"unknown controller letter {letter!r}")
