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
interchangeably.  Both simulation engines make every control decision through
one call of :func:`control_tick` over arrays of gathered neighbour state.  The
per-vehicle ``*_control`` functions and :func:`gsbl_mode_update` take one
vehicle's state and beacons and run the same raw laws and supervisor on it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dynamics import STANDSTILL_GAP, STANDSTILL_SPEED, VEHICLE_LENGTH, VehicleState

# Family codes of the array engines, in the order of LETTER_BY_CODE.
CODE_ACC = 0
CODE_PLOEG = 1
CODE_PATH = 2
CODE_GSBL = 3
CODE_IDM = 4
LETTER_BY_CODE = "ALPGI"
CODE_BY_LETTER = {c: i for i, c in enumerate(LETTER_BY_CODE)}

SET_SPEED_GAIN = 1.0    # 1/s, cruise term that caps ACC below its desired speed

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


def _gap(ego: VehicleState | Beacon, pred: VehicleState | Beacon):
    """Bumper-to-bumper distance between ego and its predecessor."""
    return pred.position - pred.length - ego.position


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
    return acc_accel(ego.speed, pred.speed, _gap(ego, pred), p.H, p.lam)


# ---------------------------------------------------------------------------
# Ploeg
# ---------------------------------------------------------------------------

@dataclass
class PloegParams:
    H: float = 0.5        # time headway [s]
    kp: float = 0.2
    kd: float = 0.7

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


def ploeg_control(ego: VehicleState, pred: Beacon, p: PloegParams) -> float:
    """Refresh the filter drive target from the current measurements.

    Returns the target held for the coming control period; the engine
    integrates its filter state towards it at the physics rate and applies
    that state as the actual command.
    """
    return ploeg_target(
        _gap(ego, pred), ego.speed, ego.accel,
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


def path_control(ego: VehicleState, pred: Beacon, leader: Beacon, p: PathParams) -> float:
    """PATH command from predecessor and elected leader beacons."""
    return path_accel(
        pred.ctrl_input, leader.ctrl_input,
        ego.speed, pred.speed, leader.speed,
        _gap(ego, pred), p.dd, p.gains,
    )


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
    """Spring-damper field of a member and its physical neighbours.

    A missing neighbour is passed at rest, with gap ``d`` and the ego's
    speed ``v``: its spring and damper terms are then exactly zero.
    """
    return (
        k * (gap_front - d)
        - k * (gap_rear - d)
        + h * (v_pred - v)
        + h * (v_succ - v)
        - r * (v - v_r)
    )


def gsbl_control(ego: VehicleState, pred: Beacon | None, succ: Beacon | None,
                 p: GsblParams) -> float:
    """GSBL command; couples to whichever physical neighbors exist."""
    if pred is None and succ is None:
        raise ValueError("GSBL vehicle needs at least one neighbor")
    gap_front, v_pred = (p.d, ego.speed) if pred is None else (_gap(ego, pred), pred.speed)
    gap_rear, v_succ = (p.d, ego.speed) if succ is None else (_gap(succ, ego), succ.speed)
    return gsbl_accel(gap_front, v_pred, gap_rear, v_succ, ego.speed, p.v_r, p.k, p.h, p.r, p.d)


def gsbl_mode_update(p: GsblParams, leader: Beacon, ego: VehicleState,
                     pred: VehicleState | Beacon) -> GsblParams:
    """Supervisory update on reception of a leader beacon: :func:`gsbl_mode_arrays`
    on one vehicle.  Pure function: returns an updated copy."""
    # numpy scalars: the supervisor negates modes with ``~``, which is -2 on True
    f = np.float64
    over, v_r, r = gsbl_mode_arrays(
        np.bool_(p.mode is GsblMode.OVERRIDE), f(leader.speed), f(leader.ctrl_input),
        f(ego.speed), f(pred.speed), f(_gap(ego, pred)), p,
    )
    mode = GsblMode.OVERRIDE if over else GsblMode.CRUISE
    return replace(p, mode=mode, v_r=float(v_r), r=float(r))


def gsbl_mode_arrays(override, v_l, u_l, v, v_pred, gap, p: GsblParams):
    """Supervisory update of every spring-damper car on its leader's beacon.

    A non-negative leader command always restores cruise.  A strongly braking
    leader, or a critically small and closing front gap while the leader
    brakes, forces override; otherwise the mode latches.  Override projects
    the leader speed ``delta_t`` ahead and retunes the tracking gain so that
    the commanded deceleration is realized; cruise tracks the leader speed
    with the default gain.

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
    # clamp to [r_min, r_max]; a NaN gain takes r_min
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
    v0: float = 33.33     # no effect: IDM cars drive their own desired speed
    T: float = 1.6        # desired time headway [s]
    a_max: float = 0.73   # maximum acceleration [m/s^2]
    b_comf: float = 1.67  # comfortable deceleration [m/s^2]
    s0: float = 2.0       # standstill gap [m]
    delta: float = 4.0    # free acceleration exponent


def idm_accel(v, gap, v_pred, p: IdmParams, v0):
    """IDM acceleration toward the desired speed ``v0``.

    Accepts scalars or arrays.
    """
    free = 1.0 - (v / v0) ** p.delta
    dv = v - v_pred
    s_star = p.s0 + np.maximum(
        0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b_comf))
    )
    s = np.maximum(gap, 0.01)
    return p.a_max * (free - (s_star / s) ** 2)


# ---------------------------------------------------------------------------
# One control tick over arrays
# ---------------------------------------------------------------------------

class Neighbour(NamedTuple):
    """Gathered state of one neighbour of every vehicle.

    ``present`` marks the vehicles that have this neighbour; elsewhere the
    other fields hold placeholders that no law reads.  A field that no law
    reads for this neighbour is ``None``.
    """

    speed: np.ndarray
    cmd: np.ndarray | None
    gap: np.ndarray | None
    present: np.ndarray


def family_masks(code):
    """``(family, mask)`` of every family present in ``code``."""
    return [(family, code == family) for family in np.unique(code)]


def control_tick(families, v, a, pred: Neighbour, lead: Neighbour, succ: Neighbour,
                 v_ref, desired, override, ctrl: ControllerSet):
    """Commands of every vehicle for one control period.

    ``families`` holds the :func:`family_masks` of the vehicles' codes
    (``CODE_*``; any other family gets a zero command for its engine to
    replace), which never change during a run.  ``v`` and ``a`` are each
    vehicle's speed and realized acceleration.  ``pred`` is the physical
    predecessor (speed, command, bumper gap), ``lead`` the elected leader
    (speed, command) and ``succ`` the platoon successor (speed, and its own
    front gap, which is the vehicle's rear gap).  ``v_ref`` is the speed
    reference of a spring-damper car without a leader and ``desired`` the
    cruise speed that caps ACC (``inf`` leaves the ACC law alone) and drives
    IDM.  ``override`` holds the latched supervisor modes.  Every array
    broadcasts against ``v``, and each entry equals the per-vehicle law float
    for float.

    Returns the commands, the auto-hold mask and the new override latches,
    which only spring-damper cars with a leader can hold.  Held vehicles
    still get their law's command: what they may apply is capped by
    :func:`dynamics.advance`.
    """
    u = np.zeros(np.shape(v))
    latch = np.zeros(np.shape(v), dtype=bool)
    for family, m in families:
        if family == CODE_ACC:
            law = np.minimum(acc_accel(v, pred.speed, pred.gap, ctrl.acc.H, ctrl.acc.lam),
                             SET_SPEED_GAIN * (desired - v))
        elif family == CODE_PLOEG:
            p = ctrl.ploeg
            law = ploeg_target(pred.gap, v, a, pred.speed, pred.cmd, p.H, p.kp, p.kd)
        elif family == CODE_PATH:
            law = path_accel(pred.cmd, lead.cmd, v, pred.speed, lead.speed, pred.gap,
                             ctrl.path.dd, ctrl.path.gains)
        elif family == CODE_IDM:
            law = idm_accel(v, pred.gap, pred.speed, ctrl.idm, v0=desired)
        elif family == CODE_GSBL:
            p = ctrl.gsbl
            new, v_r, r = gsbl_mode_arrays(override, lead.speed, lead.cmd, v, pred.speed,
                                           pred.gap, p)
            led = m & lead.present
            latch = new & led
            v_r = np.where(led, v_r, v_ref)
            r = np.where(led, r, p.r_default)
            law = gsbl_accel(np.where(pred.present, pred.gap, p.d),
                             np.where(pred.present, pred.speed, v),
                             np.where(succ.present, succ.gap, p.d),
                             np.where(succ.present, succ.speed, v), v, v_r, p.k, p.h, r, p.d)
        else:
            continue
        np.copyto(u, law, where=m)
    # auto-hold keeps crawling queues parked instead of creeping into contact
    hold = pred.present & (v < STANDSTILL_SPEED) & (pred.speed < STANDSTILL_SPEED) \
        & (pred.gap < STANDSTILL_GAP)
    return u, hold, latch


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
        raise ValueError(f"unknown controller letter {letter!r}")
