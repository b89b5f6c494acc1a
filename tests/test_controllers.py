"""Law-level tests of the longitudinal controllers against hand-computed values."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mixcacc.config import UsageError
from mixcacc.controllers import (
    CODE_BY_LETTER,
    SET_SPEED_GAIN,
    AccParams,
    Beacon,
    ControllerSet,
    GsblMode,
    GsblParams,
    IdmParams,
    PathParams,
    PloegParams,
    acc_accel,
    GSBL_CLOSING_SPEED,
    GSBL_OVERRIDE_GAP,
    GSBL_SPEED_GUARD,
    _gap,
    acc_control,
    control_tick,
    family_indices,
    gsbl_accel,
    gsbl_control,
    gsbl_mode_arrays,
    gsbl_mode_update,
    idm_accel,
    path_accel,
    path_control,
    path_gains,
    ploeg_control,
    ploeg_target,
)
from mixcacc.dynamics import STANDSTILL_GAP, STANDSTILL_SPEED, VEHICLE_LENGTH, VehicleState


def beacon(vid=0, position=0.0, speed=0.0, accel=0.0, ctrl_input=0.0):
    return Beacon(vid, position, speed, accel, ctrl_input, 0.0)


# ---------------------------------------------------------------------------
# Reference laws: the scalar spring-damper law and supervisor that
# gsbl_control and gsbl_mode_update replaced, kept as test oracles
# ---------------------------------------------------------------------------

def reference_bumper_gap(ego_position, pred_position, pred_length):
    return pred_position - pred_length - ego_position


def reference_gsbl_tail(gap_front, v_pred, v, v_r, k, h, r, d):
    """Spring-damper field for the last member (no successor)."""
    return k * (gap_front - d) + h * (v_pred - v) - r * (v - v_r)


def reference_gsbl_head(gap_rear, v_succ, v, v_r, k, h, r, d):
    """Spring-damper field for a leaderless head (successor coupling only)."""
    return -k * (gap_rear - d) + h * (v_succ - v) - r * (v - v_r)


def reference_gsbl_control(ego, pred, succ, p):
    if pred is None and succ is None:
        raise ValueError("GSBL vehicle needs at least one neighbor")
    if pred is None:
        gap_rear = reference_bumper_gap(succ.position, ego.position, ego.length)
        return reference_gsbl_head(gap_rear, succ.speed, ego.speed, p.v_r, p.k, p.h, p.r, p.d)
    gap_front = reference_bumper_gap(ego.position, pred.position, pred.length)
    if succ is None:
        return reference_gsbl_tail(gap_front, pred.speed, ego.speed, p.v_r,
                                   p.k, p.h, p.r, p.d)
    gap_rear = reference_bumper_gap(succ.position, ego.position, ego.length)
    return gsbl_accel(gap_front, pred.speed, gap_rear, succ.speed,
                      ego.speed, p.v_r, p.k, p.h, p.r, p.d)


def reference_gsbl_mode_update(p, leader, ego, pred):
    v_l = leader.speed
    u_l = leader.ctrl_input
    mode = p.mode
    if u_l >= 0.0:
        mode = GsblMode.CRUISE
    else:
        hard_braking = u_l <= p.delta_a
        gap = reference_bumper_gap(ego.position, pred.position, pred.length)
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


# ---------------------------------------------------------------------------
# beacons and gaps
# ---------------------------------------------------------------------------

def test_bumper_gap_subtracts_predecessor_length():
    # predecessor front bumper at 10 m, 4 m long, ego front bumper at 0
    ego = VehicleState(position=0.0, speed=20.0)
    assert _gap(ego, VehicleState(position=10.0, speed=20.0, length=4.0)) == 6.0


def test_gap_to_uses_vehicle_lengths():
    ego = VehicleState(position=0.0, speed=20.0)
    pred = VehicleState(position=25.0, speed=20.0, length=6.0)
    assert _gap(ego, pred) == 19.0


# ---------------------------------------------------------------------------
# ACC
# ---------------------------------------------------------------------------

def test_acc_approach_two_metres_per_second_fast():
    """Closing at 2 m/s with the spacing error zero commands -(2)/H."""
    # gap term: H v - gap = 1.2 * 30 - 36 = 0, so only the speed error acts
    u = acc_accel(30.0, 28.0, 36.0, 1.2, 0.1)
    assert u == pytest.approx(-5.0 / 3.0, rel=1e-12)


def test_acc_pure_spacing_error():
    # same speeds, gap 6 m short of H v = 36 m: u = -0.1 * 6 / 1.2
    u = acc_accel(30.0, 30.0, 30.0, 1.2, 0.1)
    assert u == pytest.approx(-0.5, rel=1e-12)


def test_acc_equilibrium_is_silent():
    assert acc_accel(25.0, 25.0, 1.2 * 25.0, 1.2, 0.1) == 0.0


def test_acc_control_matches_raw_law():
    p = AccParams()
    ego = VehicleState(position=0.0, speed=30.0)
    pred = VehicleState(position=40.0, speed=28.0)
    assert acc_control(ego, pred, p) == acc_accel(30.0, 28.0, 36.0, p.H, p.lam)


def test_acc_headway_must_be_positive():
    with pytest.raises(ValueError):
        AccParams(H=0.0)


# ---------------------------------------------------------------------------
# Ploeg
# ---------------------------------------------------------------------------

def test_ploeg_one_metre_surplus_gap():
    """A 1 m gap surplus alone drives the filter at kp/H = 0.4 per second."""
    H, kp, kd = 0.5, 0.2, 0.7
    v = 30.0
    target = ploeg_target(H * v + 1.0, v, 0.0, v, 0.0, H, kp, kd)
    assert target == pytest.approx(0.2, rel=1e-12)
    rate = (target - 0.0) / H          # the filter state starts at 0
    assert rate == pytest.approx(0.4, rel=1e-12)
    # a single forward-Euler step over one 0.1 s control period
    assert 0.0 + 0.1 * rate == pytest.approx(0.04, rel=1e-12)


def test_ploeg_braking_predecessor():
    # 5 m deficit and 10 m/s closing: 0.2*(-5) + 0.7*(-10) = -8 target,
    # pulling the filter down at (-8 - 0)/0.5 = -16 per second
    H, kp, kd = 0.5, 0.2, 0.7
    v = 30.0
    target = ploeg_target(H * v - 5.0, v, 0.0, v - 10.0, 0.0, H, kp, kd)
    assert target == pytest.approx(-8.0)
    assert (target - 0.0) / H == pytest.approx(-16.0)


def test_ploeg_feedforward_passes_predecessor_command():
    H, kp, kd = 0.5, 0.2, 0.7
    v = 30.0
    assert ploeg_target(H * v, v, 0.0, v, 1.3, H, kp, kd) == pytest.approx(1.3)


def test_ploeg_control_at_equilibrium_targets_zero():
    p = PloegParams()
    ego = VehicleState(position=0.0, speed=30.0, accel=0.0)
    pred = beacon(position=19.0, speed=30.0)  # gap 15 m = H v
    assert ploeg_control(ego, pred, p) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# PATH
# ---------------------------------------------------------------------------

def test_path_gains_reference_point():
    g = path_gains(0.5, 1.0, 0.2)
    assert g == pytest.approx((0.5, 0.5, -0.3, -0.1, -0.04), rel=0, abs=1e-15)


@pytest.mark.parametrize("c1,xi,omega_n", [
    (0.0, 1.0, 0.2),
    (1.0, 1.0, 0.2),
    (0.5, 0.9, 0.2),
    (0.5, 1.0, 0.0),
])
def test_path_gains_domain(c1, xi, omega_n):
    """The parameters check the gains' precondition against the key domains."""
    with pytest.raises(UsageError):
        PathParams(c1=c1, xi=xi, omega_n=omega_n)


@given(
    st.floats(0.05, 0.95),
    st.floats(1.0, 3.0),
    st.floats(0.05, 2.0),
)
def test_path_gains_structure(c1, xi, omega_n):
    """Feedforward gains split the unit, feedback gains damp and attract."""
    a1, a2, a3, a4, a5 = path_gains(c1, xi, omega_n)
    assert a1 + a2 == pytest.approx(1.0, rel=1e-12)
    assert a3 < 0.0 and a4 < 0.0
    assert a5 == pytest.approx(-omega_n * omega_n, rel=1e-12)


def test_path_accel_equilibrium():
    g = path_gains(0.5, 1.0, 0.2)
    assert path_accel(0.0, 0.0, 25.0, 25.0, 25.0, 5.0, 5.0, g) == 0.0


def test_path_accel_gap_surplus():
    # one metre beyond the design gap pulls forward by omega_n^2
    g = path_gains(0.5, 1.0, 0.2)
    u = path_accel(0.0, 0.0, 25.0, 25.0, 25.0, 6.0, 5.0, g)
    assert u == pytest.approx(0.04, rel=1e-12)


def test_path_accel_leader_braking_feedforward():
    g = path_gains(0.5, 1.0, 0.2)
    u = path_accel(0.0, -8.0, 25.0, 25.0, 25.0, 5.0, 5.0, g)
    assert u == pytest.approx(-4.0, rel=1e-12)


def test_path_control_passes_leader_braking_feedforward():
    p = PathParams()
    ego = VehicleState(position=0.0, speed=25.0)
    pred = beacon(vid=1, position=9.0, speed=25.0)
    leader = beacon(vid=0, position=18.0, speed=25.0, ctrl_input=-8.0)
    u = path_control(ego, pred, leader, p)
    assert u == pytest.approx(-4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# GSBL
# ---------------------------------------------------------------------------

GP = GsblParams()


def test_gsbl_equilibrium_is_silent():
    v = 25.0
    assert gsbl_accel(GP.d, v, GP.d, v, v, v, GP.k, GP.h, GP.r_default, GP.d) == 0.0


def test_gsbl_front_spring_pull():
    v = 25.0
    u = gsbl_accel(GP.d + 1.0, v, GP.d, v, v, v, GP.k, GP.h, GP.r_default, GP.d)
    assert u == pytest.approx(0.7, rel=1e-12)


def test_gsbl_rear_spring_push():
    v = 25.0
    u = gsbl_accel(GP.d, v, GP.d + 1.0, v, v, v, GP.k, GP.h, GP.r_default, GP.d)
    assert u == pytest.approx(-0.7, rel=1e-12)


def test_gsbl_tail_ignores_missing_successor():
    v = 25.0
    ego = VehicleState(position=0.0, speed=v)
    u = gsbl_control(ego, beacon(position=GP.d + 5.0, speed=v), None, replace(GP, v_r=v))
    assert u == pytest.approx(0.7, rel=1e-12)


def test_gsbl_head_rear_spring():
    v = 25.0
    ego = VehicleState(position=0.0, speed=v)
    u = gsbl_control(ego, None, beacon(position=-GP.d - 5.0, speed=v), replace(GP, v_r=v))
    assert u == pytest.approx(-0.7, rel=1e-12)


def test_gsbl_speed_reference_pull():
    v = 25.0
    u = gsbl_accel(GP.d, v, GP.d, v, v, v + 1.0, GP.k, GP.h, GP.r_default, GP.d)
    assert u == pytest.approx(GP.r_default, rel=1e-12)
    assert GP.r_default == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_gsbl_control_dispatch():
    p = GsblParams(v_r=25.0)
    ego = VehicleState(position=0.0, speed=25.0)
    pred = beacon(position=10.0, speed=25.0)   # front gap 6 m
    succ = beacon(position=-9.0, speed=25.0)   # rear gap 5 m
    both = gsbl_control(ego, pred, succ, p)
    assert both == pytest.approx(
        gsbl_accel(6.0, 25.0, 5.0, 25.0, 25.0, 25.0, p.k, p.h, p.r, p.d)
    )
    assert gsbl_control(ego, pred, None, p) == pytest.approx(
        reference_gsbl_tail(6.0, 25.0, 25.0, 25.0, p.k, p.h, p.r, p.d)
    )
    assert gsbl_control(ego, None, succ, p) == pytest.approx(
        reference_gsbl_head(5.0, 25.0, 25.0, 25.0, p.k, p.h, p.r, p.d)
    )
    with pytest.raises(ValueError):
        gsbl_control(ego, None, None, p)


def mode_step(p, u_l, v_l=18.0, ego_v=18.0, gap=30.0, pred_v=18.0):
    leader = beacon(vid=0, position=100.0, speed=v_l, ctrl_input=u_l)
    ego = VehicleState(position=0.0, speed=ego_v)
    pred = VehicleState(position=gap + 4.0, speed=pred_v)
    return gsbl_mode_update(p, leader, ego, pred)


def test_mode_accelerating_leader_restores_cruise():
    p = replace(GsblParams(), mode=GsblMode.OVERRIDE, r=5.0, v_r=10.0)
    p = mode_step(p, u_l=0.5, v_l=20.0)
    assert p.mode is GsblMode.CRUISE
    assert p.v_r == 20.0
    assert p.r == p.r_default


def test_mode_hard_braking_leader_forces_override():
    p = mode_step(GsblParams(), u_l=-2.5, v_l=18.0, ego_v=16.0)
    assert p.mode is GsblMode.OVERRIDE
    # projected reference: 18 + (-2.5)(1 s) = 15.5; gain |u_l| / |16 - 15.5|
    assert p.v_r == pytest.approx(15.5)
    assert p.r == pytest.approx(5.0)


def test_mode_small_closing_gap_forces_override():
    p = mode_step(GsblParams(), u_l=-0.5, v_l=18.0, ego_v=19.0, gap=3.0, pred_v=18.0)
    assert p.mode is GsblMode.OVERRIDE


def test_mode_mild_braking_latches():
    """A mildly braking leader with a safe gap keeps the current mode."""
    cruise = mode_step(GsblParams(), u_l=-0.5, gap=30.0)
    assert cruise.mode is GsblMode.CRUISE
    over = replace(GsblParams(), mode=GsblMode.OVERRIDE)
    over = mode_step(over, u_l=-0.5, v_l=18.0, ego_v=16.0, gap=30.0)
    assert over.mode is GsblMode.OVERRIDE
    # the override retune keeps running while the mode is latched
    assert over.v_r == pytest.approx(17.5)


def test_mode_gain_clamped_to_range():
    slow = mode_step(GsblParams(), u_l=-2.5, v_l=18.0, ego_v=25.0)
    assert slow.r == pytest.approx(GsblParams().r_min)   # 2.5/9.5 clamps up
    fast = mode_step(GsblParams(), u_l=-8.0, v_l=18.0, ego_v=11.0)
    assert fast.r == pytest.approx(8.0)                  # 8/1 caps at r_max


def test_mode_speed_guard_avoids_division_blowup():
    p = mode_step(GsblParams(), u_l=-2.5, v_l=18.0, ego_v=15.5 + 0.005)
    assert p.r == pytest.approx(GsblParams().r_max)


def test_mode_update_is_pure():
    p = GsblParams()
    mode_step(p, u_l=-2.5, v_l=18.0, ego_v=16.0)
    assert p.mode is GsblMode.CRUISE and p.r == p.r_default


def _edgy(lo, hi, *edges):
    """Floats in [lo, hi], with the supervisor's thresholds drawn often."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


_supervisor_case = st.tuples(
    st.booleans(),                                        # latched override
    _edgy(-5.0, 40.0, 0.0, 18.0),                         # leader speed
    _edgy(-10.0, 3.0, 0.0, -0.0, -2.0, -2.5, 1e-300),     # leader command
    _edgy(-5.0, 40.0, 0.0, 15.5, 15.5 + 0.005, 17.99),    # ego speed
    _edgy(-50.0, 100.0, 0.0, 8.0, 7.9),                   # predecessor front bumper
    _edgy(-5.0, 40.0, 0.0, 18.0, 17.9),                   # predecessor speed
)


@given(st.lists(_supervisor_case, min_size=1, max_size=8))
def test_vector_supervisor_equals_scalar_update(cases):
    """gsbl_mode_arrays reproduces the scalar supervisor bit for bit."""
    p = GsblParams()
    over, v_l, u_l, v, pred_x, v_pred = (np.array(col) for col in zip(*cases))
    ego_x = 0.0
    gap = (pred_x - 4.0) - ego_x
    got_over, got_v_r, got_r = gsbl_mode_arrays(over, v_l, u_l, v, v_pred, gap, p)
    for j, (o, vl, ul, ve, px, vp) in enumerate(cases):
        latched = replace(p, mode=GsblMode.OVERRIDE if o else GsblMode.CRUISE)
        want = reference_gsbl_mode_update(
            latched, beacon(speed=vl, ctrl_input=ul),
            VehicleState(position=ego_x, speed=ve), VehicleState(position=px, speed=vp),
        )
        assert bool(got_over[j]) == (want.mode is GsblMode.OVERRIDE)
        assert float(got_v_r[j]).hex() == float(want.v_r).hex()
        assert float(got_r[j]).hex() == float(want.r).hex()


def _signed(lo, hi, *edges):
    """Floats in [lo, hi], with both zeros and the given edges drawn often."""
    return _edgy(lo, hi, 0.0, -0.0, *edges)


_adapter_case = st.fixed_dictionaries({
    "over": st.booleans(),                                   # latched override
    "neighbours": st.sampled_from(["middle", "head", "tail"]),
    "x": _signed(-50.0, 50.0),                               # ego front bumper
    "v": _signed(0.0, 40.0, 18.0),
    "pred_dx": _signed(-20.0, 60.0, 9.0, 8.0, 7.9),          # ahead of the ego
    "v_pred": _signed(0.0, 40.0, 18.0, 17.9),
    "succ_dx": _signed(-60.0, 20.0, -9.0),                   # behind the ego
    "v_succ": _signed(0.0, 40.0, 18.0),
    "v_l": _signed(-5.0, 40.0, 18.0),
    "u_l": st.one_of(_signed(-10.0, 3.0, -2.0, -2.5, 1e-300), st.just(math.nan)),
    "v_r": _signed(0.0, 40.0, 18.0),
    "r": _signed(0.5, 8.0),
})


@given(st.lists(_adapter_case, min_size=1, max_size=8))
@example([dict(over=False, neighbours="head", x=0.0, v=0.0, pred_dx=9.0, v_pred=0.0,
               succ_dx=-9.0, v_succ=-0.0, v_l=0.0, u_l=0.0, v_r=0.0, r=0.5)])
def test_gsbl_adapters_equal_the_scalar_references(cases):
    """gsbl_mode_update and gsbl_control, which run the engine's supervisor
    and field on one vehicle, match the scalar laws they replaced bit for
    bit: signed zeros, NaN leader commands, heads and tails included.

    One exception: the old head field began with ``-k * (gap_rear - d)``,
    the one field begins with ``0.0 - k * (gap_rear - d)``.  At the rest gap
    with a successor speed of -0.0 and every other term zero, the old field
    gave -0.0 and the new one gives 0.0.  No engine state holds a -0.0
    speed: the integrator floors speeds at 0.0.
    """
    for c in cases:
        ego = VehicleState(position=c["x"], speed=c["v"])
        pred = beacon(position=c["x"] + c["pred_dx"], speed=c["v_pred"])
        succ = beacon(position=c["x"] + c["succ_dx"], speed=c["v_succ"])
        leader = beacon(speed=c["v_l"], ctrl_input=c["u_l"])
        p = replace(GsblParams(), mode=GsblMode.OVERRIDE if c["over"] else GsblMode.CRUISE,
                    v_r=c["v_r"], r=c["r"])
        got, want = (f(p, leader, ego, pred)
                     for f in (gsbl_mode_update, reference_gsbl_mode_update))
        assert (float(got.v_r).hex(), float(got.r).hex()) == \
            (float(want.v_r).hex(), float(want.r).hex())
        assert replace(got, v_r=0.0, r=0.0) == replace(want, v_r=0.0, r=0.0)
        ahead = None if c["neighbours"] == "head" else pred
        behind = None if c["neighbours"] == "tail" else succ
        got, want = (f(ego, ahead, behind, p) for f in (gsbl_control, reference_gsbl_control))
        if ahead is None and want == 0.0 and math.copysign(1.0, c["v_succ"]) < 0.0:
            assert got == want
        else:
            assert float(got).hex() == float(want).hex(), c["neighbours"]
    for f in (gsbl_control, reference_gsbl_control):
        with pytest.raises(ValueError):
            f(ego, None, None, p)


# ---------------------------------------------------------------------------
# One control tick over arrays
# ---------------------------------------------------------------------------

_speed = _edgy(0.0, 40.0, 0.0, 0.2, 0.49, 18.0)
_vehicle = st.fixed_dictionaries({
    # letter, then for G: which neighbours it has, head (successor only),
    # middle (both) or tail (predecessor only)
    "family": st.sampled_from(["A", "L", "P", "I", "G-head", "G-middle", "G-tail"]),
    "led": st.booleans(),                      # G only: has an elected leader
    "over": st.booleans(),                     # latched override
    "v": _speed,
    "a": _edgy(-9.0, 2.5, 0.0),
    "pred_x": _edgy(-20.0, 120.0, 6.0, 8.0, 7.9),   # front bumper; ego's is at 0
    "v_pred": _speed,
    "u_pred": _edgy(-9.0, 2.5, 0.0),
    "v_lead": _speed,
    "u_lead": _edgy(-10.0, 3.0, 0.0, -2.0, -2.5),
    "succ_x": st.floats(-150.0, -4.5),
    "v_succ": _speed,
    "desired": st.one_of(st.just(math.inf), st.floats(10.0, 40.0)),
    "v_ref": _speed,
})


def _reference(c, ctrl):
    """Command, hold and override of one vehicle from the per-vehicle laws."""
    family = c["family"]
    ego = VehicleState(position=0.0, speed=c["v"], accel=c["a"])
    has_pred = family != "G-head"
    pred = beacon(position=c["pred_x"], speed=c["v_pred"], ctrl_input=c["u_pred"])
    leader = beacon(speed=c["v_lead"], ctrl_input=c["u_lead"])
    succ = beacon(position=c["succ_x"], speed=c["v_succ"])
    over = False
    if family == "A":
        u = min(acc_control(ego, pred, ctrl.acc), SET_SPEED_GAIN * (c["desired"] - c["v"]))
    elif family == "L":
        u = ploeg_control(ego, pred, ctrl.ploeg)
    elif family == "P":
        u = path_control(ego, pred, leader, ctrl.path)
    elif family == "I":
        # numpy's array power rounds unlike Python's float power, so the
        # reference is the law on one vehicle's arrays, as the ring runs it
        u = idm_accel(*(np.array([x]) for x in (c["v"], _gap(ego, pred), c["v_pred"])),
                      ctrl.idm, v0=np.array([c["desired"]]))[0]
    else:
        p = ctrl.gsbl
        if c["led"] and has_pred:
            latched = GsblMode.OVERRIDE if c["over"] else GsblMode.CRUISE
            p = reference_gsbl_mode_update(replace(p, mode=latched), leader, ego, pred)
            over = p.mode is GsblMode.OVERRIDE
        else:
            p = replace(p, v_r=c["v_ref"], r=p.r_default)
        u = reference_gsbl_control(ego, pred if has_pred else None,
                                   None if family == "G-tail" else succ, p)
    hold = has_pred and c["v"] < STANDSTILL_SPEED and c["v_pred"] < STANDSTILL_SPEED \
        and _gap(ego, pred) < STANDSTILL_GAP
    return u, hold, over


_INDICES = ("pred", "lead", "succ")     # control_tick's neighbour index arrays


def _tick_state(cases):
    """The family codes and control_tick's arguments for the drawn vehicles,
    laid out as one 1-D state of four cars each: car 4k is the k-th drawn
    vehicle and cars 4k+1, 4k+2 and 4k+3 its predecessor, elected leader
    and platoon successor, which run no law.  A spring-damper head is its
    own predecessor."""
    nan, inf = math.nan, math.inf
    rows = []   # code, v, a, u, gap, pred, has_pred, lead, succ, v_ref, desired, override
    for k, c in enumerate(cases):
        e, family = 4 * k, c["family"]
        has_pred = family != "G-head"
        led = family == "P" or c["led"] and has_pred
        rows += [
            (CODE_BY_LETTER[family[0]], c["v"], c["a"], 0.0,
             (c["pred_x"] - 4.0) - 0.0 if has_pred else nan, e + has_pred, has_pred,
             e + 2 if led else -1, e + 3 if family != "G-tail" else -1,
             c["v_ref"], c["desired"], c["over"]),
            (-1, c["v_pred"], 0.0, c["u_pred"], nan, e + 1, False, -1, -1, 0.0, inf, False),
            (-1, c["v_lead"], 0.0, c["u_lead"], nan, e + 2, False, -1, -1, 0.0, inf, False),
            (-1, c["v_succ"], 0.0, 0.0, (0.0 - 4.0) - c["succ_x"], e + 3, False, -1, -1,
             0.0, inf, False),
        ]
    code, *cols = map(np.array, zip(*rows))
    names = ("v", "a", "u", "gap", "pred", "has_pred", "lead", "succ", "v_ref", "desired",
             "override")
    return code, dict(zip(names, cols))


@given(st.lists(_vehicle, min_size=1, max_size=10))
def test_control_tick_equals_the_per_vehicle_laws(cases):
    """control_tick reproduces every family's per-vehicle law bit for bit,
    spring-damper heads, tails and cars without a leader included, gathering
    each car's neighbours from the state by index."""
    ctrl = ControllerSet()
    code, state = _tick_state(cases)
    u, hold, over = control_tick(family_indices(code), ctrl=ctrl, **state)
    for k, c in enumerate(cases):
        want_u, want_hold, want_over = _reference(c, ctrl)
        assert float(u[4 * k]).hex() == float(want_u).hex(), c["family"]
        assert bool(hold[4 * k]) == want_hold
        assert bool(over[4 * k]) == want_over
    others = code == -1
    assert not u[others].any() and not hold[others].any() and not over[others].any()


def _laid_out(name, a, layout):
    """One (n,) state array as the rows of a state: (1, n), (n, 1) or two
    copies, where the second copy's neighbour indices point into its own
    row."""
    if layout == "stacked":
        return np.stack([a, np.where(a >= 0, a + a.size, -1) if name in _INDICES else a])
    return {"row": a[None, :], "column": a[:, None]}[layout]


@given(st.lists(_vehicle, min_size=1, max_size=10),
       st.sampled_from(["row", "column", "stacked"]))
def test_control_tick_on_rows_equals_the_one_dimensional_tick(cases, layout):
    """The same vehicles laid out as (rows, n) state, as the batched engine
    holds them, get the commands, holds and latches of the 1-D tick, with
    the family and neighbour indices flat over the 2-D state."""
    ctrl = ControllerSet()
    code, state = _tick_state(cases)
    want = control_tick(family_indices(code), ctrl=ctrl, **state)
    got = control_tick(family_indices(_laid_out("code", code, layout)), ctrl=ctrl,
                       **{name: _laid_out(name, a, layout) for name, a in state.items()})
    for g, w in zip(got, want):
        w = np.broadcast_to(w, (g.size // code.size, code.size))
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()    # bit for bit, in row order


@given(st.sampled_from([(1,), (12,), (1, 7), (6, 1), (3, 5)]),
       st.sets(st.integers(-1, 4), min_size=1).flatmap(
           lambda present: st.lists(st.sampled_from(sorted(present)), min_size=15, max_size=15)))
def test_family_indices_equal_the_np_unique_listing(shape, draw):
    """The families of any code layout, 1-D or 2-D, come out as
    ``np.unique`` would list them: the same codes in ascending order, each
    with the same flat indices, byte for byte; an absent family is left out."""
    code = np.array(draw[:math.prod(shape)], dtype=np.int8).reshape(shape)
    want = [(f, np.flatnonzero(code.ravel() == f)) for f in np.unique(code)]
    got = family_indices(code)
    assert [int(f) for f, _ in got] == [int(f) for f, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@given(st.sampled_from("AI"), _speed, st.floats(10.0, 40.0), st.floats(10.0, 5000.0))
def test_a_lone_ring_car_follows_itself(letter, v, desired, circumference):
    """A car alone in its lane is its own predecessor, at the gap the lane
    index gives it, C - L, and ACC and IDM read that gap and the car's own
    speed, bit for bit as the per-vehicle laws do; it is never held."""
    ctrl = ControllerSet()
    gap = circumference - VEHICLE_LENGTH
    ego = VehicleState(position=0.0, speed=v)
    ahead = beacon(position=circumference, speed=v)     # itself, one lap on
    one = np.array([0])
    u, hold, over = control_tick(
        family_indices(np.array([CODE_BY_LETTER[letter]])), np.array([v]), np.zeros(1),
        np.zeros(1), np.array([gap]), one, one != 0, one - 1, one - 1, np.zeros(1),
        np.array([desired]), np.zeros(1, dtype=bool), ctrl)
    if letter == "A":
        want = min(acc_control(ego, ahead, ctrl.acc), SET_SPEED_GAIN * (desired - v))
    else:
        want = idm_accel(np.array([v]), np.array([_gap(ego, ahead)]), np.array([v]), ctrl.idm,
                         v0=np.array([desired]))[0]
    assert float(u[0]).hex() == float(want).hex()
    assert not hold[0] and not over[0]


# ---------------------------------------------------------------------------
# IDM
# ---------------------------------------------------------------------------

def test_idm_free_acceleration_at_half_desired_speed():
    p = IdmParams()
    a = idm_accel(15.0, math.inf, 0.0, p, v0=30.0)
    # 1 - (1/2)^4 = 0.9375 of the maximum acceleration
    assert a == pytest.approx(0.9375 * p.a_max, rel=1e-12)


def test_idm_desired_speed_override():
    p = IdmParams()
    assert idm_accel(10.0, math.inf, 0.0, p, v0=20.0) == pytest.approx(0.9375 * p.a_max)


def test_idm_standing_start_near_full_throttle():
    p = IdmParams()
    a = idm_accel(0.0, 1000.0, 0.0, p, v0=30.0)
    assert a == pytest.approx(p.a_max, rel=1e-3)


def test_idm_short_gap_brakes():
    p = IdmParams()
    assert idm_accel(20.0, p.s0 + 20.0 * p.T, 20.0, p, v0=30.0) < 0.0
    # closing fast onto a slow predecessor is much worse
    assert idm_accel(20.0, 10.0, 5.0, p, v0=30.0) < -3.0


# ---------------------------------------------------------------------------
# controller set
# ---------------------------------------------------------------------------

def test_equilibrium_gaps():
    cs = ControllerSet()
    v = 27.78
    assert cs.equilibrium_gap("A", v) == pytest.approx(1.2 * v)
    assert cs.equilibrium_gap("L", v) == pytest.approx(0.5 * v)
    assert cs.equilibrium_gap("P", v) == 5.0
    assert cs.equilibrium_gap("G", v) == 5.0
    with pytest.raises(ValueError):
        cs.equilibrium_gap("-", v)
