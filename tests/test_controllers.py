"""Law-level tests of the longitudinal controllers against hand-computed values."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixcacc.controllers import (
    AccParams,
    Beacon,
    ControllerSet,
    GsblMode,
    GsblParams,
    IdmParams,
    PathParams,
    PloegParams,
    acc_accel,
    acc_control,
    bumper_gap,
    cruise_accel,
    gap_to,
    gsbl_accel,
    gsbl_accel_head,
    gsbl_accel_tail,
    gsbl_control,
    gsbl_mode_arrays,
    gsbl_mode_update,
    idm_accel,
    idm_control,
    path_accel,
    path_control,
    path_gains,
    ploeg_accel_rate,
    ploeg_control,
    ploeg_target,
)
from mixcacc.dynamics import VehicleState


def beacon(vid=0, position=0.0, speed=0.0, accel=0.0, ctrl_input=0.0, t=0.0):
    return Beacon(vid, position, speed, accel, ctrl_input, t)


# ---------------------------------------------------------------------------
# beacons and gaps
# ---------------------------------------------------------------------------

def test_bumper_gap_subtracts_predecessor_length():
    # predecessor front bumper at 10 m, 4 m long, ego front bumper at 0
    assert bumper_gap(0.0, 10.0, 4.0) == 6.0


def test_gap_to_uses_vehicle_lengths():
    ego = VehicleState(position=0.0, speed=20.0)
    pred = VehicleState(position=25.0, speed=20.0)
    assert gap_to(ego, pred) == 21.0


def test_beacon_age_and_staleness():
    b = beacon(t=1.0)
    assert b.age(1.2) == pytest.approx(0.2)
    assert not b.is_stale(1.2)
    assert b.is_stale(1.3 + 1e-6)


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


def test_cruise_accel_gain():
    assert cruise_accel(20.0, 24.0) == pytest.approx(2.0)
    assert cruise_accel(24.0, 24.0) == 0.0


# ---------------------------------------------------------------------------
# Ploeg
# ---------------------------------------------------------------------------

def test_ploeg_one_metre_surplus_gap():
    """A 1 m gap surplus alone drives the filter at kp/H = 0.4 per second."""
    H, kp, kd = 0.5, 0.2, 0.7
    v = 30.0
    target = ploeg_target(H * v + 1.0, v, 0.0, v, 0.0, H, kp, kd)
    assert target == pytest.approx(0.2, rel=1e-12)
    rate = ploeg_accel_rate(0.0, H * v + 1.0, v, 0.0, v, 0.0, H, kp, kd)
    assert rate == pytest.approx(0.4, rel=1e-12)
    # a single forward-Euler step over one 0.1 s control period
    assert 0.0 + 0.1 * rate == pytest.approx(0.04, rel=1e-12)


def test_ploeg_braking_predecessor():
    # 5 m deficit and 10 m/s closing: 0.2*(-5) + 0.7*(-10) = -8 target,
    # pulling the filter down at (-8 - 0)/0.5 = -16 per second
    H, kp, kd = 0.5, 0.2, 0.7
    v = 30.0
    assert ploeg_target(H * v - 5.0, v, 0.0, v - 10.0, 0.0, H, kp, kd) == pytest.approx(-8.0)
    assert ploeg_accel_rate(0.0, H * v - 5.0, v, 0.0, v - 10.0, 0.0, H, kp, kd) == pytest.approx(-16.0)


def test_ploeg_feedforward_passes_predecessor_command():
    H, kp, kd = 0.5, 0.2, 0.7
    v = 30.0
    assert ploeg_target(H * v, v, 0.0, v, 1.3, H, kp, kd) == pytest.approx(1.3)


def test_ploeg_control_fresh_and_stale():
    p = PloegParams(u_state=0.5)
    ego = VehicleState(position=0.0, speed=30.0, accel=0.0)
    pred = beacon(position=19.0, speed=30.0, t=0.0)  # gap 15 m = H v
    assert ploeg_control(ego, pred, p, now=0.05) == pytest.approx(0.0)
    assert not p.stale_held
    # beacon older than the staleness bound: the filter freezes on its state
    assert ploeg_control(ego, pred, p, now=0.4) == 0.5
    assert p.stale_held


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
    with pytest.raises(ValueError):
        path_gains(c1, xi, omega_n)


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


def test_path_control_holds_last_command_on_stale_leader():
    p = PathParams()
    ego = VehicleState(position=0.0, speed=25.0)
    pred = beacon(vid=1, position=9.0, speed=25.0, t=1.0)
    leader = beacon(vid=0, position=18.0, speed=25.0, ctrl_input=-8.0, t=1.0)
    u = path_control(ego, pred, leader, p, now=1.05)
    assert u == pytest.approx(-4.0, rel=1e-12)
    assert p.last_u == u
    stale_leader = replace(leader, timestamp=0.0)
    assert path_control(ego, pred, stale_leader, p, now=1.05) == u
    assert p.stale_held


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
    u = gsbl_accel_tail(GP.d + 1.0, v, v, v, GP.k, GP.h, GP.r_default, GP.d)
    assert u == pytest.approx(0.7, rel=1e-12)


def test_gsbl_head_rear_spring():
    v = 25.0
    u = gsbl_accel_head(GP.d + 1.0, v, v, v, GP.k, GP.h, GP.r_default, GP.d)
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
        gsbl_accel_tail(6.0, 25.0, 25.0, 25.0, p.k, p.h, p.r, p.d)
    )
    assert gsbl_control(ego, None, succ, p) == pytest.approx(
        gsbl_accel_head(5.0, 25.0, 25.0, 25.0, p.k, p.h, p.r, p.d)
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
    """gsbl_mode_arrays reproduces gsbl_mode_update bit for bit."""
    p = GsblParams()
    over, v_l, u_l, v, pred_x, v_pred = (np.array(col) for col in zip(*cases))
    ego_x = 0.0
    gap = (pred_x - 4.0) - ego_x
    got_over, got_v_r, got_r = gsbl_mode_arrays(over, v_l, u_l, v, v_pred, gap, p)
    for j, (o, vl, ul, ve, px, vp) in enumerate(cases):
        latched = replace(p, mode=GsblMode.OVERRIDE if o else GsblMode.CRUISE)
        want = gsbl_mode_update(
            latched, beacon(speed=vl, ctrl_input=ul),
            VehicleState(position=ego_x, speed=ve), VehicleState(position=px, speed=vp),
        )
        assert bool(got_over[j]) == (want.mode is GsblMode.OVERRIDE)
        assert float(got_v_r[j]).hex() == float(want.v_r).hex()
        assert float(got_r[j]).hex() == float(want.r).hex()


# ---------------------------------------------------------------------------
# IDM
# ---------------------------------------------------------------------------

def test_idm_free_acceleration_at_half_desired_speed():
    p = IdmParams()
    a = idm_accel(p.v0 / 2.0, None, 0.0, p)
    # 1 - (1/2)^4 = 0.9375 of the maximum acceleration
    assert a == pytest.approx(0.9375 * p.a_max, rel=1e-12)


def test_idm_desired_speed_override():
    p = IdmParams()
    assert idm_accel(10.0, None, 0.0, p, v0=20.0) == pytest.approx(0.9375 * p.a_max)


def test_idm_standing_start_near_full_throttle():
    p = IdmParams()
    a = idm_accel(0.0, 1000.0, 0.0, p)
    assert a == pytest.approx(p.a_max, rel=1e-3)


def test_idm_short_gap_brakes():
    p = IdmParams()
    assert idm_accel(20.0, p.s0 + 20.0 * p.T, 20.0, p) < 0.0
    # closing fast onto a slow predecessor is much worse
    assert idm_accel(20.0, 10.0, 5.0, p) < -3.0


def test_idm_control_free_road():
    p = IdmParams()
    ego = VehicleState(position=0.0, speed=p.v0 / 2.0)
    assert idm_control(ego, None, p) == pytest.approx(0.9375 * p.a_max)


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
    assert cs.equilibrium_gap("I", v) == pytest.approx(2.0 + 1.6 * v)
    with pytest.raises(ValueError):
        cs.equilibrium_gap("-", v)
