"""Unit tests of the first-order actuation lag integrator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mixcacc.dynamics import (
    STANDSTILL_BRAKE,
    DynamicsParams,
    VehicleState,
    advance,
    step_arrays,
    step_vehicle,
)


def reference_step_vehicle(state, u_cmd, params, emergency=False):
    """The scalar stepper :func:`step_vehicle` replaced: clamp, then one
    semi-implicit Euler step of the lag, speed and position."""
    if not math.isfinite(u_cmd):
        raise ValueError(f"non-finite control input: {u_cmd!r}")
    lo = params.emergency_u_min if emergency else params.u_min
    u = min(params.u_max, max(lo, u_cmd))
    accel = state.accel + (params.dt / params.tau) * (u - state.accel)
    speed = state.speed + accel * params.dt
    if speed <= 0.0:
        speed = 0.0
        if accel < 0.0:
            accel = 0.0
    position = state.position + speed * params.dt
    return replace(state, position=position, speed=speed, accel=accel, ctrl_input=u)


def run_steps(state, u, params, steps, emergency=False):
    for _ in range(steps):
        state = step_vehicle(state, u, params, emergency)
    return state


def test_step_response_at_one_time_constant():
    """After t = tau the realized accel sits near 63 percent of the step."""
    p = DynamicsParams()
    steps = round(p.tau / p.dt)
    s = run_steps(VehicleState(position=0.0, speed=10.0), 1.0, p, steps)
    # discrete pole of the lag: a/u = 1 - (1 - dt/tau)^N after N steps
    expected = 1.0 - (1.0 - p.dt / p.tau) ** steps
    assert s.accel == pytest.approx(expected, rel=1e-12)
    assert 0.62 <= s.accel <= 0.645


def test_step_response_converges_within_five_time_constants():
    p = DynamicsParams()
    steps = round(5.0 * p.tau / p.dt)
    s = run_steps(VehicleState(position=0.0, speed=10.0), 1.0, p, steps)
    assert abs(s.accel - 1.0) < 0.01


def test_step_response_dt_refinement():
    """Halving dt moves the t = tau response by less than half a percent."""
    responses = {}
    for dt in (0.01, 0.005):
        p = DynamicsParams(dt=dt)
        steps = round(p.tau / dt)
        responses[dt] = run_steps(VehicleState(position=0.0, speed=10.0), 1.0, p, steps).accel
    rel = abs(responses[0.01] - responses[0.005]) / responses[0.005]
    assert rel < 0.005


def test_zero_input_is_a_fixed_point():
    p = DynamicsParams()
    s = VehicleState(position=5.0, speed=0.0, accel=0.0)
    s2 = step_vehicle(s, 0.0, p)
    assert (s2.position, s2.speed, s2.accel) == (5.0, 0.0, 0.0)


def test_constant_speed_advances_position_linearly():
    p = DynamicsParams()
    s = VehicleState(position=0.0, speed=20.0, accel=0.0)
    s = run_steps(s, 0.0, p, 100)
    assert s.position == pytest.approx(20.0 * 100 * p.dt)
    assert s.speed == pytest.approx(20.0)


def test_standstill_zeroes_negative_accel():
    """A braked, stopped vehicle must not report phantom deceleration."""
    p = DynamicsParams()
    s = VehicleState(position=0.0, speed=0.05, accel=-2.0)
    s = run_steps(s, -8.0, p, 50)
    assert s.speed == 0.0
    assert s.accel == 0.0
    s2 = step_vehicle(s, -8.0, p)
    assert s2.position == s.position


def test_service_and_emergency_clamp():
    p = DynamicsParams()

    def applied(u, emergency=False):
        return step_vehicle(VehicleState(position=0.0, speed=10.0), u, p, emergency).ctrl_input

    assert applied(-12.0) == p.u_min
    assert applied(-12.0, emergency=True) == p.emergency_u_min
    assert applied(-8.5) == p.u_min
    assert applied(-8.5, emergency=True) == -8.5
    assert applied(5.0) == p.u_max
    assert applied(1.0) == 1.0


def test_ctrl_input_records_clamped_command():
    p = DynamicsParams()
    s = step_vehicle(VehicleState(position=0.0, speed=10.0), -20.0, p)
    assert s.ctrl_input == p.u_min
    s = step_vehicle(VehicleState(position=0.0, speed=10.0), -20.0, p, emergency=True)
    assert s.ctrl_input == p.emergency_u_min


def test_step_arrays_matches_scalar_stepper():
    """The vectorized stepper must reproduce the scalar one bit for bit."""
    p = DynamicsParams()
    rng = np.random.default_rng(3)
    n, steps = 5, 200
    pos = rng.uniform(0.0, 100.0, n)
    speed = rng.uniform(0.0, 30.0, n)
    accel = rng.uniform(-1.0, 1.0, n)
    states = [
        VehicleState(position=pos[i], speed=speed[i], accel=accel[i])
        for i in range(n)
    ]
    pos, speed, accel = pos.copy(), speed.copy(), accel.copy()
    for _ in range(steps):
        u = rng.uniform(-12.0, 5.0, n)
        # the array form always admits commands down to the emergency floor,
        # which matches the scalar form with the emergency flag raised
        states = [reference_step_vehicle(s, u[i], p, emergency=True)
                  for i, s in enumerate(states)]
        step_arrays(pos, speed, accel, u.copy(), p)
    for i, s in enumerate(states):
        assert pos[i] == s.position
        assert speed[i] == s.speed
        assert accel[i] == s.accel


def test_step_arrays_clips_commands_in_place():
    p = DynamicsParams()
    u = np.array([-12.0, 3.0, -8.5])
    step_arrays(np.zeros(3), np.full(3, 10.0), np.zeros(3), u, p)
    assert list(u) == [p.emergency_u_min, p.u_max, -8.5]


def test_lag_free_tau_tracks_command_immediately():
    p = DynamicsParams()
    accel = np.zeros(2)
    step_arrays(np.zeros(2), np.full(2, 10.0), accel, np.array([1.5, -2.0]), p,
                tau=np.full(2, p.dt))
    assert list(accel) == [1.5, -2.0]


@pytest.mark.parametrize("kwargs", [
    {"tau": 0.0},
    {"dt": -0.01},
    {"u_min": 0.5},
    {"u_max": -1.0},
    {"emergency_u_min": -7.0},
    {"tau": 0.004},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        DynamicsParams(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_command_rejected(bad):
    p = DynamicsParams()
    with pytest.raises(ValueError):
        step_vehicle(VehicleState(position=0.0, speed=10.0), bad, p)


def test_lag_as_short_as_the_step_tracks_the_command_in_one_step():
    p = DynamicsParams(tau=0.01, dt=0.01)
    assert step_vehicle(VehicleState(position=0.0, speed=10.0), 1.5, p).accel == 1.5


_edge = st.sampled_from([0.0, -0.0])
_step_case = st.tuples(
    st.one_of(_edge, st.floats(-1e4, 1e4)),                     # position
    st.one_of(_edge, st.floats(0.0, 40.0), st.floats(0.0, 0.1)),  # speed, crawling too
    st.one_of(_edge, st.floats(-9.5, 3.0)),                     # realized acceleration
    # commands beyond both actuator clamps, on them and at ±0.0
    st.one_of(_edge, st.sampled_from([-9.0, -8.0, 2.5]), st.floats(-15.0, 6.0)),
    st.booleans(),                                              # emergency
)


@given(st.lists(_step_case, min_size=1, max_size=5))
def test_step_vehicle_equals_the_scalar_reference(cases):
    """step_vehicle runs advance on one vehicle and matches the scalar
    stepper it replaced bit for bit, signed zeros included."""
    p = DynamicsParams()
    for x, v, a, u, emergency in cases:
        state = VehicleState(position=x, speed=v, accel=a)
        got = step_vehicle(state, u, p, emergency)
        want = reference_step_vehicle(state, u, p, emergency)
        for name in ("position", "speed", "accel", "ctrl_input"):
            assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name


@given(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=60))
def test_speed_never_negative(cmds):
    """No command sequence can drive the integrator to a negative speed."""
    p = DynamicsParams()
    s = VehicleState(position=0.0, speed=2.0)
    for u in cmds:
        s = step_vehicle(s, u, p)
        assert s.speed >= 0.0


def reference_advance(pos, speed, accel, u, params, steps, hold, ploeg, filt, filter_tau,
                      tau=None):
    """:func:`advance` as a plain substep loop: every substep moves the
    filter of every vehicle and clamps every command."""
    gain = params.dt / filter_tau
    lag_gain = params.dt / (params.tau if tau is None else tau)
    buf = np.empty_like(pos)
    cmd = u.copy()
    for _ in range(steps):
        np.subtract(u, filt, out=buf)
        buf *= gain
        filt += buf
        np.copyto(cmd, filt, where=ploeg)
        np.minimum(cmd, STANDSTILL_BRAKE, out=cmd, where=hold)
        np.maximum(cmd, params.emergency_u_min, out=cmd)
        np.minimum(cmd, params.u_max, out=cmd)
        np.subtract(cmd, accel, out=buf)
        buf *= lag_gain
        accel += buf
        np.multiply(accel, params.dt, out=buf)
        speed += buf
        stopped = speed <= 0.0
        speed[stopped] = 0.0
        accel[stopped & (accel < 0.0)] = 0.0
        np.multiply(speed, params.dt, out=buf)
        pos += buf
    return cmd


@st.composite
def _advance_case(draw):
    shape = draw(st.sampled_from([(1,), (7,), (1, 5), (3, 4)]))

    def floats(*ranges):
        return draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            *(st.floats(lo, hi) for lo, hi in ranges))))

    def mask():
        return draw(st.one_of(st.just(np.zeros(shape, dtype=bool)), hnp.arrays(bool, shape)))

    p = DynamicsParams()
    # crawling cars under braking reach standstill within the tick
    speed = floats((0.0, 0.3), (0.0, 30.0))
    accel = floats((-9.5, 3.0))
    # commands beyond both actuator clamps, and the held brake
    u = floats((-15.0, 6.0), (-0.6, -0.4))
    tau = draw(st.sampled_from([None, "lag-free"]))
    if tau == "lag-free":
        tau = np.where(mask(), p.dt, p.tau)
    return (floats((-100.0, 100.0)), speed, accel, u, p, draw(st.integers(1, 10)), mask(),
            mask(), floats((-10.0, 4.0)), draw(st.sampled_from([0.2, 0.5])), tau)


def _assert_advance_equals_the_substep_loop(pos, speed, accel, u, p, steps, hold, ploeg, filt,
                                            filter_tau, tau=None):
    want = [a.copy() for a in (pos, speed, accel, filt)]
    want_cmd = reference_advance(*want[:3], u, p, steps, hold, ploeg, want[3], filter_tau, tau)
    before = filt.copy()
    cmd = advance(pos, speed, accel, u, p, steps, hold, np.flatnonzero(ploeg), filt, filter_tau,
                  tau)
    for got, ref in zip((pos, speed, accel, cmd), (*want[:3], want_cmd)):
        assert got.tobytes() == ref.tobytes()
    assert filt[ploeg].tobytes() == want[3][ploeg].tobytes()
    # only Ploeg cars read their filter, so no other entry moves
    assert filt[~ploeg].tobytes() == before[~ploeg].tobytes()


@settings(max_examples=300, deadline=None)
@given(_advance_case())
def test_block_filter_advance_equals_the_substep_loop(case):
    _assert_advance_equals_the_substep_loop(*case)


def test_block_filter_advance_writes_back_into_a_prefix_view():
    """After a batch shrinks, its filter states are ``block[:k]``, a prefix
    view of the rows it started with: the filter's write-back lands in the
    block, and the dropped rows are left alone."""
    p = DynamicsParams()
    rng = np.random.default_rng(3)
    pos, speed, accel, u = (rng.uniform(lo, hi, (2, 5)) for lo, hi in
                            ((-50.0, 50.0), (5.0, 30.0), (-2.0, 2.0), (-3.0, 2.0)))
    ploeg = rng.uniform(size=(2, 5)) < 0.5
    ploeg[0, 1] = True
    hold = np.zeros((2, 5), dtype=bool)
    block = rng.uniform(-2.0, 2.0, (4, 5))
    want = [a.copy() for a in (pos, speed, accel)] + [block[:2].copy()]
    want_cmd = reference_advance(*want[:3], u, p, 10, hold, ploeg, want[3], 0.5)
    before = block.copy()
    filt = block[:2]
    cmd = advance(pos, speed, accel, u, p, 10, hold, np.flatnonzero(ploeg), filt, 0.5)
    for got, ref in zip((pos, speed, accel, cmd), (*want[:3], want_cmd)):
        assert got.tobytes() == ref.tobytes()
    assert block[:2][ploeg].tobytes() == want[3][ploeg].tobytes()
    assert block[:2][~ploeg].tobytes() == before[:2][~ploeg].tobytes()
    assert block[2:].tobytes() == before[2:].tobytes()



@st.composite
def _standstill_case(draw):
    """An :func:`_advance_case` whose speeds sit at or near standstill, or
    at and around the period's speed bound of the standstill screen, and
    whose commands may hold a NaN row.  At the bound, every car may already
    apply its command, where the bound is tight."""
    case = list(draw(_advance_case()))
    speed, accel, u, p, steps, hold, ploeg, filt = case[1:9]
    near = draw(hnp.arrays(np.float64, speed.shape, elements=st.sampled_from(
        [0.0, -1e-6, 1e-9, 1e-6, 2e-6, 1e-3])))
    pick = draw(st.sampled_from(["as drawn", "standstill", "at the bound", "tight"]))
    if pick == "tight":
        np.copyto(filt, u, where=ploeg)
        accel[...] = np.clip(np.where(hold, np.minimum(u, STANDSTILL_BRAKE), u),
                             p.emergency_u_min, p.u_max)
    if pick == "standstill":
        speed[...] = np.abs(near)
    elif pick != "as drawn":
        low = np.minimum(np.minimum(accel, np.maximum(u, p.emergency_u_min)), 0.0)
        speed[...] = np.maximum(near - steps * p.dt * low, 0.0)
    if draw(st.booleans()):
        u[0] = np.nan
    return case



@settings(max_examples=300, deadline=None)
@given(_standstill_case())
def test_the_standstill_screen_changes_no_bit(case):
    """advance, which tests for standstill only in a period where some car
    may stop, equals the loop that tests every substep, bit for bit."""
    _assert_advance_equals_the_substep_loop(*case)


@pytest.mark.parametrize("case", ["at its command", "Ploeg filter", "NaN row"])
def test_the_standstill_screen_tests_a_car_that_stops(case):
    """A car that stops in the period's last substep, braking at its
    command; a Ploeg car whose filter brakes harder than its command; and a
    stopping car beside a row of NaN commands."""
    p = DynamicsParams()
    # a cruising car, and one braking at its command that stops in substep 10
    speed, accel, u = np.array([[10.0, 0.8 - 1e-6], [0.0, -8.0], [0.0, -8.0]])[:, :, None]
    filt, ploeg = np.zeros((2, 1)), np.zeros((2, 1), dtype=bool)
    if case == "Ploeg filter":      # the braking car cruises, the other filters
        speed[1], accel[1], u[1] = 10.0, 0.0, 0.0
        speed[0], filt[0], ploeg[0] = 0.05, -9.0, True
    elif case == "NaN row":
        u[0] = np.nan
    _assert_advance_equals_the_substep_loop(np.zeros((2, 1)), speed, accel, u, p, 10,
                                            np.zeros((2, 1), dtype=bool), ploeg, filt, 0.5)
    assert speed[0 if case == "Ploeg filter" else 1] == 0.0
