"""End-to-end behavior of the single-platoon disturbance engine."""

import numpy as np
import pytest

from mixcacc.metrics import sinusoidal_window
from mixcacc.scenarios import (
    BRAKING,
    SINUSOIDAL,
    ScenarioError,
    SingleScenario,
    events_csv,
    leader_target_accel,
    leader_target_speed,
    run_platoon_batch,
    run_single_platoon,
)


def follower_min_gap(trace):
    return float(np.nanmin(trace.gap[:, 1:]))


# ---------------------------------------------------------------------------
# commanded head profiles
# ---------------------------------------------------------------------------

def test_sinusoidal_profile_values():
    scn = SingleScenario(kind=SINUSOIDAL, config="-L")
    assert leader_target_speed(scn, 0.0) == pytest.approx(27.78)
    # quarter period of the 0.1 Hz swing peaks at base + amplitude
    assert leader_target_speed(scn, 2.5) == pytest.approx(30.56)
    assert leader_target_accel(scn, 0.0) == pytest.approx(
        2.78 * 2.0 * np.pi * 0.1
    )


def test_braking_profile_values():
    scn = SingleScenario(kind=BRAKING, config="-L")
    assert leader_target_speed(scn, 29.9) == pytest.approx(27.78)
    assert leader_target_accel(scn, 29.9) == 0.0
    assert leader_target_accel(scn, 30.0) == -8.0
    # the ramp hits zero at 30 + 27.78 / 8 and stays there
    assert leader_target_speed(scn, 30.0 + 27.78 / 8.0) == pytest.approx(0.0, abs=1e-9)
    assert leader_target_speed(scn, 40.0) == 0.0
    assert leader_target_accel(scn, 40.0) == 0.0


def test_default_durations():
    assert SingleScenario(kind=SINUSOIDAL, config="-L").duration == 100.0
    assert SingleScenario(kind=BRAKING, config="-L").duration == 60.0


@pytest.mark.parametrize("kwargs", [
    {"kind": "zigzag"},
    {"kind": SINUSOIDAL, "duration": -1.0},
    {"kind": SINUSOIDAL, "frequency": 0.0},
])
def test_invalid_scenarios_rejected(kwargs):
    with pytest.raises(ScenarioError):
        SingleScenario(config="-L", **{"kind": SINUSOIDAL, **kwargs})


def test_constant_spacing_follower_needs_a_leader():
    # a platoon of only 'P' vehicles has nobody to elect
    with pytest.raises(ScenarioError):
        run_single_platoon(SingleScenario(kind=SINUSOIDAL, config="PPP"))


# ---------------------------------------------------------------------------
# equilibrium and convergence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", ["-AAA", "-LLL", "-PPP", "-GGG", "-PLG"])
def test_equilibrium_start_is_a_fixed_point(config):
    """With a flat profile the warm-started platoon must not move an inch."""
    scn = SingleScenario(kind=SINUSOIDAL, config=config, duration=20.0, amplitude=0.0)
    tr = run_single_platoon(scn)
    assert not tr.terminated_by_collision
    drift = np.nanmax(np.abs(tr.gap - tr.gap[0]))
    assert drift < 1e-9
    assert np.all(np.abs(tr.speed - 27.78) < 1e-9)


@pytest.mark.parametrize("letter,target", [
    ("A", 1.2 * 27.78),
    ("L", 0.5 * 27.78),
    ("P", 5.0),
    ("G", 5.0),
])
def test_two_vehicle_gap_recovers_from_surplus(letter, target):
    scn = SingleScenario(
        kind=SINUSOIDAL, config="-" + letter, duration=80.0,
        amplitude=0.0, initial_gap_offsets={1: 10.0},
    )
    tr = run_single_platoon(scn)
    assert not tr.terminated_by_collision
    k60 = np.flatnonzero(tr.times >= 60.0)[0]
    assert abs(tr.gap[k60, 1] - target) < 0.1
    # closing a surplus never requires dramatic speed excursions
    assert tr.speed[:, 1].min() > 20.0


def test_head_is_independent_of_followers():
    a = run_single_platoon(SingleScenario(kind=SINUSOIDAL, config="-LLL"))
    b = run_single_platoon(SingleScenario(kind=SINUSOIDAL, config="-PPP"))
    assert np.array_equal(a.speed[:, 0], b.speed[:, 0])
    assert np.array_equal(a.position[:, 0], b.position[:, 0])


def test_bidirectional_head_rides_the_profile_as_one_body():
    """A platoon headed by the spring-damper law swings with the speed target.

    The head couples to the reference through its tracking gain while the
    springs keep the formation rigid, so every member shares the head's
    motion and the design gap barely breathes.
    """
    tr = run_single_platoon(SingleScenario(kind=SINUSOIDAL, config="GGGG"))
    assert not tr.terminated_by_collision
    assert (tr.mode[:, 0] >= 0).all()
    m = tr.window_mask(30.0, 80.0)   # five full periods
    for i in range(tr.n_vehicles):
        s = tr.speed[m, i]
        assert s.mean() == pytest.approx(27.78, abs=0.05)
        amp = (s.max() - s.min()) / 2.0
        assert 1.0 < amp <= 2.78     # attenuated, never amplified
    assert np.nanmax(np.abs(tr.gap[m, 1:] - 5.0)) < 1e-6


def test_string_amplitude_decays_towards_the_tail():
    w = sinusoidal_window(30.0, 0.1)
    for config in ("-LLLLLLL", "-PPPPPPP"):
        tr = run_single_platoon(SingleScenario(kind=SINUSOIDAL, config=config))
        m = tr.window_mask(w.t0, w.t1)
        amp = [
            (tr.speed[m, i].max() - tr.speed[m, i].min()) / 2.0
            for i in range(tr.n_vehicles)
        ]
        assert amp[7] <= amp[1]
    # predecessor following attenuates monotonically behind the first follower
    tr = run_single_platoon(SingleScenario(kind=SINUSOIDAL, config="-LLLLLLL"))
    m = tr.window_mask(w.t0, w.t1)
    amp = [(tr.speed[m, i].max() - tr.speed[m, i].min()) / 2.0 for i in range(8)]
    assert all(amp[i] > amp[i + 1] for i in range(1, 7))


# ---------------------------------------------------------------------------
# collisions and trace bookkeeping
# ---------------------------------------------------------------------------

def test_overlapping_start_truncates_immediately():
    scn = SingleScenario(kind=BRAKING, config="-AA", initial_gap_offsets={1: -34.4})
    tr = run_single_platoon(scn)
    assert tr.terminated_by_collision
    assert tr.times.size == 2
    assert tr.gap[-1, 1] <= 0.0
    ev = tr.events[-1]
    assert (ev.kind, ev.veh_a, ev.veh_b) == ("collision", 1, 0)


def test_trace_csv_schema():
    tr = run_single_platoon(SingleScenario(kind=SINUSOIDAL, config="-PL", duration=1.0))
    rows = tr.rows_csv(header_comment="check").splitlines()
    assert rows[0] == "# check"
    assert rows[1] == "t,veh,lane,x,v,a,u,gap,ctrl,mode"
    assert len(rows) == 2 + tr.times.size * tr.n_vehicles
    events = events_csv(tr.events).splitlines()
    assert events[0] == "t,kind,veh_a,veh_b,detail"


def test_trace_is_byte_deterministic():
    scn = SingleScenario(kind=SINUSOIDAL, config="-PLG")
    a = run_single_platoon(scn).serialize()
    b = run_single_platoon(scn).serialize()
    assert a == b


def test_control_period_must_divide_into_physics_steps():
    with pytest.raises(ScenarioError):
        run_single_platoon(
            SingleScenario(kind=SINUSOIDAL, config="-L"), control_dt=0.015
        )


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def test_batch_row_with_a_rejected_setup_leaves_the_others_running():
    scns = [SingleScenario(kind=SINUSOIDAL, config=c, duration=5.0)
            for c in ("-PL", "PPP", "-LL")]
    got = run_platoon_batch(scns)
    assert isinstance(got[1], ScenarioError)
    for scn, trace in zip(scns[::2], got[::2]):
        assert trace.serialize() == run_single_platoon(scn).serialize()


def test_batch_needs_one_platoon_size():
    with pytest.raises(ScenarioError, match="one platoon size"):
        run_platoon_batch([SingleScenario(kind=SINUSOIDAL, config="-PL"),
                           SingleScenario(kind=SINUSOIDAL, config="-PLG")])


def test_non_finite_command_fails_its_row_and_a_single_run_raises():
    bad = SingleScenario(kind=BRAKING, config="-LA", duration=5.0,
                         initial_gap_offsets={2: float("nan")})
    good = SingleScenario(kind=BRAKING, config="-LA", duration=5.0)
    failed, trace = run_platoon_batch([bad, good])
    assert isinstance(failed, ValueError)
    assert str(failed) == "non-finite control input: nan"
    assert trace.serialize() == run_single_platoon(good).serialize()
    with pytest.raises(ValueError, match="non-finite control input"):
        run_single_platoon(bad)


# ---------------------------------------------------------------------------
# hard braking clearance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("letter", ["P", "G", "L"])
def test_homogeneous_brake_chains_keep_half_metre_clearance(letter):
    """Homogeneous chains should stop with at least half a metre to spare.

    The time-headway spacing of the 'L' law contracts towards zero as the
    platoon comes to rest, so its parked clearance falls short of this
    margin.  The shortfall is deterministic; see the README discussion of
    known limits.  Contact itself never happens (the gap stays positive).
    """
    for n in (2, 4, 6, 8):
        config = "-" + letter * (n - 1)
        tr = run_single_platoon(SingleScenario(kind=BRAKING, config=config))
        assert not tr.terminated_by_collision
        low = follower_min_gap(tr)
        assert low > 0.0, f"{config} reached contact"
        assert low > 0.5, f"{config} closed to {low:.3f} m"
