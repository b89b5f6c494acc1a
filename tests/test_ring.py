"""Ring-road spawning, lane changes and full-run bookkeeping."""

import numpy as np
import pytest

from mixcacc import ring
from mixcacc.controllers import PloegParams, ploeg_target
from mixcacc.dynamics import STANDSTILL_BRAKE, DynamicsParams
from mixcacc.experiments import ring_run_metrics
from mixcacc.ring import (
    CODE_ACC,
    CODE_GSBL,
    CODE_IDM,
    CODE_PATH,
    CODE_PLOEG,
    LaneChangeParams,
    RingSpec,
    SpawnError,
    _lane_change_pass,
    _lane_sort,
    detect_collisions,
    lane_change_decision,
    run_ring,
    spawn_ring_traffic,
)

ACC_H = 1.2


def sandbox_world():
    """Ten satisfied singles parked far apart in the right lane.

    Parked in lane 0 and cruising at their desired speed they neither keep
    right nor overtake, so posed actors are the only ones that may move.
    """
    w = spawn_ring_traffic(RingSpec(density=1, seed=0))
    w.lane[:] = 0
    w.pos[:] = 6500.0 + 350.0 * np.arange(w.n)
    w.speed[:] = 30.0
    w.desired[:] = 30.0
    w.platoon_id[:] = -1
    w.member_succ[:] = -1
    w.ego_leader[:] = -1
    w.lc_last[:] = -np.inf
    w.code[:] = CODE_ACC
    return w


# ---------------------------------------------------------------------------
# spawning
# ---------------------------------------------------------------------------

def test_spawn_counts_at_half_penetration():
    spec = RingSpec(density=60, penetration=0.5, platoon_size=8, seed=4)
    w = spawn_ring_traffic(spec)
    assert w.n == 600
    members = w.platoon_id >= 0
    assert int(members.sum()) == 296            # 37 full platoons of 8
    assert np.unique(w.platoon_id[members]).size == 37
    assert int((~members).sum()) == 304
    assert len(detect_collisions(w)) == 0


def test_spawn_low_density_all_singles():
    w = spawn_ring_traffic(RingSpec(density=10, penetration=0.0, seed=1))
    assert w.n == 100
    assert (w.platoon_id < 0).all()
    assert (w.code == CODE_ACC).all()


def test_spawn_idm_baseline_at_high_density():
    w = spawn_ring_traffic(RingSpec(density=180, baseline="IDM", seed=2))
    assert w.n == 1800
    assert (w.code == CODE_IDM).all()
    assert len(detect_collisions(w)) == 0


def test_spawn_policy_is_irrelevant_without_platoons():
    a = spawn_ring_traffic(RingSpec(density=20, penetration=0.0, platoon_policy="P", seed=3))
    b = spawn_ring_traffic(RingSpec(density=20, penetration=0.0, platoon_policy="G", seed=3))
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.lane, b.lane)
    assert np.array_equal(a.speed, b.speed)


def test_spawned_platoons_are_coherent():
    spec = RingSpec(density=40, penetration=0.5, platoon_size=4, seed=2)
    w = spawn_ring_traffic(spec)
    C = spec.circumference
    pids = np.unique(w.platoon_id[w.platoon_id >= 0])
    assert pids.size == 50
    for pid in pids:
        idx = np.flatnonzero(w.platoon_id == pid)
        assert list(idx) == list(range(idx[0], idx[0] + 4))
        head, members = idx[0], idx[1:]
        assert w.code[head] == CODE_ACC
        assert (w.code[members] == CODE_PATH).all()
        assert (w.lane[idx] == w.lane[head]).all()
        assert np.ptp(w.desired[idx]) == 0.0
        # members sit behind their predecessor at the design gap
        for i in idx[1:]:
            gap = (w.pos[i - 1] - w.length[i - 1] - w.pos[i]) % C
            assert gap == pytest.approx(5.0, abs=1e-9)
        assert (w.ego_leader[members] == head).all()
        assert list(w.member_succ[idx[:-1]]) == list(idx[1:])
        assert w.member_succ[idx[-1]] == -1


def test_spawn_mixed_policy_draws_from_three_laws():
    spec = RingSpec(density=60, penetration=0.75, platoon_size=8,
                    platoon_policy="MIX", seed=8)
    w = spawn_ring_traffic(spec)
    members = w.platoon_id >= 0
    follower = members & (w.code != CODE_ACC)
    seen = set(np.unique(w.code[follower]))
    assert seen <= {CODE_PLOEG, CODE_PATH, CODE_GSBL}
    assert len(seen) == 3


def test_spawn_rejects_impossible_density():
    with pytest.raises(SpawnError):
        spawn_ring_traffic(RingSpec(density=500))


@pytest.mark.parametrize("kwargs", [
    {"density": 0.0},
    {"density": 60, "penetration": 1.5},
    {"density": 60, "platoon_policy": "RND"},
    {"density": 60, "baseline": "CAV"},
    {"density": 60, "penetration": 0.5, "platoon_size": 1},
    {"density": 60, "speed_classes_kmh": (100.0, 115.0)},
])
def test_ring_spec_validation(kwargs):
    with pytest.raises(SpawnError):
        RingSpec(**kwargs)


# ---------------------------------------------------------------------------
# lane changes
# ---------------------------------------------------------------------------

LC = LaneChangeParams()


def test_keep_right_on_open_road():
    w = sandbox_world()
    w.lane[0] = 1
    w.pos[0] = 5000.0
    L = _lane_sort(w)
    assert lane_change_decision(w, 0, L, LC, ACC_H) == "right"


def test_blocked_vehicle_overtakes_left():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0            # 26 m bumper gap ahead
    w.speed[[0, 1]] = 20.0       # below 90 percent of the desired 30
    L = _lane_sort(w)
    assert lane_change_decision(w, 0, L, LC, ACC_H) == "left"


def test_unsafe_target_gap_stays():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0
    w.speed[[0, 1]] = 20.0
    w.lane[2] = 1
    w.pos[2] = 5002.0            # alongside in the target lane
    w.speed[2] = 20.0
    L = _lane_sort(w)
    assert lane_change_decision(w, 0, L, LC, ACC_H) == "stay"


def test_never_squeeze_between_platoon_members():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0
    w.speed[[0, 1]] = 20.0
    # a platoon brackets the tempting gap in the target lane
    w.lane[[3, 4]] = 1
    w.pos[3] = 5100.0
    w.pos[4] = 4900.0
    w.speed[[3, 4]] = 30.0
    w.platoon_id[[3, 4]] = 7
    L = _lane_sort(w)
    assert lane_change_decision(w, 0, L, LC, ACC_H) == "stay"


def test_lane_change_pass_honours_cooldown():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0
    w.speed[[0, 1]] = 20.0
    events = []
    w.lc_last[0] = 9.0           # changed one second ago, cooldown is five
    L, moved = _lane_change_pass(w, _lane_sort(w), 10.0, LC, ACC_H, events)
    assert not moved and w.lane[0] == 0
    w.lc_last[0] = -np.inf
    L, moved = _lane_change_pass(w, _lane_sort(w), 10.0, LC, ACC_H, events)
    assert moved and w.lane[0] == 1
    assert events and events[-1].kind == "lane_change"


def test_platoon_members_never_change_lanes():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0
    w.speed[[0, 1]] = 20.0
    w.platoon_id[0] = 0
    L, moved = _lane_change_pass(w, _lane_sort(w), 10.0, LC, ACC_H, [])
    assert not moved and w.lane[0] == 0


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------

def test_detect_collisions_same_lane_overlap():
    w = sandbox_world()
    w.lane[[5, 6]] = 2
    w.pos[5] = 1000.0
    w.pos[6] = 1003.0            # front bumpers 3 m apart, cars are 4 m long
    ev = detect_collisions(w, t=2.0)
    assert len(ev) == 1
    assert (ev[0].veh_a, ev[0].veh_b) == (5, 6)


def test_detect_collisions_ignores_other_lanes():
    w = sandbox_world()
    w.lane[5] = 2
    w.lane[6] = 1
    w.pos[5] = 1000.0
    w.pos[6] = 1003.0
    assert detect_collisions(w) == []


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_free_flow():
    spec = RingSpec(density=10, duration=60.0, warmup=30.0, seed=9)
    return spec, run_ring(spec)


def test_free_flow_obeys_the_flow_identity(short_free_flow):
    """Counted throughput must match density times mean speed roughly."""
    spec, tr = short_free_flow
    m = ring_run_metrics(tr)
    assert not m["collided"]
    expected = spec.density * m["mean_speed"] * 3.6
    assert abs(m["throughput"] - expected) / expected < 0.10


def test_ring_bookkeeping(short_free_flow):
    spec, tr = short_free_flow
    assert tr.n_vehicles == 100
    assert tr.end_time == pytest.approx(90.0)
    assert tr.speed_samples.shape == (tr.sample_times.size, 100)
    assert np.allclose(np.diff(tr.sample_times), spec.volatility_sample_dt)
    assert set(tr.counter_devices) <= {"N", "E", "S", "W"}
    assert tr.counter_vehicles.max() < 100
    lines = tr.counters_csv().splitlines()
    assert lines[0] == "t,device,veh,lane"
    assert len(lines) == 1 + tr.counter_times.size


def test_ring_is_byte_deterministic():
    spec = RingSpec(density=20, penetration=0.25, platoon_size=4,
                    platoon_policy="MIX", duration=30.0, warmup=15.0, seed=6)
    a = run_ring(spec).serialize()
    b = run_ring(spec).serialize()
    assert a == b


def test_held_ploeg_filter_tracks_the_unclamped_target(monkeypatch):
    """Auto-hold caps what a held Ploeg car applies, not the target its
    actuation filter tracks, on the ring as in the single platoon."""
    w = sandbox_world()
    # a crawling two-car platoon in the left lane: ACC head 1, Ploeg car 0
    w.lane[[0, 1]] = 2
    w.pos[1] = 3000.0
    w.pos[0] = 3000.0 - 4.0 - 2.0            # 2 m bumper gap
    w.speed[[0, 1]] = 0.2
    w.platoon_id[[0, 1]] = 1
    w.code[0] = CODE_PLOEG
    w.ego_leader[0] = 1
    w.member_succ[1] = 0
    monkeypatch.setattr(ring, "spawn_ring_traffic", lambda spec, ctrl, rng: w)
    run_ring(RingSpec(density=1, duration=0.1, warmup=0.0))

    p, dyn = PloegParams(), DynamicsParams()
    target = ploeg_target(2.0, 0.2, 0.0, 0.2, 0.0, p.H, p.kp, p.kd)
    assert target > 0.0
    filt = 0.0
    for _ in range(round(0.1 / dyn.dt)):
        filt += dyn.dt / p.H * (target - filt)
    assert w.ploeg_u[0] == pytest.approx(filt, rel=1e-12)
    assert w.u_cmd[0] == STANDSTILL_BRAKE
