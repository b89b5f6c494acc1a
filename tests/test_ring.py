"""Ring-road spawning, lane changes and full-run bookkeeping."""

import bisect
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixcacc import ring
from mixcacc.config import RunError, UsageError
from mixcacc.controllers import (
    CODE_ACC,
    CODE_GSBL,
    CODE_IDM,
    CODE_PATH,
    CODE_PLOEG,
    ControllerSet,
    PloegParams,
    ploeg_target,
)
from mixcacc.dynamics import STANDSTILL_BRAKE, VEHICLE_LENGTH, DynamicsParams
from mixcacc.experiments import ring_run_metrics
from mixcacc.ring import (
    RingSpec,
    _change_lane,
    _lane_change_pass,
    _lane_sort,
    detect_collisions,
    lane_change_decision,
    run_ring,
    spawn_ring_traffic,
)
from test_golden_traces import RING as GOLDEN_RING, ring_trace

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
    assert len(detect_collisions(w, _lane_sort(w))) == 0


def test_spawn_low_density_all_singles():
    w = spawn_ring_traffic(RingSpec(density=10, penetration=0.0, seed=1))
    assert w.n == 100
    assert (w.platoon_id < 0).all()
    assert (w.code == CODE_ACC).all()


def test_spawn_idm_baseline_at_high_density():
    w = spawn_ring_traffic(RingSpec(density=180, baseline="IDM", seed=2))
    assert w.n == 1800
    assert (w.code == CODE_IDM).all()
    assert len(detect_collisions(w, _lane_sort(w))) == 0


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
    with pytest.raises(UsageError):
        spawn_ring_traffic(RingSpec(density=500))


def test_spec_rejects_a_density_beyond_bumper_to_bumper():
    """A spec whose cars do not fit even bumper to bumper fails at once,
    before a spawn sizes any array from the density."""
    with pytest.raises(UsageError, match="geometric limit"):
        RingSpec(density=1e9)


def test_spec_names_a_circumference_that_is_not_positive():
    with pytest.raises(UsageError, match="circumference must be positive"):
        RingSpec(density=10, circumference=-5000.0)


@pytest.mark.parametrize("kwargs", [
    {"density": 0.0},
    {"density": 60, "penetration": 1.5},
    {"density": 60, "platoon_policy": "RND"},
    {"density": 60, "baseline": "CAV"},
    {"density": 60, "penetration": 0.5, "platoon_size": 1},
    {"density": 60, "speed_classes_kmh": (100.0, 115.0)},
    {"density": 60, "duration": 0.0},
    {"density": 60, "duration": -200.0},
    {"density": 60, "warmup": -50.0, "duration": 20.0},
    {"density": 60, "platoon_size": 0},
    {"density": 60, "counter_window": 0.05},
    {"density": 60, "counter_window": math.inf},
    {"density": 60, "counter_window": math.nan},
    {"density": 10, "duration": 1.0, "warmup": 1e12},
    {"density": 60, "speed_jitter_kmh": -5.0},
    {"density": 60, "speed_classes_kmh": (3.0, 3.0, 3.0)},
    {"density": 10, "circumference": -5000.0},
    {"density": 10, "lanes": 0, "speed_classes_kmh": ()},
    {"density": 10, "lanes": -1, "speed_classes_kmh": ()},
    {"density": 10, "control_dt": 0.0},
    {"density": 10, "control_dt": math.nan},
])
def test_ring_spec_validation(kwargs):
    with pytest.raises(UsageError) as info:
        RingSpec(**kwargs)
    if "lanes" in kwargs:   # blamed on the lane count, not on the density or speed classes
        assert "lanes" in str(info.value)


# ---------------------------------------------------------------------------
# lane changes
# ---------------------------------------------------------------------------

def test_keep_right_on_open_road():
    w = sandbox_world()
    w.lane[0] = 1
    w.pos[0] = 5000.0
    L = _lane_sort(w)
    assert lane_change_decision(w, 0, L, ACC_H) == "right"


def test_blocked_vehicle_overtakes_left():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0            # 26 m bumper gap ahead
    w.speed[[0, 1]] = 20.0       # below 90 percent of the desired 30
    L = _lane_sort(w)
    assert lane_change_decision(w, 0, L, ACC_H) == "left"


@pytest.mark.parametrize("alongside,decision", [(True, "left"), (False, "right")])
def test_blocked_middle_lane_car_checks_both_sides_in_one_call(monkeypatch, alongside,
                                                                decision):
    """A blocked car in the middle lane may keep right or overtake.  One
    gap check tries both sides, and keep right wins where both are open."""
    w = sandbox_world()
    w.lane[[0, 1]] = 1
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0            # 26 m bumper gap ahead
    w.speed[[0, 1]] = 20.0       # below 90 percent of the desired 30
    if alongside:                # the right lane is taken
        w.pos[2], w.speed[2] = 5002.0, 20.0
    L = _lane_sort(w)
    targets = []
    real = ring._vec_target_check
    monkeypatch.setattr(ring, "_vec_target_check",
                        lambda *args: targets.append(np.ravel(args[3]).tolist()) or real(*args))
    assert lane_change_decision(w, 0, L, ACC_H) == decision
    assert targets == [[0, 2]]


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
    assert lane_change_decision(w, 0, L, ACC_H) == "stay"


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
    assert lane_change_decision(w, 0, L, ACC_H) == "stay"


def test_lane_change_pass_honours_cooldown():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0
    w.speed[[0, 1]] = 20.0
    events = []
    w.lc_last[0] = 9.0           # changed one second ago, cooldown is five
    _lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, events)
    assert not events and w.lane[0] == 0
    w.lc_last[0] = -np.inf
    _lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, events)
    assert w.lane[0] == 1
    assert [e.kind for e in events] == ["lane_change"]


def test_platoon_members_never_change_lanes():
    w = sandbox_world()
    w.lane[[0, 1]] = 0
    w.pos[0] = 5000.0
    w.pos[1] = 5030.0
    w.speed[[0, 1]] = 20.0
    w.platoon_id[0] = 0
    events = []
    _lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, events)
    assert not events and w.lane[0] == 0


def _unscreened(world, L, acc_headway):
    """Screens that skip no lane: the lane-change pass as it was before the
    screens."""
    return np.full(world.n, np.inf), dict.fromkeys((True, False), 0.0)


def _random_world(seed):
    """A small three-lane ring of at most 60 cars, spawned at a random
    density, with random speeds above a random floor, desired speeds,
    platoon members and cooldowns."""
    rng = np.random.default_rng(seed)
    C = float(rng.uniform(400.0, 2000.0))
    w = spawn_ring_traffic(RingSpec(
        density=float(rng.uniform(5.0, 60_000.0 / C)), circumference=C,
        penetration=float(rng.choice([0.0, 0.5])), platoon_size=4, seed=seed))
    w.speed[:] = rng.uniform(rng.uniform(0.0, 35.0), 40.0, w.n)
    w.desired[:] = rng.uniform(20.0, 40.0, w.n)
    w.lc_last[:] = np.where(rng.random(w.n) < 0.2, 8.0, -np.inf)
    return w


def _assert_same_index(a, b):
    assert np.array_equal(a.pred, b.pred) and np.array_equal(a.gap, b.gap)
    assert len(a.lanes) == len(b.lanes)
    for (pa, ia), (pb, ib) in zip(a.lanes, b.lanes):
        assert np.array_equal(pa, pb) and np.array_equal(ia, ib)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(
    st.one_of(st.floats(0.0, 3.0), st.integers(0, 10**6),
              st.tuples(st.integers(0, 10**6), st.booleans())),
    max_size=25))
@example(seed=152, steps=[146, (1586, False), (11811, False)])   # a car lands on a tie
@example(seed=1, steps=[(56, False)])     # the lane change empties a lane
@example(seed=2, steps=[(16, False)])     # it leaves a lone car behind
@example(seed=1, steps=[(53, False)])     # spliced in before the new lane's first car
@example(seed=1, steps=[(55, False)])     # spliced in after its last car, into the wrap pair
@example(seed=0, steps=[(20, False)])     # the old lane's last car leaves it
@example(seed=5, steps=[(0, False), 0.5])  # a wrap step after a lane change
def test_maintained_lane_index_equals_a_fresh_sort(seed, steps):
    """The index carried from tick to tick equals a from-scratch sort.

    A float step moves every car for that many seconds at its speed, give
    or take 20%: short steps keep each lane's order, long ones make cars
    pass or hit the car ahead, and some cars wrap round the ring.  An
    integer step puts one car exactly on the car behind it, a tie that only
    the from-scratch sort orders by vehicle index.  A pair forces a lane
    change of one car, left or right.
    """
    w = _random_world(seed)
    rng = np.random.default_rng(seed)
    C = w.spec.circumference
    L = _lane_sort(w)
    for step in steps:
        if not isinstance(step, tuple):
            if isinstance(step, float):
                w.pos[:] = (w.pos + w.speed * step * rng.uniform(0.8, 1.2, w.n)) % C
            else:
                i = step % w.n
                w.pos[i] = w.pos[np.flatnonzero(L.pred == i)[0]]
            L = _lane_sort(w, L)
        else:
            i, left = step[0] % w.n, step[1]
            old = int(w.lane[i])
            new = old + 1 if (left and old < 2) or old == 0 else old - 1
            w.lane[i] = new
            _change_lane(w, L, i, old, new)
        _assert_same_index(L, _lane_sort(w))


def _decisions(monkeypatch):
    """Record each pass and each candidate it re-checks."""
    calls = []
    real_pass, real_decision = ring._lane_change_pass, ring.lane_change_decision

    def lane_change_pass(world, L, t, *args):
        calls.append(("pass", t))
        return real_pass(world, L, t, *args)

    def lane_change_decision(world, i, *args):
        calls.append(("candidate", i))
        return real_decision(world, i, *args)

    monkeypatch.setattr(ring, "_lane_change_pass", lane_change_pass)
    monkeypatch.setattr(ring, "lane_change_decision", lane_change_decision)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_screened_pass_accepts_the_unscreened_candidates(seed):
    """Screening removes only candidates the target check would refuse."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _decisions(mp)
        runs = []
        for screens in (ring._slot_screens, _unscreened):
            mp.setattr(ring, "_slot_screens", screens)
            w = _random_world(seed)
            events = []
            del calls[:]
            ring._lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, events)
            runs.append((list(calls), events, w.lane.copy()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][2], runs[1][2])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_the_first_mover_takes_the_prefilter_verdict(seed, scatter):
    """A pass's first decision takes the car's prefilter verdict instead of
    a gap check; it equals the decision a check against the snapshot world
    and a fresh sort of it makes.  Spawned worlds mostly overtake; with
    ``scatter``, the singles are dealt to random lanes and mostly keep
    right."""
    w = _random_world(seed)
    if scatter:
        singles = np.flatnonzero(w.platoon_id < 0)
        w.lane[singles] = np.random.default_rng(seed).integers(0, 3, singles.size)
    snapshot = dataclasses.replace(w, **{f.name: getattr(w, f.name).copy()
                                         for f in dataclasses.fields(w)
                                         if isinstance(getattr(w, f.name), np.ndarray)})
    calls = []
    real = ring.lane_change_decision

    def decision(world, i, *args):
        calls.append((i, args[-1], real(world, i, *args)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "lane_change_decision", decision)
        ring._lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, [])
    if calls:
        (i, keep_right, first), *later = calls
        assert keep_right is not None and all(v is None for _, v, _ in later)
        assert first == real(snapshot, i, _lane_sort(snapshot), ACC_H) != "stay"


@settings(max_examples=60, deadline=None)
@given(right=st.booleans(), frac=st.floats(0.0, 1.1), vd=st.floats(20.0, 40.0),
       slack=st.floats(1e-3, 1.0), slots=st.integers(3, 8))
def test_a_car_takes_a_slot_that_just_fits(right, frac, vd, slack, slots):
    """Every slot of the target lane is just wide enough for the car, by
    ``slack`` at front and rear, and every car drives at one speed, so the
    screens' bounds are tight: they must still let the car through."""
    v = vd * (max(frac, ring.RIGHT_SPEED_FACTOR) if right else min(frac, 0.85))
    front = ring.LC_MARGIN + ring.LC_HEADWAY * v
    if right:
        front = max(front, min(ring.FREE_GAP, ring.LC_MARGIN + ACC_H * vd))
    rear = ring.LC_MARGIN + ring.LC_HEADWAY * v
    s = 8.0 + front + rear + 2.0 * slack     # slot pitch; cars are 4 m long
    w = sandbox_world()
    # the world's cars on a ring of the slots' length
    w.spec = dataclasses.replace(w.spec, circumference=slots * s,
                                 density=1000.0 * w.n / (slots * s))
    w.speed[:], w.desired[:] = v, vd
    src, dst = (1, 0) if right else (0, 1)
    chain = np.arange(2, 2 + slots)          # the target lane, evenly spaced
    w.lane[chain], w.pos[chain] = dst, s * np.arange(slots)
    w.lane[2 + slots:] = 2
    x = 4.0 + rear + slack                   # car 0, blocked by car 1
    w.lane[[0, 1]], w.pos[[0, 1]] = src, [x, x + 5.0]
    w.platoon_id[1:] = 100 + np.arange(w.n - 1)   # nobody else may move
    events = []
    _lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, events)
    assert [(e.veh_a, e.detail) for e in events] == [(0, f"{src}->{dst}")]


# the (source lane, target lane) pairs of a three-lane ring
LANE_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lone=st.sampled_from([None, "empty", "one car"]),
       pairs=st.lists(st.integers(0, len(LANE_PAIRS) - 1), min_size=1, max_size=6))
@example(seed=3, lone="empty", pairs=[0, 1, 2, 3])
@example(seed=3, lone="one car", pairs=[0, 1, 2, 3])
@example(seed=5, lone=None, pairs=[1, 2])         # every lane-1 car in both directions
def test_one_prefilter_call_equals_the_per_pair_calls(seed, lone, pairs):
    """One gap check over the concatenated candidates, targets and
    directions of several (lane, target) pairs accepts exactly what one
    call per pair accepts.  Each pair lists its lane's cars in random
    order, so index order differs from position order, a pair may repeat,
    a lane-1 car may be a candidate in both directions, and a random lane
    may be emptied or left with one car."""
    w = _random_world(seed)
    rng = np.random.default_rng(seed)
    if lone is not None:
        lane = int(rng.integers(3))
        members = np.flatnonzero(w.lane == lane)
        w.lane[members[1:] if lone == "one car" else members] = (lane + 1) % 3
    L = _lane_sort(w)
    checks = []
    for source, target in (LANE_PAIRS[k] for k in pairs):
        cand = rng.permutation(np.flatnonzero(w.lane == source))
        if cand.size:
            checks.append((cand, target, target < source))
    if not checks:
        return
    sizes = [cand.size for cand, _, _ in checks]
    one = ring._vec_target_check(
        w, L, np.concatenate([cand for cand, _, _ in checks]),
        np.repeat([target for _, target, _ in checks], sizes), ACC_H,
        np.repeat([right for _, _, right in checks], sizes))
    per_pair = [ring._vec_target_check(w, L, cand, np.full(cand.size, target), ACC_H,
                                       np.full(cand.size, right))
                for cand, target, right in checks]
    assert np.array_equal(one, np.concatenate(per_pair))


def _reference_check(world, L, i, target, acc_headway, want_right):
    """One candidate's gap check, from README's rules, in Python floats.

    The front car is the first car of the target lane, in lane order, at or
    ahead of the candidate; the rear car is the one before it, cyclically.
    An empty target lane takes the candidate."""
    positions, idxs = L.lanes[target]
    if not idxs.size:
        return True
    C = world.spec.circumference
    pos, speed, length, pid, desired = (a.tolist() for a in (
        world.pos, world.speed, world.length, world.platoon_id, world.desired))
    x, v = pos[i], speed[i]
    j = bisect.bisect_left(positions.tolist(), x)
    front, rear = int(idxs[j % idxs.size]), int(idxs[j - 1])
    front_gap = (pos[front] - x) % C - length[front]
    rear_gap = (x - pos[rear]) % C - length[i]
    vf, vr = speed[front], speed[rear]
    if front_gap < ring.LC_MARGIN + ring.LC_HEADWAY * v + ring.CLOSING_TIME * max(0.0, v - vf):
        return False
    if rear_gap < ring.LC_MARGIN + ring.LC_HEADWAY * vr + ring.CLOSING_TIME * max(0.0, vr - v):
        return False
    if front != rear and pid[front] >= 0 and pid[front] == pid[rear]:
        return False        # never between two members of one platoon
    vd = desired[i]
    return not want_right or front_gap >= ring.FREE_GAP or (
        front_gap >= ring.LC_MARGIN + acc_headway * vd
        and vf >= ring.RIGHT_SPEED_FACTOR * vd)


# the lane layouts a gap-check case draws from
LAYOUTS = ("empty", "one car", "one platoon", "mixed")


@st.composite
def _gap_check_case(draw):
    """A three-lane ring and the (car, adjacent lane) checks of one call.

    Positions come from the ring's edges, 0.0 and the last double below
    the circumference, or anywhere on it; a check's car may sit exactly
    at a car of its target lane.  Each lane is empty, holds one car, holds
    one platoon only, or holds singles and members of two platoons."""
    C = draw(st.sampled_from([150.0, 1000.0, 2345.6]))
    position = st.one_of(st.sampled_from([0.0, float(np.nextafter(C, 0.0))]),
                         st.floats(0.0, C, exclude_max=True))
    cars = []
    for lane in range(3):
        layout = draw(st.sampled_from(LAYOUTS))
        size = {"empty": 0, "one car": 1}.get(layout) or draw(st.integers(2, 6))
        for _ in range(size):
            pid = 10 * lane if layout == "one platoon" else draw(
                st.sampled_from([-1, 10 * lane, 10 * lane + 1]))
            cars.append([draw(position), lane, pid, draw(st.floats(0.0, 40.0)),
                         draw(st.floats(20.0, 40.0))])
    if not cars:
        cars.append([0.0, 1, -1, 30.0, 30.0])
    checks = []
    for i, align in draw(st.lists(st.tuples(st.integers(0, len(cars) - 1), st.booleans()),
                                  min_size=1, max_size=12)):
        lane = cars[i][1]
        target = draw(st.sampled_from([l for l in (lane - 1, lane + 1) if 0 <= l < 3]))
        others = [car[0] for car in cars if car[1] == target]
        if align and others:     # the car exactly at one of the target lane's
            cars[i][0] = draw(st.sampled_from(others))
        checks.append((i, target))
    return C, cars, checks


@settings(max_examples=300, deadline=None)
@given(_gap_check_case())
@example((1000.0, [     # the seam, a car at 0.0, keep right and overtake in one call
    [0.0, 0, -1, 30.0, 30.0], [500.0, 0, -1, 30.0, 30.0],
    [float(np.nextafter(1000.0, 0.0)), 1, -1, 30.0, 30.0], [0.0, 1, -1, 30.0, 30.0],
    [250.0, 1, -1, 30.0, 30.0], [990.0, 1, -1, 20.0, 30.0],
    [20.0, 2, -1, 30.0, 30.0], [600.0, 2, -1, 30.0, 30.0]],
    [(2, 0), (3, 0), (4, 0), (5, 2), (2, 2), (4, 0), (5, 0)]))
@example((1000.0, [     # an empty and a one-car target lane
    [300.0, 1, -1, 30.0, 30.0], [990.0, 1, -1, 30.0, 30.0], [400.0, 2, -1, 10.0, 30.0]],
    [(0, 0), (0, 2), (1, 2), (1, 0)]))
@example((1000.0, [     # a lane of one platoon: its wrap slot is bracketed too
    [950.0, 1, -1, 30.0, 30.0], [500.0, 1, -1, 30.0, 30.0],
    [100.0, 2, 7, 30.0, 30.0], [300.0, 2, 7, 30.0, 30.0], [800.0, 2, 7, 30.0, 30.0]],
    [(0, 2), (1, 2)]))
def test_the_gap_check_equals_a_per_candidate_reference(case):
    """One call of the gap check accepts exactly the checks that a plain
    per-candidate reference, in Python floats and ``% C``, accepts."""
    C, cars, checks = case
    w = sandbox_world()
    n = len(cars)
    pos, lane, pid, speed, desired = map(np.array, zip(*cars))
    w = dataclasses.replace(
        w, spec=dataclasses.replace(w.spec, circumference=C, density=10_000.0 / C),
        n=n, pos=pos.astype(float), lane=lane.astype(np.int64),
        platoon_id=pid.astype(np.int64), speed=speed.astype(float),
        desired=desired.astype(float), length=np.full(n, VEHICLE_LENGTH), ids=np.arange(n))
    L = _lane_sort(w)
    cand, target = (np.array(col, dtype=np.int64) for col in zip(*checks))
    right = target < w.lane[cand]
    got = ring._vec_target_check(w, L, cand, target, ACC_H, right)
    assert got.tolist() == [_reference_check(w, L, i, t, ACC_H, r)
                            for i, t, r in zip(cand.tolist(), target.tolist(), right.tolist())]


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 1e6), st.lists(st.floats(-1.0, 1.0, exclude_min=True), max_size=40))
def test_wrap_equals_the_remainder_on_the_gap_domain(C, fracs):
    """Less a car's length, a position difference wrapped by ``_wrap`` has
    the bytes of the same difference taken ``% C``."""
    d = np.array([-C, np.nextafter(-C, 0.0), 5e-324, -5e-324, 0.0, -0.0,
                  np.nextafter(C, 0.0), C] + [f * C for f in fracs])
    expected = (d % C - VEHICLE_LENGTH).tobytes()
    assert (ring._wrap(d, C) - VEHICLE_LENGTH).tobytes() == expected


def test_competing_candidates_move_in_index_order():
    """Cars 3 and 6 both pass the prefilter into the one open slot of the
    right lane, car 6 behind car 3.  The re-check walks vehicle indices, so
    car 3 moves and car 6, now 6 m behind it, stays; walking the lane in
    position order would move car 6 instead."""
    w = sandbox_world()
    w.lane[[3, 6]] = 1
    w.pos[[3, 6]] = [5010.0, 5000.0]
    events = []
    _lane_change_pass(w, _lane_sort(w), 10.0, ACC_H, events)
    assert [(e.veh_a, e.detail) for e in events] == [(3, "1->0")]


@pytest.mark.parametrize("name", sorted(GOLDEN_RING))
def test_one_gap_check_per_pass_and_at_most_one_per_re_check(name, monkeypatch):
    """In the golden runs, a pass checks all its candidates in one call,
    its first candidate takes the verdict of that call, and each later
    re-check makes at most one call, whatever sides it tries."""
    calls = _decisions(monkeypatch)
    real = ring._vec_target_check
    monkeypatch.setattr(ring, "_vec_target_check",
                        lambda *args: calls.append(("check", None)) or real(*args))
    ring_trace(name)
    seq = "".join({"pass": "p", "candidate": "c", "check": "k"}[kind] for kind, _ in calls)
    assert "c" in seq and re.fullmatch(r"(p(k(c(ck?)*)?)?)*", seq)


@pytest.mark.parametrize("name", sorted(GOLDEN_RING))
def test_screened_pass_keeps_the_candidates_of_the_golden_runs(name, monkeypatch):
    calls = _decisions(monkeypatch)
    screened = ring_trace(name).serialize(), list(calls)
    assert any(kind == "candidate" for kind, _ in calls)
    del calls[:]
    monkeypatch.setattr(ring, "_slot_screens", _unscreened)
    assert (ring_trace(name).serialize(), calls) == screened


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------

def test_detect_collisions_same_lane_overlap():
    w = sandbox_world()
    w.lane[[5, 6]] = 2
    w.pos[5] = 1000.0
    w.pos[6] = 1003.0            # front bumpers 3 m apart, cars are 4 m long
    ev = detect_collisions(w, _lane_sort(w), t=2.0)
    assert len(ev) == 1
    assert (ev[0].veh_a, ev[0].veh_b) == (5, 6)


def test_detect_collisions_ignores_other_lanes():
    w = sandbox_world()
    w.lane[5] = 2
    w.lane[6] = 1
    w.pos[5] = 1000.0
    w.pos[6] = 1003.0
    assert detect_collisions(w, _lane_sort(w)) == []


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


@pytest.mark.parametrize("warmup", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_samples_start_at_the_first_sampling_tick_past_the_warmup(warmup):
    """Speeds are sampled on the ticks k with k * dt >= warmup - 1e-9 and
    k a multiple of the sampling period, also for a warmup between two
    sampling ticks."""
    spec = RingSpec(density=10, duration=2.0, warmup=warmup, volatility_sample_dt=0.5)
    tr = run_ring(spec)
    dt, every = spec.control_dt, 5
    ticks = round((warmup + 2.0) / dt)
    expect = [k * dt for k in range(0, ticks + 1, every) if k * dt >= warmup - 1e-9]
    assert tr.sample_times.tolist() == expect
    assert tr.speed_samples.shape == (len(expect), tr.n_vehicles)


def _cyclic_order(ids: np.ndarray) -> tuple:
    """``ids`` rotated to start at their smallest entry."""
    start = int(np.argmin(ids)) if ids.size else 0
    return tuple(ids[start:]) + tuple(ids[:start])


@settings(max_examples=20, deadline=None)
@given(density=st.floats(5.0, 30.0), penetration=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       size=st.integers(2, 8), policy=st.sampled_from(ring.PLATOON_POLICIES),
       baseline=st.sampled_from(ring.BASELINES), warmup=st.floats(0.0, 10.0),
       duration=st.floats(5.0, 20.0), control_dt=st.sampled_from([0.1, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_ring_run_invariants(density, penetration, size, policy, baseline, warmup,
                             duration, control_dt, seed):
    """On rings of at most 60 cars and 30 s: no car appears or vanishes, a
    lane's cyclic order changes only with a lane change or a collision, and
    counter crossings come in time order."""
    warmup, duration = (round(span / control_dt) * control_dt for span in (warmup, duration))
    spec = RingSpec(density=density, penetration=penetration, platoon_size=size,
                    platoon_policy=policy, baseline=baseline, circumference=2000.0,
                    warmup=warmup, duration=duration, control_dt=control_dt, seed=seed,
                    record_full_trace=True)
    try:
        tr = run_ring(spec)
    except UsageError:
        return
    full = tr.full
    assert tr.n_vehicles == int(density * 2) <= 60
    assert full.position.shape == full.lane.shape == (full.times.size, tr.n_vehicles)
    assert np.isfinite(full.position).all()
    assert ((full.lane >= 0) & (full.lane < spec.lanes)).all()
    assert (np.bincount(full.lane.ravel(), minlength=spec.lanes).sum()
            == full.times.size * tr.n_vehicles)

    # the pass at tick k shows in the record of tick k + 1
    moved = {round(ev.time / control_dt) for ev in tr.events
             if ev.kind in ("lane_change", "collision")}
    orders = None
    for k in range(full.times.size):
        by_pos = np.argsort(full.position[k], kind="stable")
        lanes = full.lane[k, by_pos]
        now = [_cyclic_order(by_pos[lanes == lane]) for lane in range(spec.lanes)]
        if orders is not None and k - 1 not in moved and k not in moved:
            assert now == orders, f"lane order changed at t={full.times[k]:g} s"
        orders = now

    assert (np.diff(tr.counter_times) >= 0.0).all()


def test_non_finite_command_fails_the_run():
    """A NaN gain makes every ACC command NaN; the run fails at once instead
    of carrying NaN positions past collision detection."""
    ctrl = ControllerSet()
    ctrl.acc.lam = float("nan")   # assigned past the parameter check
    with pytest.raises(RunError, match="non-finite control input: nan"):
        run_ring(RingSpec(density=10, duration=5.0, warmup=0.0), ctrl=ctrl)


def test_ring_ignores_the_service_clamp():
    """``[dynamics] u_min`` floors only a single platoon's profile-driven
    head; every ring car brakes down to ``emergency u_min``."""
    spec = RingSpec(density=60, penetration=0.5, platoon_size=8, platoon_policy="MIX",
                    duration=30.0, warmup=0.0, seed=1)
    assert (run_ring(spec, DynamicsParams(u_min=-1.0)).serialize()
            == run_ring(spec).serialize())


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
    monkeypatch.setattr(ring, "spawn_ring_traffic", lambda spec, ctrl: w)
    run_ring(RingSpec(density=1, duration=0.1, warmup=0.0))

    p, dyn = PloegParams(), DynamicsParams()
    target = ploeg_target(2.0, 0.2, 0.0, 0.2, 0.0, p.H, p.kp, p.kd)
    assert target > 0.0
    filt = 0.0
    for _ in range(round(0.1 / dyn.dt)):
        filt += dyn.dt / p.H * (target - filt)
    assert w.ploeg_u[0] == pytest.approx(filt, rel=1e-12)
    assert w.u_cmd[0] == STANDSTILL_BRAKE


@pytest.mark.parametrize("name", ["G-d100", "MIX-d100-N4-R0.5-dt0.5-collision"])
def test_rear_gap_is_the_successors_front_gap(name, monkeypatch):
    """The spring-damper rear gap comes from the lane index: each platoon
    member is its successor's lane predecessor, since no car cuts in between
    two members, so the successor's front gap has the bytes of the modular
    gap formula, on every control tick, wrapped gaps included."""
    real = ring._gsbl_tick
    wrapped = []

    def gsbl_tick(world, L):
        succ = world.member_succ
        members = np.flatnonzero(succ >= 0)
        assert (L.pred[succ[members]] == members).all()
        got = real(world, L)
        want = ring._wrap(world.pos - world.length - world.pos[succ], world.spec.circumference)
        assert L.gap[got[members]].tobytes() == want[members].tobytes()
        wrapped.append((world.pos[succ[members]] > world.pos[members]).any())
        return got

    monkeypatch.setattr(ring, "_gsbl_tick", gsbl_tick)
    if name == "G-d100":
        trace = run_ring(RingSpec(density=100, penetration=0.5, platoon_policy="G",
                                  circumference=2000.0, duration=60.0, warmup=0.0))
    else:
        trace = ring_trace(name)
        assert trace.terminated_by_collision
    assert len(wrapped) == round(trace.end_time / trace.spec.control_dt) and any(wrapped)
