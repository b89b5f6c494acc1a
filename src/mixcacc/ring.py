"""Ring-road traffic experiments with platoons embedded in baseline traffic.

A multi-lane ring carries a mix of platoons (head runs ACC, followers run the
configured platoon policy) and non-cooperative singles (ACC or IDM).  Singles
keep right when possible and overtake when blocked; platoons stay in the lane
matching their speed class.  Four roadside counters record crossings for
throughput estimation and vehicle speeds are sampled for volatility analysis.

The state is kept in flat numpy arrays and all per-tick work is vectorized.
The engine keeps only the road's topology (lane index, lane changes,
counters, sampling); it hands each vehicle's neighbours as index arrays (the
lane predecessor, the elected leader, the platoon successor) to the control
tick, which gathers them, and to the integrator it shares with the
single-platoon engine, :func:`controllers.control_tick` and
:func:`dynamics.advance`.

Within a lane, order changes only at lane changes: two cars swap only by
colliding, and a collision ends the run.  So the lane index, predecessor
links included, is carried from tick to tick, and a lane change re-links
only the car and its old and new followers.  Each tick gaps every car in
one pass, and a tick with a gap <= 0, or with a lane out of order other
than by wrap-around, re-sorts from scratch.  The sort also keeps the least
gap, and only a tick where it is not positive scans for collisions.
The lane-change pass skips a target lane that no car fits into, by necessary
conditions of the gap check only, so it accepts exactly the cars the check
alone would.  It then prefilters the candidates of every surviving (lane,
target) pair in one call of the gap check, which searches each target lane
once for the candidates of both its neighbours, gathers every neighbour
through one (front, candidate, rear) index and does the arithmetic once.
It moves the accepted ones one by one, in vehicle-index order.  The first
sees the index the prefilter saw and takes its verdict; each later one is
re-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .controllers import (
    CODE_BY_LETTER,
    CODE_GSBL,
    CODE_IDM,
    CODE_PLOEG,
    LETTER_BY_CODE,
    ControllerSet,
    control_tick,
    family_indices,
)
from .dynamics import DynamicsParams, VEHICLE_LENGTH, advance
from .config import MobilitySpec, RunError, UsageError, check
from .scenarios import CONTROL_DT, Trace, TraceEvent, events_csv, substeps, whole_periods
from .topology import check_platoon_size, elect_ego_leaders

# Integration goes through dynamics.advance; this name stays bound here only
# for perfbench's layer tracer, until the tracer reads spans from the package.
from .dynamics import step_arrays  # noqa: E402,F401

PLATOON_POLICIES = ("P", "L", "G", "MIX")
BASELINES = ("ACC", "IDM")
DEVICES = ("N", "E", "S", "W")
CSV_BLOCK_ROWS = 4096   # counter rows formatted per string

SPAWN_MARGIN = 2.0      # m, standstill part of spawn gaps
MIN_INTER_GAP = 3.0     # m, hard floor between spawned entities

# Gap acceptance of the non-cooperative singles: fixed model constants, not
# parameters of the INI file
LC_COOLDOWN = 5.0           # s between lane changes of one vehicle
SPEED_SATISFACTION = 0.9    # below this fraction of desired: blocked
FOLLOW_FACTOR = 1.5         # blocked if front gap < factor * follow gap
LC_MARGIN = 3.0             # m, standstill part of accepted gaps
LC_HEADWAY = 0.5            # s, kinematic part of accepted gaps
CLOSING_TIME = 2.0          # s, allowance against closing speed
RIGHT_SPEED_FACTOR = 0.95   # right lane must admit this * desired
FREE_GAP = 150.0            # m, gaps beyond this count as open road
MAX_CARS = 100_000          # cars of one ring; the paper's grid has at most 1,800

_ROAD = MobilitySpec()      # the road and run defaults of every ring run


def _wrap(x, C):
    """``x %= C`` in place, computed only outside [0, C), where it is not x.
    The one difference from ``x % C`` is that -0.0 stays -0.0, where ``%``
    gives +0.0; a gap less a car's length has the same bytes either way."""
    np.remainder(x, C, out=x, where=(x < 0.0) | (x >= C))
    return x


@dataclass
class RingSpec:
    """Parameters of one ring experiment."""

    density: float                   # veh per km of road
    penetration: float = 0.0         # fraction of vehicles in platoons
    platoon_size: int = 8
    platoon_policy: str = "P"        # P, L, G or MIX
    baseline: str = "ACC"            # controller of the singles
    circumference: float = _ROAD.circumference     # m
    lanes: int = _ROAD.lanes
    speed_classes_kmh: tuple[float, ...] = _ROAD.speed_classes_kmh
    speed_jitter_kmh: float = _ROAD.speed_jitter_kmh
    duration: float = _ROAD.ring_duration           # s, observed period
    warmup: float = _ROAD.ring_warmup               # s, excluded from all metrics
    seed: int = 0
    control_dt: float = CONTROL_DT
    volatility_sample_dt: float = _ROAD.volatility_sample_dt
    counter_window: float = _ROAD.counter_window
    record_full_trace: bool = False

    def __post_init__(self):
        if self.platoon_policy not in PLATOON_POLICIES:
            raise UsageError(f"unknown platoon policy {self.platoon_policy!r}")
        if self.baseline not in BASELINES:
            raise UsageError(f"unknown baseline {self.baseline!r}")
        # the road, and the run's point of the grid, each in its [mobility] key's domain
        check(self, "mobility")
        MobilitySpec(densities=(self.density,), platoon_sizes=(self.platoon_size,),
                     penetration_rates=(self.penetration,))
        check_platoon_size(self.platoon_size)
        if len(self.speed_classes_kmh) != self.lanes:
            raise UsageError("need one speed class per lane")
        # a spawn draws each desired speed from class ± jitter, which must stay above zero
        if not self.speed_jitter_kmh < min(self.speed_classes_kmh):
            raise UsageError("every desired speed less the speed jitter must be positive")
        for name, span in (("duration", self.duration), ("warmup", self.warmup),
                           ("counter window", self.counter_window),
                           ("volatility sample dt", self.volatility_sample_dt)):
            whole_periods(span, self.control_dt, name, positive=name != "warmup")
        if self.seed < 0:
            raise UsageError("seed must not be negative")
        # no car, or not even bumper to bumper: fail before a spawn sizes arrays from the density
        total = math.floor(self.density * self.circumference / 1000.0)
        if total < 1:
            raise UsageError("density too low for a single vehicle")
        if total * VEHICLE_LENGTH > self.lanes * self.circumference:
            raise _does_not_fit(self)
        if total > MAX_CARS:
            raise UsageError(f"{total:.3g} cars exceed the bound of {MAX_CARS} on one ring")


def _does_not_fit(spec: RingSpec) -> UsageError:
    """The error of a density beyond what the ring's lanes can hold."""
    C = spec.circumference
    feasible = spec.lanes * C / (VEHICLE_LENGTH + MIN_INTER_GAP) / (C / 1000.0)
    return UsageError(f"density {spec.density} veh/km does not fit; "
                      f"roughly {feasible:.0f} veh/km is the geometric limit")


@dataclass
class RingWorld:
    """Flat array state of a ring simulation."""

    spec: RingSpec
    n: int
    pos: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    u_cmd: np.ndarray
    lane: np.ndarray
    length: np.ndarray
    desired: np.ndarray
    code: np.ndarray
    platoon_id: np.ndarray           # -1 for singles
    member_succ: np.ndarray          # platoon member behind, -1 if none
    ego_leader: np.ndarray           # elected leader index, -1 if none
    ploeg_u: np.ndarray
    gsbl_override: np.ndarray
    lc_last: np.ndarray
    ids: np.ndarray                  # arange(n), to test pred != i

    @cached_property
    def _least(self) -> tuple[float, float]:   # no tick changes a length or desired speed
        return self.length.min(), self.desired.min()


@dataclass
class _LaneIndex:
    """Per-lane sorted views plus same-lane predecessor links and gaps."""

    lanes: list[tuple[np.ndarray, np.ndarray]]   # (sorted positions, indices)
    pred: np.ndarray
    gap: np.ndarray
    min_gap: float = math.nan                    # least gap as sorted


def _link(world, L, srt, ks):
    """Point the cars at places ``ks`` of lane order ``srt`` at the next car,
    cyclically, and gap them as :func:`_lane_sort` does."""
    for k in ks:
        k %= srt.size
        car, ahead = srt[k], srt[(k + 1) % srt.size]
        g = world.pos[ahead] - world.length[ahead] - world.pos[car]
        if k == srt.size - 1:
            g += world.spec.circumference
        L.pred[car], L.gap[car] = ahead, g


def _lane_sort(world: RingWorld, prev: _LaneIndex | None = None) -> _LaneIndex:
    """Lane index of the current state, by a stable sort of every lane.
    From ``prev``, the last index with every lane change since entered, each
    lane keeps its order and predecessor links, and cars that wrapped round
    move to the front; a lane out of order in any other way, or a gap <= 0,
    rebuilds it all, so collisions and ties are unchanged.  One pass gaps
    every car, adding the circumference at each lane's last car."""
    lanes = []
    if prev is None:
        pred = world.ids.copy()
        for l in range(world.spec.lanes):
            idx = np.flatnonzero(world.lane == l)
            srt = idx[np.argsort(world.pos[idx], kind="stable")]
            pred[srt] = np.roll(srt, -1)
            lanes.append((world.pos[srt], srt))
    else:
        pred = prev.pred
        for _, srt in prev.lanes:
            p = world.pos[srt]
            down = p[1:] < p[:-1]
            if down.any():
                down = down.nonzero()[0]
                if down.size > 1 or p[-1] > p[0]:
                    return _lane_sort(world)
                k = down[0] + 1
                srt, p = np.concatenate((srt[k:], srt[:k])), np.concatenate((p[k:], p[:k]))
            lanes.append((p, srt))
    gap = world.pos[pred] - world.length[pred] - world.pos
    gap[[srt[-1] for _, srt in lanes if srt.size]] += world.spec.circumference
    L = _LaneIndex(lanes, pred, gap, gap.min())
    if prev is not None and not L.min_gap > 0.0:
        return _lane_sort(world)
    return L


def _change_lane(world, L, i, old, new):
    """Move vehicle ``i`` from lane ``old`` to lane ``new`` in ``L``, behind
    the cars at its position with a lower index, as a stable sort puts it,
    and re-link only the car and its old and new followers."""
    p, srt = L.lanes[old]
    j = int((srt == i).nonzero()[0][0])
    L.lanes[old] = p, srt = (np.concatenate((p[:j], p[j + 1:])),
                             np.concatenate((srt[:j], srt[j + 1:])))
    if srt.size:
        _link(world, L, srt, [j - 1])
    p, srt, x = *L.lanes[new], world.pos[i]
    k = p.searchsorted(x)
    k += np.count_nonzero(srt[k:p.searchsorted(x, "right")] < i)
    L.lanes[new] = p, srt = (np.concatenate((p[:k], [x], p[k:])),
                             np.concatenate((srt[:k], [i], srt[k:])))
    _link(world, L, srt, [k - 1, k])


def detect_collisions(world: RingWorld, L: _LaneIndex, t: float = 0.0) -> list[TraceEvent]:
    """Same-lane bumper overlaps in ``L``, the lane index of the current
    state; different lanes never collide."""
    hits = np.flatnonzero((L.gap <= 0.0) & (L.pred != world.ids))
    return [
        TraceEvent(t, "collision", int(i), int(L.pred[i]), f"gap={L.gap[i]:.3f}")
        for i in hits
    ]


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------

def spawn_ring_traffic(spec: RingSpec, ctrl: ControllerSet | None = None) -> RingWorld:
    """Populate the ring at the requested density, drawing from a generator
    seeded with ``spec.seed``.

    One rule places every entity, a platoon or a single: it takes the first
    lane of its lane order where the lengths of the lane's blocks plus one
    spacing per block still fit the circumference.  A platoon tries the lane
    of its speed class at jam spacing (``MIN_INTER_GAP``) and fails the spawn
    if it does not fit.  A single tries the lanes from the right at
    comfortable spacing for its desired speed.  The singles left over then
    try the lanes from the least loaded at jam spacing.  Each lane's blocks
    are spread evenly in random order, at speeds capped so that the spread
    gaps stay safe.
    """
    ctrl = ctrl or ControllerSet()
    rng = np.random.default_rng(spec.seed)
    C = spec.circumference
    total = int(math.floor(spec.density * C / 1000.0))
    size = spec.platoon_size
    n_platoons = int(math.floor(total * spec.penetration / size))
    classes = np.asarray(spec.speed_classes_kmh, dtype=float)
    single = "A" if spec.baseline == "ACC" else "I"
    single_headway = ctrl.acc.H if single == "A" else ctrl.idm.T
    platoon_id, member_succ, ego_leader = (np.full(total, -1, dtype=np.int64) for _ in range(3))

    def block(letters, v):
        """Member gaps and bumper-to-bumper length of a block at speed v."""
        gaps = [ctrl.equilibrium_gap(c, v) for c in letters[1:]]
        return gaps, (len(letters) * VEHICLE_LENGTH + float(np.sum(gaps)) if gaps
                      else VEHICLE_LENGTH)

    # entity k, vehicles in index order: (letters, desired speed, headway of
    # its head), its length at the desired speed, its lane, spawn speed and
    # vehicle positions
    n_entities = total - n_platoons * (size - 1)
    entities, length = [], []
    lane_of, speed_of, pos_of = [None] * n_entities, [0.0] * n_entities, [None] * n_entities
    used, counts = [0.0] * spec.lanes, [0] * spec.lanes

    def fit(k, lane_order, spacing):
        for l in lane_order:
            if used[l] + length[k] + (counts[l] + 1) * spacing <= C:
                used[l] += length[k]
                counts[l] += 1
                lane_of[k] = l
                return True
        return False

    overflow = []
    for k in range(n_entities):
        ci = int(rng.integers(len(classes)))
        v_des = (classes[ci] + rng.uniform(-spec.speed_jitter_kmh, spec.speed_jitter_kmh)) / 3.6
        platoon = k < n_platoons
        if platoon:
            letters = "A" + ("".join(rng.choice(list("PLG"), size=size - 1))
                             if spec.platoon_policy == "MIX" else spec.platoon_policy * (size - 1))
            headway, i0 = ctrl.acc.H, k * size
            platoon_id[i0:i0 + size] = i0
            member_succ[i0:i0 + size - 1] = range(i0 + 1, i0 + size)
            ego_leader[i0 + 1:i0 + size] = [i0 + j for j in elect_ego_leaders(letters).values()]
        else:
            letters, headway = single, single_headway
        entities.append((letters, v_des, headway))
        length.append(block(letters, v_des)[1])
        if platoon and not fit(k, [ci], MIN_INTER_GAP):
            raise UsageError(
                f"platoon traffic exceeds lane {ci} capacity at density {spec.density}"
            )
        if not platoon and not fit(k, range(spec.lanes), SPAWN_MARGIN + headway * v_des):
            overflow.append(k)
    for k in overflow:
        if not fit(k, sorted(range(spec.lanes), key=lambda l: used[l] / C), MIN_INTER_GAP):
            raise _does_not_fit(spec)

    # each lane's blocks in random order, a cursor walking back from a random front
    for l in range(spec.lanes):
        ks = [k for k, lane in enumerate(lane_of) if lane == l]
        if not ks:
            continue
        ks = [ks[j] for j in rng.permutation(len(ks))]
        inter1 = (C - sum(length[k] for k in ks)) / len(ks)
        spawned = []
        for k in ks:
            letters, v_des, headway = entities[k]
            speed_of[k] = min(v_des, max(0.0, (inter1 - SPAWN_MARGIN) / headway))
            spawned.append((k, *block(letters, speed_of[k])))
        inter2 = (C - sum(b2 for *_, b2 in spawned)) / len(ks)
        cursor = rng.uniform(0.0, C)
        for k, gaps, b2 in spawned:
            pos = pos_of[k] = [cursor]
            for g in gaps:
                pos.append(pos[-1] - (VEHICLE_LENGTH + g))
            cursor -= b2 + inter2

    sizes = [len(letters) for letters, *_ in entities]
    return RingWorld(
        spec=spec, n=total,
        pos=np.array([x for pos in pos_of for x in pos]) % C,
        speed=np.repeat(speed_of, sizes), accel=np.zeros(total), u_cmd=np.zeros(total),
        lane=np.repeat(np.array(lane_of, dtype=np.int64), sizes),
        length=np.full(total, VEHICLE_LENGTH),
        desired=np.repeat([v_des for _, v_des, _ in entities], sizes),
        code=np.array([CODE_BY_LETTER[c] for letters, *_ in entities for c in letters],
                      dtype=np.int8),
        platoon_id=platoon_id, member_succ=member_succ, ego_leader=ego_leader,
        ploeg_u=np.zeros(total), gsbl_override=np.zeros(total, dtype=bool),
        lc_last=np.full(total, -np.inf), ids=np.arange(total),
    )


# ---------------------------------------------------------------------------
# Lane changes
# ---------------------------------------------------------------------------

def lane_change_decision(
    world: RingWorld,
    i: int,
    L: _LaneIndex,
    acc_headway: float,
    keep_right: bool | None = None,
) -> str:
    """Keep-right / overtake decision of one non-cooperative single.

    Re-checks the vehicle against the lane index as it stands, after the
    lane changes already accepted this tick.  A car the prefilter accepted
    on this same index passes ``keep_right``, the verdict of its keep-right
    entry, instead: it keeps right if that passed and overtakes otherwise.
    """
    if keep_right is not None:
        return "right" if keep_right else "left"
    lane = int(world.lane[i])
    targets = [lane - 1] if lane > 0 else []
    if lane + 1 < world.spec.lanes and _blocked(world, L, i, acc_headway):
        targets.append(lane + 1)
    if targets:         # one check of both sides
        target = np.array(targets)
        ok = _vec_target_check(world, L, np.full(target.size, i), target, acc_headway,
                               target < lane)
        if ok.any():    # the first side accepted: keep right wins
            return "right" if target[ok][0] < lane else "left"
    return "stay"


def _blocked(world, L, i, acc_headway):
    """Whether the cars ``i`` (an index, array or slice) are blocked: slow and close behind."""
    v = world.speed[i]
    return (v < SPEED_SATISFACTION * world.desired[i]) & (
        L.gap[i] < FOLLOW_FACTOR * (LC_MARGIN + acc_headway * v))


def _vec_target_check(world, L, cand, target, acc_headway, want_right):
    """Vectorized desire and safety test of vehicles ``cand`` against the
    adjacent lanes ``target``, keeping right where ``want_right`` holds;
    both are arrays with one entry per candidate.  Each run of candidates
    with one target is searched in that lane, and an empty lane takes them
    all.

    Run once per tick over a snapshot to prefilter candidates, then for each
    of them against the current lane index by :func:`lane_change_decision`.
    """
    x = world.pos[cand]
    cut = ((target[1:] != target[:-1]).nonzero()[0] + 1).tolist()
    # rows front, candidate, rear: the neighbours each candidate would have;
    # in an empty lane each candidate stands in for them
    nb = cand[None].repeat(3, axis=0)
    empty = []
    for lo, hi in zip([0, *cut], [*cut, cand.size]):
        positions, idxs = L.lanes[target[lo]]
        if idxs.size:
            j = positions.searchsorted(x[lo:hi])
            idxs.take(j, out=nb[0, lo:hi], mode="wrap")
            idxs.take(j - 1, out=nb[2, lo:hi], mode="wrap")
        else:
            empty.append(slice(lo, hi))
    # front and rear gaps; only a pair that straddles the seam is negative
    P = world.pos[nb]
    gap = _wrap(P[:2] - P[1:], world.spec.circumference)
    gap -= world.length[nb[:2]]
    V = world.speed[nb]
    own, other = V[1:], V[:2]       # followers (v, vr) behind leaders (vf, v)
    ok = gap >= LC_MARGIN + LC_HEADWAY * own + CLOSING_TIME * np.maximum(0.0, own - other)
    ok = ok[0] & ok[1]
    pf, pr = world.platoon_id[nb[::2]]
    ok &= (pf != pr) | (pf < 0) | (nb[0] == nb[2])
    if want_right.any():    # keep-right terms, needed only if some candidate keeps right
        front_gap, vf, vd = gap[0], V[0], world.desired[cand]
        ok &= ~want_right | (front_gap >= FREE_GAP) | (
            (front_gap >= LC_MARGIN + acc_headway * vd) & (vf >= RIGHT_SPEED_FACTOR * vd))
    for run in empty:
        ok[run] = True
    return ok


ROUNDING_TOL = 1e-6   # m, allowance of a bound that sums lengths in another order


def _slot_screens(world, L, acc_headway):
    """Necessary conditions of :func:`_vec_target_check`: the room of the slot
    behind each car, and the least room any car needs to keep right (True)
    or to overtake.  A car's length and the check's front and rear gaps fill
    the slot it enters; the terms dropped from those gaps are >= 0 while
    ``CLOSING_TIME`` is."""
    hv = LC_HEADWAY * world.speed
    length, desired = world._least
    least = length + LC_MARGIN - ROUNDING_TOL
    return L.gap - hv, {
        True: least + min(FREE_GAP, LC_MARGIN + acc_headway * desired),
        False: least + LC_MARGIN + hv.min(),
    }


def _lane_change_pass(world, L, t, acc_headway, events):
    """Move every single whose keep-right or overtake check passes, patching
    the lane index ``L`` at each lane change."""
    eligible = (world.platoon_id < 0) & (t - world.lc_last >= LC_COOLDOWN)
    if not eligible.any():
        return
    movers = {True: eligible, False: eligible & _blocked(world, L, slice(None), acc_headway)}
    room, least = _slot_screens(world, L, acc_headway)
    widest = [room[slots].max() if slots.size else np.inf for _, slots in L.lanes]
    pairs = []
    for target in range(world.spec.lanes):
        for l, right in ((target + 1, True), (target - 1, False)):
            # a lane whose widest slot fits no car is skipped
            if not 0 <= l < world.spec.lanes or widest[target] < least[right]:
                continue
            members = L.lanes[l][1]
            cand = members[movers[right][members]]
            if cand.size:
                pairs.append((cand, target, right))
    if not pairs:
        return
    cands, targets, rights = zip(*pairs)    # one call, in runs of one target lane
    sizes = [c.size for c in cands]
    cand = np.concatenate(cands)
    right = np.array(rights).repeat(sizes)
    ok = _vec_target_check(world, L, cand, np.array(targets).repeat(sizes), acc_headway, right)
    if not ok.any():
        return
    accepted = sorted(set(cand[ok].tolist()))
    # until the first move the index is the prefilter's, so its verdict stands
    first = [accepted[0] in cand[ok & right]]
    for i, keep_right in itertools.zip_longest(accepted, first):
        decision = lane_change_decision(world, i, L, acc_headway, keep_right)
        if decision == "stay":
            continue
        old = int(world.lane[i])
        new = old - 1 if decision == "right" else old + 1
        world.lane[i] = new
        world.lc_last[i] = t
        events.append(TraceEvent(t, "lane_change", i, None, f"{old}->{new}"))
        _change_lane(world, L, i, old, new)


# ---------------------------------------------------------------------------
# Controller tick
# ---------------------------------------------------------------------------

def _gsbl_tick(world, L):
    """Platoon successor of every vehicle, -1 for none.  Its front gap in the
    lane index ``L`` is the vehicle's rear gap, since no car cuts in between
    two platoon members (named for the spring-damper law, the only one that
    reads it)."""
    return world.member_succ


def _control_tick(world, L, ctrl, families):
    """Hand every vehicle's neighbours to the shared control tick."""
    u, hold, world.gsbl_override = control_tick(
        families, world.speed, world.accel, world.u_cmd, L.gap, L.pred, L.pred != world.ids,
        world.ego_leader, _gsbl_tick(world, L), world.desired, world.desired,
        world.gsbl_override, ctrl,
    )
    return u, hold


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

@dataclass
class RingTrace:
    """Observables of one ring run."""

    spec: RingSpec
    n_vehicles: int
    counter_times: np.ndarray
    counter_devices: np.ndarray
    counter_vehicles: np.ndarray
    counter_lanes: np.ndarray
    sample_times: np.ndarray
    speed_samples: np.ndarray
    events: list[TraceEvent]
    terminated_by_collision: bool
    end_time: float
    full: Trace | None = None

    def counters_csv_chunks(self):
        """The text of :meth:`counters_csv`: its header, then blocks of rows."""
        yield "t,device,veh,lane\n"
        cols = [c.tolist() for c in (self.counter_times, self.counter_devices,
                                     self.counter_vehicles, self.counter_lanes)]
        for lo in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            block = [c[lo:lo + CSV_BLOCK_ROWS] for c in cols]
            yield "%.6f,%s,%d,%d\n" * len(block[0]) % tuple(
                itertools.chain.from_iterable(zip(*block)))

    def counters_csv(self) -> str:
        return "".join(self.counters_csv_chunks())

    def serialize(self) -> bytes:
        """The run's identity bytes: the counter CSV, the event CSV, every
        speed sample on one comma-separated line and the full trace CSV, if
        recorded, joined by newlines.  Each row is encoded on its own and
        the bytes are joined once, so no part is ever held as text."""
        return b"".join(s.encode() for s in self._serial_chunks())

    def _serial_chunks(self):
        yield from self.counters_csv_chunks()
        yield "\n"
        yield events_csv(self.events)
        yield "\n"
        row = ",".join(["%.6f"] * self.speed_samples.shape[1])
        for k, speeds in enumerate(self.speed_samples):
            if k:
                yield ","
            yield row % tuple(speeds.tolist())
        if self.full is not None:
            yield "\n"
            yield from self.full.rows_csv_chunks()


@np.errstate(over="ignore", invalid="ignore")   # a non-finite command raises a RunError
def run_ring(
    spec: RingSpec,
    dyn: DynamicsParams | None = None,
    ctrl: ControllerSet | None = None,
) -> RingTrace:
    """Simulate one ring experiment; stops early if a collision occurs."""
    dyn = dyn or DynamicsParams()
    ctrl = ctrl or ControllerSet()
    sub = substeps(spec.control_dt, dyn.dt)
    world = spawn_ring_traffic(spec, ctrl)
    C = spec.circumference
    # IDM stands in for human drivers simulated without powertrain lag
    tau = np.where(world.code == CODE_IDM, dyn.dt, dyn.tau)
    ploeg = np.flatnonzero(world.code == CODE_PLOEG)

    device_pos = np.array([i * C / len(DEVICES) for i in range(len(DEVICES))])[:, None]
    device_names = np.array(DEVICES, dtype="U1")
    families = family_indices(world.code)
    ticks = round((spec.warmup + spec.duration) / spec.control_dt)
    every = round(spec.volatility_sample_dt / spec.control_dt)
    # the sampled ticks: every sampling period from the first past the warmup
    sampled = range(-(-round(spec.warmup / spec.control_dt) // every) * every, ticks + 1, every)

    # counter crossings of each tick: times, devices, vehicles, lanes
    crossings = [(np.empty(0), device_names[:0], np.empty(0, dtype=np.int64),
                  np.empty(0, dtype=np.int64))]
    # every car's speed at each sampled tick; a collision leaves rows unfilled
    samples = np.empty((len(sampled), world.n))
    sample_t: list[float] = []
    events: list[TraceEvent] = []
    collided = False
    end_time = ticks * spec.control_dt

    # full-trace blocks in the order of Trace's fields, position to mode
    rec = ()
    if spec.record_full_trace:
        shape = (ticks + 1, world.n)
        rec = tuple(np.zeros(shape) for _ in range(5)) + (
            np.zeros(shape, dtype=np.int8), np.zeros(shape, dtype=np.int8))
    rec_rows = 0

    L = None
    for k in range(ticks + 1):
        t = k * spec.control_dt
        L = _lane_sort(world, L)
        crash = [] if L.min_gap > 0.0 else detect_collisions(world, L, t)
        if crash:
            events.extend(crash)
            collided = True
            end_time = t
            break
        if rec:
            mode = np.where(world.code == CODE_GSBL, world.gsbl_override, -1)
            for block, row in zip(rec, (world.pos, world.speed, world.accel, world.u_cmd,
                                        L.gap, world.lane, mode)):
                block[k] = row
            rec_rows = k + 1
        if k in sampled:
            samples[len(sample_t)] = world.speed
            sample_t.append(t)
        if k == ticks:
            break

        _lane_change_pass(world, L, t, ctrl.acc.H, events)
        u, hold = _control_tick(world, L, ctrl, families)
        if not np.isfinite(u).all():
            raise RunError(f"non-finite control input: {float(u[~np.isfinite(u)][0])!r}")
        pos_before = world.pos.copy()
        world.u_cmd = advance(world.pos, world.speed, world.accel, u, dyn, sub, hold,
                              ploeg, world.ploeg_u, ctrl.ploeg.H, tau)
        _wrap(world.pos, C)
        dist = _wrap(world.pos - pos_before, C)
        # only cars that end up within reach of a device can pass it
        y = pos_before * (len(DEVICES) / C)
        near = (np.ceil(y) - y < (dist.max() + ROUNDING_TOL) * len(DEVICES) / C).nonzero()[0]
        dev, hit = ((device_pos - pos_before[near]) % C < dist[near]).nonzero()
        hit = near[hit]
        if hit.size:
            crossings.append((np.full(hit.size, t + spec.control_dt), device_names[dev],
                              hit, world.lane[hit]))

    times, devices, vehicles, lanes = (np.concatenate(c) for c in zip(*crossings))
    full = None
    if rec:
        full = Trace(
            np.arange(rec_rows) * spec.control_dt, *(block[:rec_rows] for block in rec),
            events=events,
            scenario_kind="ring",
            config="".join(LETTER_BY_CODE[c] for c in world.code),
            terminated_by_collision=collided,
        )
    return RingTrace(
        spec=spec,
        n_vehicles=world.n,
        counter_times=times,
        counter_devices=devices,
        counter_vehicles=vehicles,
        counter_lanes=lanes,
        sample_times=np.asarray(sample_t),
        speed_samples=samples[:len(sample_t)],
        events=events,
        terminated_by_collision=collided,
        end_time=end_time,
        full=full,
    )
