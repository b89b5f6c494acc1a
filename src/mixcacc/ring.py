"""Ring-road traffic experiments with platoons embedded in baseline traffic.

A multi-lane ring carries a mix of platoons (head runs ACC, followers run the
configured platoon policy) and non-cooperative singles (ACC or IDM).  Singles
keep right when possible and overtake when blocked; platoons stay in the lane
matching their speed class.  Four roadside counters record crossings for
throughput estimation and vehicle speeds are sampled for volatility analysis.

The state is kept in flat numpy arrays and all per-tick work is vectorized;
the control laws are the same functions used by the single-platoon engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controllers import (
    ControllerSet,
    acc_accel,
    gsbl_mode_arrays,
    idm_accel,
    path_accel,
    ploeg_target,
)
from .dynamics import (
    DynamicsParams,
    STANDSTILL_BRAKE,
    STANDSTILL_GAP,
    STANDSTILL_SPEED,
    VEHICLE_LENGTH,
    step_arrays,
)
from .scenarios import ScenarioError, Trace, TraceEvent
from .topology import elect_ego_leaders, parse_config

CODE_ACC = 0
CODE_PLOEG = 1
CODE_PATH = 2
CODE_GSBL = 3
CODE_IDM = 4
LETTER_BY_CODE = "ALPGI"
CODE_BY_LETTER = {c: i for i, c in enumerate(LETTER_BY_CODE)}

PLATOON_POLICIES = ("P", "L", "G", "MIX")
BASELINES = ("ACC", "IDM")
DEVICES = ("N", "E", "S", "W")

SET_SPEED_GAIN = 1.0    # 1/s, cruise term of free-driving ACC
SPAWN_MARGIN = 2.0      # m, standstill part of spawn gaps
MIN_INTER_GAP = 3.0     # m, hard floor between spawned entities


class SpawnError(ValueError):
    """Raised when the requested traffic does not fit on the ring."""


@dataclass
class RingSpec:
    """Parameters of one ring experiment."""

    density: float                   # veh per km of road
    penetration: float = 0.0         # fraction of vehicles in platoons
    platoon_size: int = 8
    platoon_policy: str = "P"        # P, L, G or MIX
    baseline: str = "ACC"            # controller of the singles
    circumference: float = 10_000.0  # m
    lanes: int = 3
    speed_classes_kmh: tuple[float, ...] = (100.0, 115.0, 130.0)
    speed_jitter_kmh: float = 5.0
    duration: float = 600.0          # s, observed period
    warmup: float = 120.0            # s, excluded from all metrics
    seed: int = 0
    control_dt: float = 0.1
    volatility_sample_dt: float = 0.5
    counter_window: float = 15.0
    record_full_trace: bool = False

    def __post_init__(self):
        if self.density <= 0.0:
            raise SpawnError("density must be positive")
        if not 0.0 <= self.penetration <= 1.0:
            raise SpawnError("penetration must lie in [0, 1]")
        if self.platoon_policy not in PLATOON_POLICIES:
            raise SpawnError(f"unknown platoon policy {self.platoon_policy!r}")
        if self.baseline not in BASELINES:
            raise SpawnError(f"unknown baseline {self.baseline!r}")
        if self.penetration > 0.0 and self.platoon_size < 2:
            raise SpawnError("platoons need at least 2 vehicles")
        if len(self.speed_classes_kmh) != self.lanes:
            raise SpawnError("need one speed class per lane")


@dataclass
class LaneChangeParams:
    """Gap-acceptance model of the non-cooperative singles."""

    cooldown: float = 5.0            # s between lane changes of one vehicle
    speed_satisfaction: float = 0.9  # below this fraction of desired: blocked
    follow_factor: float = 1.5       # blocked if front gap < factor * follow gap
    margin: float = 3.0              # m, standstill part of accepted gaps
    headway: float = 0.5             # s, kinematic part of accepted gaps
    closing_time: float = 2.0        # s, allowance against closing speed
    right_speed_factor: float = 0.95 # right lane must admit this * desired
    free_gap: float = 150.0          # m, gaps beyond this count as open road


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
    platoon_configs: list[str] = field(default_factory=list)


@dataclass
class _LaneIndex:
    """Per-lane sorted views plus same-lane predecessor links and gaps."""

    lanes: list[tuple[np.ndarray, np.ndarray]]   # (sorted positions, indices)
    pred: np.ndarray
    gap: np.ndarray


def _lane_sort(world: RingWorld) -> _LaneIndex:
    C = world.spec.circumference
    pred = np.arange(world.n)
    gap = np.full(world.n, C)
    lanes: list[tuple[np.ndarray, np.ndarray]] = []
    for l in range(world.spec.lanes):
        idx = np.flatnonzero(world.lane == l)
        if idx.size == 0:
            lanes.append((np.empty(0), idx))
            continue
        srt = idx[np.argsort(world.pos[idx], kind="stable")]
        p = world.pos[srt]
        ahead = np.roll(srt, -1)
        g = world.pos[ahead] - world.length[ahead] - p
        g[-1] += C
        pred[srt] = ahead
        gap[srt] = g
        lanes.append((p, srt))
    return _LaneIndex(lanes, pred, gap)


def detect_collisions(
    world: RingWorld, t: float = 0.0, L: _LaneIndex | None = None
) -> list[TraceEvent]:
    """Same-lane bumper overlaps; different lanes never collide.

    Pass the lane index of the current state as ``L`` to skip re-sorting.
    """
    L = L or _lane_sort(world)
    hits = np.flatnonzero((L.gap <= 0.0) & (L.pred != np.arange(world.n)))
    return [
        TraceEvent(t, "collision", int(i), int(L.pred[i]), f"gap={L.gap[i]:.3f}")
        for i in hits
    ]


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------

def spawn_ring_traffic(
    spec: RingSpec,
    ctrl: ControllerSet | None = None,
    rng: np.random.Generator | None = None,
) -> RingWorld:
    """Populate the ring at the requested density.

    Platoons go to the lane of their speed class.  Singles are placed in the
    rightmost lane that still offers comfortable spacing at their desired
    speed; once every lane is saturated the remaining singles are spread over
    the least-loaded lanes at jam spacing (speeds are reduced so that initial
    gaps stay safe).
    """
    ctrl = ctrl or ControllerSet()
    rng = rng or np.random.default_rng(spec.seed)
    C = spec.circumference
    total = int(math.floor(spec.density * C / 1000.0))
    if total < 1:
        raise SpawnError("density too low for a single vehicle")
    n_platoons = int(math.floor(total * spec.penetration / spec.platoon_size))
    n_members = n_platoons * spec.platoon_size
    n_singles = total - n_members
    classes = np.asarray(spec.speed_classes_kmh, dtype=float)

    base_code = CODE_ACC if spec.baseline == "ACC" else CODE_IDM
    head_headway = ctrl.acc.H
    single_headway = ctrl.acc.H if base_code == CODE_ACC else ctrl.idm.T

    # entity: (indices, v_des, lane or None, letters, headway of its head)
    entities = []
    idx0 = 0
    for _ in range(n_platoons):
        ci = int(rng.integers(len(classes)))
        v_des = (classes[ci] + rng.uniform(-spec.speed_jitter_kmh, spec.speed_jitter_kmh)) / 3.6
        if spec.platoon_policy == "MIX":
            letters = "".join(rng.choice(list("PLG"), size=spec.platoon_size - 1))
        else:
            letters = spec.platoon_policy * (spec.platoon_size - 1)
        entities.append({
            "indices": list(range(idx0, idx0 + spec.platoon_size)),
            "v_des": v_des, "lane": ci, "letters": "A" + letters,
            "headway": head_headway,
        })
        idx0 += spec.platoon_size
    for _ in range(n_singles):
        ci = int(rng.integers(len(classes)))
        v_des = (classes[ci] + rng.uniform(-spec.speed_jitter_kmh, spec.speed_jitter_kmh)) / 3.6
        entities.append({
            "indices": [idx0], "v_des": v_des, "lane": None,
            "letters": LETTER_BY_CODE[base_code], "headway": single_headway,
        })
        idx0 += 1

    def block_length(e, v) -> float:
        letters = e["letters"]
        gaps = [ctrl.equilibrium_gap(c, v) for c in letters[1:]]
        return len(letters) * VEHICLE_LENGTH + float(np.sum(gaps)) if gaps else VEHICLE_LENGTH

    # lane assignment: platoons to class lanes, singles rightmost comfortable
    used = np.zeros(spec.lanes)
    counts = np.zeros(spec.lanes, dtype=int)
    overflow = []
    for e in entities:
        b = block_length(e, e["v_des"])
        e["b1"] = b
        comfort = SPAWN_MARGIN + e["headway"] * e["v_des"]
        if e["lane"] is not None:
            l = e["lane"]
            if used[l] + b + (counts[l] + 1) * MIN_INTER_GAP > C:
                raise SpawnError(
                    f"platoon traffic exceeds lane {l} capacity at density {spec.density}"
                )
            used[l] += b
            counts[l] += 1
            continue
        placed = False
        for l in range(spec.lanes):
            if used[l] + b + (counts[l] + 1) * comfort <= C:
                e["lane"] = l
                used[l] += b
                counts[l] += 1
                placed = True
                break
        if not placed:
            overflow.append(e)
    for e in overflow:
        load = np.where(counts > 0, used / C, 0.0)
        order = sorted(range(spec.lanes), key=lambda l: (load[l], l))
        for l in order:
            if used[l] + e["b1"] + (counts[l] + 1) * MIN_INTER_GAP <= C:
                e["lane"] = l
                used[l] += e["b1"]
                counts[l] += 1
                break
        else:
            feasible = spec.lanes * C / (VEHICLE_LENGTH + MIN_INTER_GAP) / (C / 1000.0)
            raise SpawnError(
                f"density {spec.density} veh/km does not fit; "
                f"roughly {feasible:.0f} veh/km is the geometric limit"
            )

    world = RingWorld(
        spec=spec, n=total,
        pos=np.zeros(total), speed=np.zeros(total), accel=np.zeros(total),
        u_cmd=np.zeros(total), lane=np.zeros(total, dtype=np.int64),
        length=np.full(total, VEHICLE_LENGTH), desired=np.zeros(total),
        code=np.zeros(total, dtype=np.int8),
        platoon_id=np.full(total, -1, dtype=np.int64),
        member_succ=np.full(total, -1, dtype=np.int64),
        ego_leader=np.full(total, -1, dtype=np.int64),
        ploeg_u=np.zeros(total),
        gsbl_override=np.zeros(total, dtype=bool),
        lc_last=np.full(total, -np.inf),
    )

    for l in range(spec.lanes):
        lane_entities = [e for e in entities if e["lane"] == l]
        if not lane_entities:
            continue
        order = rng.permutation(len(lane_entities))
        lane_entities = [lane_entities[j] for j in order]
        blocks2 = []
        for e in lane_entities:
            inter1 = (C - sum(x["b1"] for x in lane_entities)) / len(lane_entities)
            cap = max(0.0, (inter1 - SPAWN_MARGIN) / e["headway"])
            e["v_spawn"] = min(e["v_des"], cap)
            blocks2.append(block_length(e, e["v_spawn"]))
        inter2 = (C - sum(blocks2)) / len(lane_entities)
        cursor = rng.uniform(0.0, C)
        for e, b2 in zip(lane_entities, blocks2):
            _place_entity(world, ctrl, e, cursor, l)
            cursor -= b2 + inter2
    world.pos %= C
    return world


def _place_entity(world, ctrl, e, head_front, lane):
    letters = e["letters"]
    idx = e["indices"]
    v = e["v_spawn"]
    pid = idx[0] if len(idx) > 1 else -1
    if len(idx) > 1:
        world.platoon_configs.append(letters)
        leaders = elect_ego_leaders(parse_config(letters))
    pos = head_front
    for m, (i, letter) in enumerate(zip(idx, letters)):
        if m > 0:
            pos -= VEHICLE_LENGTH + ctrl.equilibrium_gap(letter, v)
        world.pos[i] = pos
        world.speed[i] = v
        world.desired[i] = e["v_des"]
        world.lane[i] = lane
        world.code[i] = CODE_BY_LETTER[letter]
        if len(idx) > 1:
            world.platoon_id[i] = pid
            if m + 1 < len(idx):
                world.member_succ[i] = idx[m + 1]
            if m > 0:
                world.ego_leader[i] = idx[leaders[m]]


# ---------------------------------------------------------------------------
# Lane changes
# ---------------------------------------------------------------------------

def _lane_neighbors(world, L, lane, x, exclude):
    """(front_idx, front_gap, rear_idx, rear_gap) around position x in a lane."""
    C = world.spec.circumference
    positions, idx = L.lanes[lane]
    if idx.size == 0 or (idx.size == 1 and idx[0] == exclude):
        return None, C, None, C
    j = int(np.searchsorted(positions, x))
    front = int(idx[j % idx.size])
    rear = int(idx[(j - 1) % idx.size])
    if front == exclude:
        front = int(idx[(j + 1) % idx.size])
    if rear == exclude:
        rear = int(idx[(j - 2) % idx.size])
    # wrap the front-bumper distance first so overlap stays negative
    front_gap = (world.pos[front] - x) % C - world.length[front]
    rear_gap = (x - world.pos[rear]) % C - VEHICLE_LENGTH
    return front, front_gap, rear, rear_gap


def lane_change_decision(
    world: RingWorld,
    i: int,
    L: _LaneIndex,
    params: LaneChangeParams,
    acc_headway: float,
) -> str:
    """Keep-right / overtake decision of one non-cooperative single."""
    v = world.speed[i]
    vd = world.desired[i]
    lane = int(world.lane[i])
    x = world.pos[i]

    def safe(front, front_gap, rear, rear_gap):
        if front is not None and rear is not None and front != rear:
            pf, pr = world.platoon_id[front], world.platoon_id[rear]
            if pf >= 0 and pf == pr:
                return False     # never squeeze between platoon members
        if front is not None:
            need = params.margin + params.headway * v \
                + params.closing_time * max(0.0, v - world.speed[front])
            if front_gap < need:
                return False
        if rear is not None:
            vr = world.speed[rear]
            need = params.margin + params.headway * vr \
                + params.closing_time * max(0.0, vr - v)
            if rear_gap < need:
                return False
        return True

    if lane > 0:
        front, fg, rear, rg = _lane_neighbors(world, L, lane - 1, x, i)
        room = params.margin + acc_headway * vd
        admits = fg >= params.free_gap or (
            fg >= room and (front is None or world.speed[front] >= params.right_speed_factor * vd)
        )
        if admits and safe(front, fg, rear, rg):
            return "right"

    if lane + 1 < world.spec.lanes and v < params.speed_satisfaction * vd:
        blocked = L.gap[i] < params.follow_factor * (params.margin + acc_headway * v)
        if blocked:
            front, fg, rear, rg = _lane_neighbors(world, L, lane + 1, x, i)
            if safe(front, fg, rear, rg):
                return "left"
    return "stay"


def _vec_target_check(world, L, cand, target, params, acc_headway, want_right):
    """Vectorized desire and safety test against one target lane.

    Conservative snapshot check used to prefilter candidates; accepted moves
    are re-validated sequentially by :func:`lane_change_decision`.
    """
    C = world.spec.circumference
    x = world.pos[cand]
    v = world.speed[cand]
    vd = world.desired[cand]
    positions, idxs = L.lanes[target]
    if idxs.size == 0:
        return np.ones(cand.size, dtype=bool)
    j = np.searchsorted(positions, x)
    front = idxs[j % idxs.size]
    rear = idxs[(j - 1) % idxs.size]
    front_gap = (world.pos[front] - x) % C - world.length[front]
    rear_gap = (x - world.pos[rear]) % C - world.length[cand]
    vf = world.speed[front]
    vr = world.speed[rear]
    ok = front_gap >= params.margin + params.headway * v \
        + params.closing_time * np.maximum(0.0, v - vf)
    ok &= rear_gap >= params.margin + params.headway * vr \
        + params.closing_time * np.maximum(0.0, vr - v)
    pf = world.platoon_id[front]
    ok &= ~((front != rear) & (pf >= 0) & (pf == world.platoon_id[rear]))
    if want_right:
        room = params.margin + acc_headway * vd
        ok &= (front_gap >= params.free_gap) | (
            (front_gap >= room) & (vf >= params.right_speed_factor * vd)
        )
    return ok


def _lane_change_pass(world, L, t, params, acc_headway, events):
    eligible = (world.platoon_id < 0) & (t - world.lc_last >= params.cooldown)
    if not eligible.any():
        return L, False
    v = world.speed
    slow = v < params.speed_satisfaction * world.desired
    blocked = L.gap < params.follow_factor * (params.margin + acc_headway * v)
    candidates: set[int] = set()
    for l in range(world.spec.lanes):
        in_lane = eligible & (world.lane == l)
        if l > 0:
            cand = np.flatnonzero(in_lane)
            if cand.size:
                ok = _vec_target_check(world, L, cand, l - 1, params, acc_headway, True)
                candidates.update(int(i) for i in cand[ok])
        if l + 1 < world.spec.lanes:
            cand = np.flatnonzero(in_lane & slow & blocked)
            if cand.size:
                ok = _vec_target_check(world, L, cand, l + 1, params, acc_headway, False)
                candidates.update(int(i) for i in cand[ok])
    changed = False
    for i in sorted(candidates):
        decision = lane_change_decision(world, i, L, params, acc_headway)
        if decision == "stay":
            continue
        old = int(world.lane[i])
        new = old - 1 if decision == "right" else old + 1
        world.lane[i] = new
        world.lc_last[i] = t
        events.append(TraceEvent(t, "lane_change", i, None, f"{old}->{new}"))
        L = _lane_sort(world)
        changed = True
    return L, changed


# ---------------------------------------------------------------------------
# Controller tick
# ---------------------------------------------------------------------------

def _gsbl_tick(world, idxG, L, ctrl):
    """Vectorized supervisory update plus spring-damper field for members."""
    p = ctrl.gsbl
    C = world.spec.circumference
    v0, u0, pos0 = world.speed, world.u_cmd, world.pos
    lead = world.ego_leader[idxG]
    u_l = u0[lead]
    v_l = v0[lead]
    vi = v0[idxG]
    vp = v0[L.pred[idxG]]
    gapf = L.gap[idxG]

    # only the override latch carries over; v_r and r follow the beacon
    world.gsbl_override[idxG], vr, r = gsbl_mode_arrays(
        world.gsbl_override[idxG], v_l, u_l, vi, vp, gapf, p)

    u = p.k * (gapf - p.d) + p.h * (vp - vi) - r * (vi - vr)
    succ = world.member_succ[idxG]
    has = succ >= 0
    if has.any():
        s = succ[has]
        e = idxG[has]
        gap_rear = (pos0[e] - world.length[e] - pos0[s]) % C
        u[has] += -p.k * (gap_rear - p.d) + p.h * (v0[s] - v0[e])
    return u


def _control_tick(world, L, ctrl):
    v0, a0, u0 = world.speed, world.accel, world.u_cmd
    pred = L.pred
    gap = L.gap
    code = world.code
    u = np.zeros(world.n)

    mA = code == CODE_ACC
    if mA.any():
        u_gap = acc_accel(v0[mA], v0[pred[mA]], gap[mA], ctrl.acc.H, ctrl.acc.lam)
        u_set = SET_SPEED_GAIN * (world.desired[mA] - v0[mA])
        u[mA] = np.minimum(u_gap, u_set)
    mI = code == CODE_IDM
    if mI.any():
        u[mI] = idm_accel(v0[mI], gap[mI], v0[pred[mI]], ctrl.idm, v0=world.desired[mI])
    mL = code == CODE_PLOEG
    if mL.any():
        # drive target of the actuation filter; the filter state itself
        # (world.ploeg_u) integrates at the physics rate in the main loop
        u[mL] = ploeg_target(
            gap[mL], v0[mL], a0[mL], v0[pred[mL]], u0[pred[mL]],
            ctrl.ploeg.H, ctrl.ploeg.kp, ctrl.ploeg.kd,
        )
    mP = code == CODE_PATH
    if mP.any():
        lead = world.ego_leader[mP]
        u[mP] = path_accel(
            u0[pred[mP]], u0[lead], v0[mP], v0[pred[mP]], v0[lead],
            gap[mP], ctrl.path.dd, ctrl.path.gains,
        )
    idxG = np.flatnonzero(code == CODE_GSBL)
    if idxG.size:
        u[idxG] = _gsbl_tick(world, idxG, L, ctrl)
    # auto-hold keeps crawling queues parked instead of creeping into contact
    hold = (
        (v0 < STANDSTILL_SPEED) & (v0[pred] < STANDSTILL_SPEED)
        & (gap < STANDSTILL_GAP) & (pred != np.arange(world.n))
    )
    if hold.any():
        u[hold] = np.minimum(u[hold], STANDSTILL_BRAKE)
    return u, hold


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

@dataclass
class RingTrace:
    """Observables of one ring run."""

    spec: RingSpec
    n_vehicles: int
    controllers: tuple[str, ...]
    platoon_id: np.ndarray
    desired_speed: np.ndarray
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

    def counters_csv(self) -> str:
        lines = ["t,device,veh,lane"]
        for t, d, v, l in zip(
            self.counter_times, self.counter_devices,
            self.counter_vehicles, self.counter_lanes,
        ):
            lines.append(f"{t:.6f},{d},{int(v)},{int(l)}")
        return "\n".join(lines) + "\n"

    def events_csv(self) -> str:
        lines = ["t,kind,veh_a,veh_b,detail"]
        for ev in self.events:
            b = "" if ev.veh_b is None else ev.veh_b
            lines.append(f"{ev.time:.6f},{ev.kind},{ev.veh_a},{b},{ev.detail}")
        return "\n".join(lines) + "\n"

    def serialize(self) -> bytes:
        parts = [self.counters_csv(), self.events_csv()]
        parts.append(",".join(f"{v:.6f}" for v in self.speed_samples.ravel()))
        if self.full is not None:
            parts.append(self.full.rows_csv())
        return "\n".join(parts).encode()


def run_ring(
    spec: RingSpec,
    dyn: DynamicsParams | None = None,
    ctrl: ControllerSet | None = None,
    lc: LaneChangeParams | None = None,
) -> RingTrace:
    """Simulate one ring experiment; stops early if a collision occurs."""
    dyn = dyn or DynamicsParams()
    ctrl = ctrl or ControllerSet()
    lc = lc or LaneChangeParams()
    rng = np.random.default_rng(spec.seed)
    world = spawn_ring_traffic(spec, ctrl, rng)
    C = spec.circumference
    sub = round(spec.control_dt / dyn.dt)
    if abs(sub * dyn.dt - spec.control_dt) > 1e-9 or sub < 1:
        raise ScenarioError("control_dt must be a multiple of the dynamics dt")
    # IDM stands in for human drivers simulated without powertrain lag
    tau = np.where(world.code == CODE_IDM, dyn.dt, dyn.tau)
    m_ploeg = world.code == CODE_PLOEG
    has_ploeg = bool(m_ploeg.any())

    device_pos = [(i * C / len(DEVICES), d) for i, d in enumerate(DEVICES)]
    ticks = round((spec.warmup + spec.duration) / spec.control_dt)
    sample_every = max(1, round(spec.volatility_sample_dt / spec.control_dt))

    cnt_t: list[np.ndarray] = []
    cnt_d: list[np.ndarray] = []
    cnt_v: list[np.ndarray] = []
    cnt_l: list[np.ndarray] = []
    samples: list[np.ndarray] = []
    sample_t: list[float] = []
    events: list[TraceEvent] = []
    collided = False
    end_time = ticks * spec.control_dt

    rec = None
    if spec.record_full_trace:
        shape = (ticks + 1, world.n)
        rec = {
            "position": np.zeros(shape), "speed": np.zeros(shape),
            "accel": np.zeros(shape), "ctrl_input": np.zeros(shape),
            "gap": np.full(shape, np.nan), "lane": np.zeros(shape, dtype=np.int8),
            "mode": np.full(shape, -1, dtype=np.int8),
        }
    rec_rows = 0

    for k in range(ticks + 1):
        t = k * spec.control_dt
        L = _lane_sort(world)
        crash = detect_collisions(world, t, L)
        if crash:
            events.extend(crash)
            collided = True
            end_time = t
            break
        if rec is not None:
            rec["position"][k] = world.pos
            rec["speed"][k] = world.speed
            rec["accel"][k] = world.accel
            rec["ctrl_input"][k] = world.u_cmd
            rec["gap"][k] = L.gap
            rec["lane"][k] = world.lane
            mG = world.code == CODE_GSBL
            rec["mode"][k][mG] = world.gsbl_override[mG].astype(np.int8)
            rec_rows = k + 1
        if t >= spec.warmup - 1e-9 and k % sample_every == 0:
            samples.append(world.speed.copy())
            sample_t.append(t)
        if k == ticks:
            break

        L, moved = _lane_change_pass(world, L, t, lc, ctrl.acc.H, events)
        u, hold = _control_tick(world, L, ctrl)
        pos_before = world.pos.copy()
        u_eff = u.copy()
        for _ in range(sub):
            if has_ploeg:
                # actuation filter of the Ploeg vehicles runs at physics rate
                world.ploeg_u[m_ploeg] += (dyn.dt / ctrl.ploeg.H) * (
                    u[m_ploeg] - world.ploeg_u[m_ploeg]
                )
                u_eff[m_ploeg] = world.ploeg_u[m_ploeg]
                u_eff[hold] = np.minimum(u_eff[hold], STANDSTILL_BRAKE)
            step_arrays(world.pos, world.speed, world.accel, u_eff, dyn, tau=tau)
        world.pos %= C
        world.u_cmd = u_eff
        dist = (world.pos - pos_before) % C
        t_end = t + spec.control_dt
        for dpos, name in device_pos:
            rel = (dpos - pos_before) % C
            hit = np.flatnonzero(rel < dist)
            if hit.size:
                cnt_t.append(np.full(hit.size, t_end))
                cnt_d.append(np.full(hit.size, name, dtype="U1"))
                cnt_v.append(hit)
                cnt_l.append(world.lane[hit])

    full = None
    if rec is not None:
        full = Trace(
            times=np.arange(rec_rows) * spec.control_dt,
            controllers=tuple(LETTER_BY_CODE[c] for c in world.code),
            position=rec["position"][:rec_rows],
            speed=rec["speed"][:rec_rows],
            accel=rec["accel"][:rec_rows],
            ctrl_input=rec["ctrl_input"][:rec_rows],
            gap=rec["gap"][:rec_rows],
            lane=rec["lane"][:rec_rows],
            mode=rec["mode"][:rec_rows],
            events=events,
            scenario_kind="ring",
            config=f"ring-d{spec.density:g}-{spec.platoon_policy}",
            terminated_by_collision=collided,
        )
    return RingTrace(
        spec=spec,
        n_vehicles=world.n,
        controllers=tuple(LETTER_BY_CODE[c] for c in world.code),
        platoon_id=world.platoon_id.copy(),
        desired_speed=world.desired.copy(),
        counter_times=np.concatenate(cnt_t) if cnt_t else np.empty(0),
        counter_devices=np.concatenate(cnt_d) if cnt_d else np.empty(0, dtype="U1"),
        counter_vehicles=np.concatenate(cnt_v) if cnt_v else np.empty(0, dtype=np.int64),
        counter_lanes=np.concatenate(cnt_l) if cnt_l else np.empty(0, dtype=np.int64),
        sample_times=np.asarray(sample_t),
        speed_samples=np.asarray(samples) if samples else np.empty((0, world.n)),
        events=events,
        terminated_by_collision=collided,
        end_time=end_time,
        full=full,
    )
