"""Single-platoon disturbance experiments on an open road.

The platoon head is driven by a commanded speed profile (sinusoidal speed
perturbation or an emergency braking ramp) and does not react to the platoon.
Followers run the controller given by the composition string.  Controllers and
beacons run on a 10 Hz grid while the vehicle dynamics integrate at 100 Hz.

One engine steps a whole batch of platoons of the same size as a
(rows x vehicles) state, each row with its own scenario and timeline; a
single run is a batch of one.  It keeps only the platoon's topology, as
flat neighbour index arrays, and the profile-driven heads: the control
decisions, which gather the neighbours, and the physics substeps are
:func:`controllers.control_tick` and :func:`dynamics.advance`, the core the
ring engine runs too.  No float operation of a row reads another row, so
a row's trace does not depend on the batch it ran in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .controllers import (
    CODE_BY_LETTER,
    CODE_GSBL,
    CODE_PLOEG,
    ControllerSet,
    GsblMode,
    control_tick,
    family_indices,
)
from .config import RunError, UsageError
from .dynamics import DynamicsParams, VEHICLE_LENGTH, advance
from .topology import EXTERNAL_REF, elect_ego_leaders

# The engine calls none of these per-vehicle names; they are bound here only
# for perfbench's layer tracer, until the tracer reads spans from the package.
from .controllers import (  # noqa: E402,F401
    acc_control,
    gsbl_control,
    gsbl_mode_update,
    path_control,
    ploeg_control,
)
from .dynamics import step_vehicle  # noqa: E402,F401

CONTROL_DT = 0.1       # controller and beacon period [s]
PROFILE_GAIN = 0.5     # speed correction gain of the profile-driven head [1/s]
_PROFILE_HEAD = -1     # family code of a head that follows the speed profile

SINUSOIDAL = "sinusoidal"
BRAKING = "braking"

_DEFAULT_DURATION = {SINUSOIDAL: 100.0, BRAKING: 60.0}
WARMUP = 30.0          # s before the sinusoidal analysis window opens
BASE_SPEED = 27.78     # m/s (100 km/h), the head's cruise speed
FREQUENCY = 0.1        # Hz, sinusoidal speed swing
BRAKE_DECEL = 8.0      # m/s^2, emergency ramp
MAX_SPAN = 2.0 ** 23   # s; float64 spacing beyond it exceeds the 1e-9 s whole-period rule
MAX_SUBSTEPS = 1000    # dynamics steps per control period (dt = 1e-4 s at the 0.1 s period)
# names of the override latch in events and of 0/1 in the trace CSV's mode
_MODE_NAME = {False: GsblMode.CRUISE.value, True: GsblMode.OVERRIDE.value}


@dataclass
class SingleScenario:
    """Parameters of one open-road platoon experiment."""

    kind: str
    config: str
    duration: float | None = None
    amplitude: float = 2.78         # m/s, sinusoidal speed swing
    brake_onset: float = 30.0       # s
    initial_gap_offsets: dict[int, float] | None = None

    def __post_init__(self):
        if self.kind not in (SINUSOIDAL, BRAKING):
            raise UsageError(f"unknown scenario kind {self.kind!r}")
        if self.duration is None:
            self.duration = _DEFAULT_DURATION[self.kind]
        if not 0.0 < self.duration < math.inf:
            raise UsageError("duration must be positive and finite")


def leader_target_speed(scn: SingleScenario, t: float) -> float:
    """Commanded speed of the profile-driven head at time t."""
    if scn.kind == SINUSOIDAL:
        return BASE_SPEED + scn.amplitude * math.sin(2.0 * math.pi * FREQUENCY * t)
    if t < scn.brake_onset:
        return BASE_SPEED
    return max(0.0, BASE_SPEED - BRAKE_DECEL * (t - scn.brake_onset))


def leader_target_accel(scn: SingleScenario, t: float) -> float:
    """Feed-forward acceleration of the commanded profile."""
    if scn.kind == SINUSOIDAL:
        w = 2.0 * math.pi * FREQUENCY
        return scn.amplitude * w * math.cos(w * t)
    if t < scn.brake_onset:
        return 0.0
    return -BRAKE_DECEL if leader_target_speed(scn, t) > 0.0 else 0.0


@dataclass
class TraceEvent:
    time: float
    kind: str               # collision, mode_switch, lane_change
    veh_a: int
    veh_b: int | None = None
    detail: str = ""


def events_csv(events: list[TraceEvent]) -> str:
    """CSV of a run's events; no event detail holds a comma or a quote."""
    lines = ["t,kind,veh_a,veh_b,detail"]
    for ev in events:
        b = "" if ev.veh_b is None else ev.veh_b
        lines.append(f"{ev.time:.6f},{ev.kind},{ev.veh_a},{b},{ev.detail}")
    return "\n".join(lines) + "\n"


@dataclass
class Trace:
    """Time-indexed per-vehicle record of one simulation run.

    All 2-D arrays have shape (ticks, vehicles).  ``gap`` is the bumper gap to
    the predecessor (NaN where there is none), ``mode`` holds the supervisory
    state of spring-damper vehicles (-1 elsewhere: 0 cruise, 1 override).
    A platoon trace is given ``gap=None``: its ``gap`` is computed from
    ``position`` on each read, by the engine's own float operations, so it
    equals the gap the engine stepped with bit for bit.
    """

    times: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    ctrl_input: np.ndarray
    gap: np.ndarray | None
    lane: np.ndarray
    mode: np.ndarray
    events: list[TraceEvent] = field(default_factory=list)
    scenario_kind: str = ""
    config: str = ""                # the composition: one letter per vehicle, head first
    terminated_by_collision: bool = False

    def __post_init__(self):
        if self.gap is None:
            del self.gap            # read through __getattr__

    def __getattr__(self, name):
        """A platoon trace's ``gap``, as the engine computes it."""
        if name != "gap":
            raise AttributeError(f"'Trace' object has no attribute {name!r}")
        pos = self.position
        gap = np.full_like(pos, np.nan)
        gap[:, 1:] = pos[:, :-1] - VEHICLE_LENGTH - pos[:, 1:]
        return gap

    @property
    def n_vehicles(self) -> int:
        return len(self.config)

    def window_mask(self, t0: float, t1: float) -> np.ndarray:
        return (self.times >= t0 - 1e-9) & (self.times <= t1 + 1e-9)

    def rows_csv_chunks(self, header_comment: str | None = None):
        """The text of :meth:`rows_csv`: its header lines, then one string
        per tick."""
        if header_comment:
            yield f"# {header_comment}\n"
        yield "t,veh,lane,x,v,a,u,gap,ctrl,mode\n"
        # one template per tick; a vehicle's index and controller letter
        # are the same on every tick, so they sit in it as text
        row = "".join(f"%s,{i},%d,%.6f,%.6f,%.6f,%.6f,%.6f,{c},%s\n"
                      for i, c in enumerate(self.config))
        blocks = (self.lane, self.position, self.speed, self.accel, self.ctrl_input, self.gap)
        for k, t in enumerate(self.times.tolist()):
            modes = [_MODE_NAME.get(m, "") for m in self.mode[k].tolist()]
            cols = [[f"{t:.6f}"] * len(modes), *(b[k].tolist() for b in blocks), modes]
            yield row % tuple(itertools.chain.from_iterable(zip(*cols)))

    def rows_csv(self, header_comment: str | None = None) -> str:
        return "".join(self.rows_csv_chunks(header_comment))

    def serialize(self) -> bytes:
        return (self.rows_csv() + events_csv(self.events)).encode()


def whole_periods(span: float, period: float, name: str, positive: bool = True) -> int:
    """The number of control ``period``s in ``span``.  The period must be
    positive and finite, and the span a whole number of periods to within
    1e-9 s, positive (or else not negative) and below :data:`MAX_SPAN`."""
    if not 0.0 < period < math.inf:
        raise UsageError(f"the control period must be positive and finite, got {period:g}")
    n = round(span / period) if 0.0 <= span < MAX_SPAN else -1
    if abs(n * period - span) > 1e-9 or n < positive:
        raise UsageError(f"{name} must be a {'positive' if positive else 'non-negative'} "
                         "multiple of the control period below 2**23 s")
    return n


def substeps(control_dt: float, dt: float) -> int:
    """Dynamics steps per control period: a whole number, at most :data:`MAX_SUBSTEPS`."""
    sub = round(control_dt / dt) if dt > 0.0 and math.isfinite(control_dt / dt) else 0
    if sub < 1 or abs(sub * dt - control_dt) > 1e-9:
        raise UsageError(f"the control period ({control_dt:g} s) must be a whole multiple of "
                         f"the dynamics dt ([dynamics] dt = {dt:g} s)")
    if sub > MAX_SUBSTEPS:
        raise UsageError(f"control_dt holds {sub} dynamics steps; at most {MAX_SUBSTEPS} may")
    return sub


def _timeline(scn: SingleScenario) -> tuple:
    """Every scenario field except the platoon and its start offsets."""
    return tuple(
        getattr(scn, f.name) for f in fields(scn)
        if f.name not in ("config", "initial_gap_offsets")
    )


def _start_positions(cfg: str, scn: SingleScenario, ctrl: ControllerSet) -> list[float]:
    """Front bumpers at each follower's equilibrium gap plus its offset."""
    offsets = scn.initial_gap_offsets or {}
    pos = [0.0]
    for i in range(1, len(cfg)):
        gap = ctrl.equilibrium_gap(cfg[i], BASE_SPEED) + offsets.get(i, 0.0)
        pos.append(pos[-1] - VEHICLE_LENGTH - gap)
    return pos


def _row_masks(code: np.ndarray) -> tuple:
    """Family indices, the spring-damper mask, the Ploeg indices and the
    profile-driven heads of the rows ``code``."""
    gsbl = code == CODE_GSBL
    return family_indices(code), gsbl, np.flatnonzero(code == CODE_PLOEG), ~gsbl[:, 0]


@np.errstate(over="ignore", invalid="ignore")   # a non-finite command ends its row
def run_platoon_batch(
    scns: list[SingleScenario],
    dyn: DynamicsParams | None = None,
    ctrl: ControllerSet | None = None,
    control_dt: float = CONTROL_DT,
) -> list[Trace | Exception]:
    """Simulate platoons of one size in a single time loop.

    Row r of the (rows x vehicles) state runs ``scns[r]``.  All rows share
    the platoon size; composition, timeline (kind, duration and profile)
    and initial gap offsets are per row.  Vehicles start at their own
    controller's equilibrium gap at their base speed, and a row ends at its
    first collision or at its last tick.  Every row's settings are checked
    before the first tick: the first rejected row raises its ``UsageError``.
    A row whose control command goes non-finite gets a ``RunError`` in place
    of its trace; no row reads another's state, so the others run on.

    The state holds the rows longest timeline first.  When the shortest
    live timeline ends, the state shrinks to the rows still running, as
    views of its prefix, so no finished timeline is stepped again.  A row
    that collided keeps stepping until its timeline ends and nothing reads
    it again: its trace is a view of the ticks before it ended.
    """
    dyn = dyn or DynamicsParams()
    ctrl = ctrl or ControllerSet()
    sub = substeps(control_dt, dyn.dt)

    # (sort key, input row, config, leaders) per row: the key puts the longest
    # timeline first (minus its last tick) and each timeline's rows side by side
    table = []
    for r, scn in enumerate(scns):
        leaders = elect_ego_leaders(scn.config)
        for i, leader in leaders.items():
            if scn.config[i] == "P" and leader is EXTERNAL_REF:
                raise UsageError(f"follower {i} in {scn.config} runs the constant-spacing "
                                 "controller without any leader to elect")
        last = whole_periods(scn.duration, control_dt, "duration")
        table.append(((-last, _timeline(scn)), r, scn.config, leaders))
    if not table:
        return []
    keys, rows, cfgs, leaders_of = zip(*sorted(table, key=lambda row: row[0]))
    n = len(cfgs[0])
    if any(len(cfg) != n for cfg in cfgs):
        raise RuntimeError("a batch runs one platoon size")   # the caller's grouping is at fault

    times = np.arange(1 - keys[0][0]) * control_dt
    # each timeline's rows get their own (rows, ticks, vehicles) record
    # blocks: a row's trace is a view, and no block holds ticks its rows
    # never run
    groups, m = [], 0                         # (first row, end row, scenario, last tick, blocks)
    for (neg_last, _), same in itertools.groupby(keys):
        lo, m = m, m + sum(1 for _ in same)
        shape = (m - lo, 1 - neg_last, n)
        blocks = [np.empty(shape) for _ in range(4)] + [np.empty(shape, np.int8)]
        groups.append((lo, m, scns[rows[lo]], -neg_last, blocks))
    running = groups                          # the groups whose timeline goes on
    results: list = [None] * len(scns)        # a failed run's exception, then every trace
    events: list[list[TraceEvent]] = [[] for _ in rows]
    collided = {}                             # state row -> the tick its collision ended it

    # the head follows the speed profile unless it runs the spring-damper law
    code = np.array([
        [CODE_GSBL if cfg[0] == "G" else _PROFILE_HEAD]
        + [CODE_BY_LETTER[c] for c in cfg[1:]]
        for cfg in cfgs
    ], dtype=np.int8)
    # neighbours as flat indices: the head is its own predecessor, -1 is none
    at = np.arange(m * n).reshape(m, n)
    has_pred = at % n > 0
    pred, succ = at - has_pred, np.where(at % n < n - 1, at + 1, -1)
    lead = np.array([                         # elected leader
        [-1] + [-1 if leaders[i] is EXTERNAL_REF else r * n + leaders[i] for i in range(1, n)]
        for r, leaders in enumerate(leaders_of)
    ])
    pos = np.array([_start_positions(cfg, scns[r], ctrl) for r, cfg in zip(rows, cfgs)])
    spd = np.full((m, n), BASE_SPEED)
    acc = np.zeros((m, n))
    uin = np.zeros((m, n))                    # last clamped commands
    ufilt = np.zeros((m, n))                  # Ploeg actuation filter states
    over = np.zeros((m, n), dtype=bool)       # spring-damper override latch
    v_t = np.empty((m, n))                    # each row's head profile
    a_t = np.empty(m)
    done = np.zeros(m, dtype=bool)            # rows whose result is settled
    families, is_gsbl, ploeg, profile_head = _row_masks(code)
    free = np.full((m, n), np.inf)            # no cruise cap

    for k, t in enumerate(times):
        gap = pos.take(pred) - VEHICLE_LENGTH - pos
        now = (pos, spd, acc, uin, np.where(is_gsbl, over, -1))
        for lo, hi, _, _, blocks in running:
            for block, a in zip(blocks, now):
                block[:, k] = a[lo:hi]
        hit = (gap <= 0.0) & has_pred
        if k > 0 and hit.any():
            for j in np.flatnonzero(hit.any(axis=1) & ~done):
                crash = int(np.argmax(hit[j]))
                events[j].append(TraceEvent(t, "collision", crash, crash - 1,
                                            f"gap={gap[j, crash]:.3f}"))
                collided[j], done[j] = k, True
        # the rows of the timelines that end here leave the state
        running = [g for g in running if g[3] > k]
        if not running:
            break
        live = running[-1][1]
        if live < len(done):
            (code, pred, has_pred, lead, succ, pos, spd, acc, uin, ufilt, over, gap, v_t, a_t,
             done, free) = (a[:live] for a in (code, pred, has_pred, lead, succ, pos, spd, acc,
                                               uin, ufilt, over, gap, v_t, a_t, done, free))
            families, is_gsbl, ploeg, profile_head = _row_masks(code)

        for lo, hi, scn, _, _ in running:
            v_t[lo:hi] = leader_target_speed(scn, t)
            a_t[lo:hi] = leader_target_accel(scn, t)
        u, hold, new = control_tick(families, spd, acc, uin, gap, pred, has_pred, lead, succ,
                                    v_t, free, over, ctrl)
        np.copyto(u[:, 0], a_t + PROFILE_GAIN * (v_t[:, 0] - spd[:, 0]),
                  where=profile_head)
        for j, c in zip(*np.nonzero(new != over)):
            if not done[j]:
                events[j].append(TraceEvent(
                    t, "mode_switch", int(c), int(lead[j, c] % n),
                    f"{_MODE_NAME[over[j, c]]}->{_MODE_NAME[new[j, c]]}",
                ))
        over = new

        # a row whose command is not finite ends with the error
        for j in np.flatnonzero(~np.isfinite(u).all(axis=1) & ~done):
            bad = float(u[j, np.argmin(np.isfinite(u[j]))])
            results[rows[j]] = RunError(f"non-finite control input: {bad!r}")
            done[j] = True
        if done.all():
            break

        # the head is never allowed the emergency floor
        np.maximum(u[:, 0], dyn.u_min, out=u[:, 0])
        uin = advance(pos, spd, acc, u, dyn, sub, hold, ploeg, ufilt, ctrl.ploeg.H)

    # a trace views the ticks its row ran (to the end of its timeline unless it collided)
    for lo, hi, scn, last, blocks in groups:
        for j in range(lo, hi):
            if results[rows[j]] is None:
                k = collided.get(j, last)
                *floats, mode = (block[j - lo, :k + 1] for block in blocks)
                results[rows[j]] = Trace(   # a platoon drives in lane 0
                    times[:k + 1], *floats, None,
                    np.broadcast_to(np.int8(0), mode.shape), mode, events=events[j],
                    scenario_kind=scn.kind, config=cfgs[j], terminated_by_collision=j in collided)
    return results


def run_single_platoon(
    scn: SingleScenario,
    dyn: DynamicsParams | None = None,
    ctrl: ControllerSet | None = None,
    control_dt: float = CONTROL_DT,
) -> Trace:
    """Simulate one scenario and return the full trace (a batch of one).

    Vehicles start at their own controller's equilibrium gap at the base
    speed (optionally offset per follower for perturbation studies).  The run
    is truncated at the first collision.
    """
    [result] = run_platoon_batch([scn], dyn, ctrl, control_dt)
    if isinstance(result, Exception):
        raise result
    return result
