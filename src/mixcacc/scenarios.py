"""Single-platoon disturbance experiments on an open road.

The platoon head is driven by a commanded speed profile (sinusoidal speed
perturbation or an emergency braking ramp) and does not react to the platoon.
Followers run the controller given by the composition string.  Controllers and
beacons run on a 10 Hz grid while the vehicle dynamics integrate at 100 Hz.

One engine steps a whole batch of platoons of the same size as a
(rows x vehicles) state, each row with its own scenario and timeline; a
single run is a batch of one.  It keeps only the platoon's topology and the
profile-driven heads: the control decisions and the physics substeps are
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
    Neighbour,
    control_tick,
    family_masks,
)
from .dynamics import DynamicsParams, VEHICLE_LENGTH, advance
from .topology import EXTERNAL_REF, PlatoonConfig, elect_ego_leaders, parse_config

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
# names of the override latch in events and of 0/1 in the trace CSV's mode
_MODE_NAME = {False: GsblMode.CRUISE.value, True: GsblMode.OVERRIDE.value}


class ScenarioError(ValueError):
    """Raised for scenario setups that cannot be simulated."""


@dataclass
class SingleScenario:
    """Parameters of one open-road platoon experiment."""

    kind: str
    config: str
    duration: float | None = None
    warmup: float = 30.0
    base_speed: float = 27.78       # m/s, 100 km/h
    amplitude: float = 2.78         # m/s, sinusoidal speed swing
    frequency: float = 0.1          # Hz
    brake_decel: float = 8.0        # m/s^2, emergency ramp
    brake_onset: float = 30.0       # s
    initial_gap_offsets: dict[int, float] | None = None

    def __post_init__(self):
        if self.kind not in (SINUSOIDAL, BRAKING):
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if self.duration is None:
            self.duration = _DEFAULT_DURATION[self.kind]
        if self.duration <= 0.0:
            raise ScenarioError("duration must be positive")
        if self.kind == SINUSOIDAL and self.frequency <= 0.0:
            raise ScenarioError("sinusoidal scenario needs a positive frequency")


def leader_target_speed(scn: SingleScenario, t: float) -> float:
    """Commanded speed of the profile-driven head at time t."""
    if scn.kind == SINUSOIDAL:
        return scn.base_speed + scn.amplitude * math.sin(
            2.0 * math.pi * scn.frequency * t
        )
    if t < scn.brake_onset:
        return scn.base_speed
    return max(0.0, scn.base_speed - scn.brake_decel * (t - scn.brake_onset))


def leader_target_accel(scn: SingleScenario, t: float) -> float:
    """Feed-forward acceleration of the commanded profile."""
    if scn.kind == SINUSOIDAL:
        w = 2.0 * math.pi * scn.frequency
        return scn.amplitude * w * math.cos(w * t)
    if t < scn.brake_onset:
        return 0.0
    return -scn.brake_decel if leader_target_speed(scn, t) > 0.0 else 0.0


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
    """

    times: np.ndarray
    controllers: tuple[str, ...]
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    ctrl_input: np.ndarray
    gap: np.ndarray
    lane: np.ndarray
    mode: np.ndarray
    events: list[TraceEvent] = field(default_factory=list)
    scenario_kind: str = ""
    config: str = ""
    terminated_by_collision: bool = False

    @property
    def n_vehicles(self) -> int:
        return len(self.controllers)

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
                      for i, c in enumerate(self.controllers))
        blocks = (self.lane, self.position, self.speed, self.accel, self.ctrl_input, self.gap)
        for k, t in enumerate(self.times.tolist()):
            modes = [_MODE_NAME.get(m, "") for m in self.mode[k].tolist()]
            cols = [[f"{t:.6f}"] * len(modes), *(b[k].tolist() for b in blocks), modes]
            yield row % tuple(itertools.chain.from_iterable(zip(*cols)))

    def rows_csv(self, header_comment: str | None = None) -> str:
        return "".join(self.rows_csv_chunks(header_comment))

    def serialize(self) -> bytes:
        return (self.rows_csv() + events_csv(self.events)).encode()


def _validate_supported(cfg: PlatoonConfig, leaders: dict[int, int | None]) -> None:
    for i in range(1, cfg.size):
        if cfg[i] == "P" and leaders[i] is EXTERNAL_REF:
            raise ScenarioError(
                f"follower {i} in {cfg} runs the constant-spacing controller "
                "without any leader to elect"
            )


def substeps(control_dt: float, dyn: DynamicsParams) -> int:
    """Dynamics steps per control period, which must be a positive whole
    number of them."""
    sub = round(control_dt / dyn.dt)
    if abs(sub * dyn.dt - control_dt) > 1e-9 or sub < 1:
        raise ScenarioError("control_dt must be a multiple of the dynamics dt")
    return sub


def _timeline(scn: SingleScenario) -> tuple:
    """Every scenario field except the platoon and its start offsets."""
    return tuple(
        getattr(scn, f.name) for f in fields(scn)
        if f.name not in ("config", "initial_gap_offsets")
    )


def _start_positions(cfg: PlatoonConfig, scn: SingleScenario, ctrl: ControllerSet) -> list[float]:
    """Front bumpers at each follower's equilibrium gap plus its offset."""
    offsets = scn.initial_gap_offsets or {}
    pos = [0.0]
    for i in range(1, cfg.size):
        gap = ctrl.equilibrium_gap(cfg[i], scn.base_speed) + offsets.get(i, 0.0)
        pos.append(pos[-1] - VEHICLE_LENGTH - gap)
    return pos


def _ahead(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each vehicle's predecessor's entry of ``a`` in ``out``, whose head
    column stays NaN."""
    out[:, 1:] = a[:, :-1]
    return out


def _behind(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each vehicle's successor's entry of ``a`` in ``out``, whose last
    column stays NaN."""
    out[:, :-1] = a[:, 1:]
    return out


def _row_masks(code: np.ndarray) -> tuple:
    """Family masks, spring-damper and Ploeg masks, and the profile-driven
    heads of the rows ``code``."""
    gsbl = code == CODE_GSBL
    return family_masks(code), gsbl, code == CODE_PLOEG, ~gsbl[:, 0]


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
    first collision or at its last tick.  A row whose setup is rejected, or
    whose control command goes non-finite, gets the exception in place of
    its trace; no row reads another's state, so the other rows run on
    unchanged.

    The state holds the rows longest timeline first.  When the shortest
    live timeline ends, the state shrinks to the rows still running, as
    views of its prefix, so no finished timeline is stepped again.  A row
    that collided keeps stepping until its timeline ends and nothing reads
    it again: its trace is a view of the ticks before it ended.
    """
    dyn = dyn or DynamicsParams()
    ctrl = ctrl or ControllerSet()
    sub = substeps(control_dt, dyn)

    results: list = [None] * len(scns)
    setups = {}
    for r, scn in enumerate(scns):
        try:
            cfg = parse_config(scn.config) if isinstance(scn.config, str) else scn.config
            leaders = elect_ego_leaders(cfg)
            _validate_supported(cfg, leaders)
        except ValueError as exc:
            results[r] = exc
        else:
            setups[r] = (cfg, leaders)
    if not setups:
        return results
    n = next(iter(setups.values()))[0].size
    if any(cfg.size != n for cfg, _ in setups.values()):
        raise ScenarioError("a batch runs one platoon size")

    # longest timeline first, and each timeline's rows side by side
    key = {r: (-round(scns[r].duration / control_dt), _timeline(scns[r])) for r in setups}
    rows = sorted(setups, key=key.get)
    last = [-key[r][0] for r in rows]         # each row's last tick
    m, ticks = len(rows), last[0] + 1
    times = np.arange(ticks) * control_dt
    # rows from ``shrink[k]`` on run their last tick at tick k
    shrink = {last[j]: j for j in range(1, m) if last[j] < last[j - 1]}
    # each timeline's rows get their own (rows, ticks, vehicles) record
    # blocks: a row's trace is a view, and no block holds ticks its rows
    # never run
    starts = [j for j in range(m) if not j or key[rows[j]] != key[rows[j - 1]]]
    groups = []                               # (first row, end row, scenario, blocks)
    for lo, hi in zip(starts, starts[1:] + [m]):
        shape = (hi - lo, last[lo] + 1, n)
        groups.append((lo, hi, scns[rows[lo]], tuple(np.empty(shape) for _ in range(5)) + (
            np.zeros(shape, dtype=np.int8),
            np.empty(shape, dtype=np.int8),
        )))
    home = [(blocks, j - lo) for lo, hi, _, blocks in groups for j in range(lo, hi)]
    events: list[list[TraceEvent]] = [[] for _ in rows]

    # the head follows the speed profile unless it runs the spring-damper law
    code = np.array([
        [CODE_GSBL if cfg[0] == "G" else _PROFILE_HEAD]
        + [CODE_BY_LETTER[c] for c in cfg.controllers[1:]]
        for cfg, _ in map(setups.get, rows)
    ], dtype=np.int8)
    lead = np.array([                         # elected leader, -1 for none
        [-1] + [-1 if leaders[i] is EXTERNAL_REF else leaders[i] for i in range(1, n)]
        for _, leaders in map(setups.get, rows)
    ])
    pos = np.array([_start_positions(setups[r][0], scns[r], ctrl) for r in rows])
    spd = np.repeat([[scns[r].base_speed] for r in rows], n, axis=1)
    acc = np.zeros((m, n))
    uin = np.zeros((m, n))                    # last clamped commands
    ufilt = np.zeros((m, n))                  # Ploeg actuation filter states
    over = np.zeros((m, n), dtype=bool)       # spring-damper override latch
    v_t = np.empty((m, 1))                    # each row's head profile
    a_t = np.empty(m)
    done = np.zeros(m, dtype=bool)            # rows whose result is settled
    row_at = np.arange(m)[:, None]            # state rows, for leader gathers
    shifted = [np.full((m, n), np.nan) for _ in range(5)]  # _ahead/_behind outputs
    families, is_gsbl, is_ploeg, profile_head = _row_masks(code)
    has_pred, has_succ = np.arange(n) > 0, np.arange(n) < n - 1
    live = m

    for k in range(ticks):
        gap = _ahead(pos, shifted[0]) - VEHICLE_LENGTH - pos
        mode = np.where(is_gsbl, over, -1)
        for lo, hi, _, (rec_pos, rec_speed, rec_accel, rec_u, rec_gap, _, rec_mode) in groups:
            rec_pos[:, k] = pos[lo:hi]
            rec_speed[:, k] = spd[lo:hi]
            rec_accel[:, k] = acc[lo:hi]
            rec_u[:, k] = uin[lo:hi]
            rec_gap[:, k] = gap[lo:hi]
            rec_mode[:, k] = mode[lo:hi]
        ended = np.zeros(live, dtype=bool)
        hit = gap <= 0.0
        if k > 0 and hit.any():
            ended = hit.any(axis=1) & ~done
            for j in np.flatnonzero(ended):
                crash = int(np.argmax(hit[j]))
                events[j].append(TraceEvent(
                    times[k], "collision", crash, crash - 1, f"gap={gap[j, crash]:.3f}",
                ))
        # rows from ``still`` on reach their last tick
        still = 0 if k == ticks - 1 else shrink.get(k, live)
        finished = ended.copy()
        finished[still:] |= ~done[still:]
        for j in np.flatnonzero(finished):
            cfg = setups[rows[j]][0]
            blocks, i = home[j]
            results[rows[j]] = Trace(
                times[:k + 1], cfg.controllers, *(block[i, :k + 1] for block in blocks),
                events=events[j], scenario_kind=scns[rows[j]].kind, config=str(cfg),
                terminated_by_collision=bool(ended[j]),
            )
        if not still:
            break
        done |= ended
        if still < live:
            live = still
            (code, lead, row_at, pos, spd, acc, uin, ufilt, over, gap, v_t, a_t,
             done) = (a[:live] for a in (code, lead, row_at, pos, spd, acc, uin, ufilt,
                                         over, gap, v_t, a_t, done))
            shifted = [b[:live] for b in shifted]
            groups = [g for g in groups if g[0] < live]
            families, is_gsbl, is_ploeg, profile_head = _row_masks(code)

        t = times[k]
        for lo, hi, scn, _ in groups:
            v_t[lo:hi] = leader_target_speed(scn, t)
            a_t[lo:hi] = leader_target_accel(scn, t)
        _, ahead_spd, ahead_u, behind_spd, behind_gap = shifted
        u, hold, new = control_tick(
            families, spd, acc,
            Neighbour(_ahead(spd, ahead_spd), _ahead(uin, ahead_u), gap, has_pred),
            Neighbour(spd[row_at, lead], uin[row_at, lead], None, lead >= 0),
            Neighbour(_behind(spd, behind_spd), None, _behind(gap, behind_gap), has_succ),
            v_t, np.inf, over, ctrl,
        )
        np.copyto(u[:, 0], a_t + PROFILE_GAIN * (v_t[:, 0] - spd[:, 0]),
                  where=profile_head)
        for j, c in zip(*np.nonzero(new != over)):
            if not done[j]:
                events[j].append(TraceEvent(
                    t, "mode_switch", int(c), int(lead[j, c]),
                    f"{_MODE_NAME[over[j, c]]}->{_MODE_NAME[new[j, c]]}",
                ))
        over = new

        # a row whose command is not finite ends with the error
        for j in np.flatnonzero(~np.isfinite(u).all(axis=1) & ~done):
            bad = float(u[j, np.argmin(np.isfinite(u[j]))])
            results[rows[j]] = ValueError(f"non-finite control input: {bad!r}")
            done[j] = True
        if done.all():
            break

        # the head is never allowed the emergency floor
        np.maximum(u[:, 0], dyn.u_min, out=u[:, 0])
        uin = advance(pos, spd, acc, u, dyn, sub, hold, is_ploeg, ufilt, ctrl.ploeg.H)
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
