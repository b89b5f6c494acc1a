"""Single-platoon disturbance experiments on an open road.

The platoon head is driven by a commanded speed profile (sinusoidal speed
perturbation or an emergency braking ramp) and does not react to the platoon.
Followers run the controller given by the composition string.  Controllers and
beacons run on a 10 Hz grid while the vehicle dynamics integrate at 100 Hz.

One engine steps a whole batch of platoons of the same scenario and size as a
(rows x vehicles) state; a single run is a batch of one.  It keeps only the
platoon's topology and the profile-driven head: the control decisions and
the physics substeps are :func:`controllers.control_tick` and
:func:`dynamics.advance`, the core the ring engine runs too.  Every float
operation keeps the order of the per-vehicle laws in :mod:`controllers` and
:func:`dynamics.step_vehicle`, so a row's trace does not depend on the batch
it ran in.
"""

from __future__ import annotations

import csv
import io
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

# The per-vehicle laws below are the reference specification of the batched
# engine; they stay importable from this module, where layer-tracing tools
# look them up, although the engine itself no longer calls them.
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

    def rows_csv(self, header_comment: str | None = None) -> str:
        buf = io.StringIO()
        if header_comment:
            buf.write(f"# {header_comment}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "veh", "lane", "x", "v", "a", "u", "gap", "ctrl", "mode"])
        mode_names = {0: "cruise", 1: "override"}
        for k, t in enumerate(self.times):
            for i in range(self.n_vehicles):
                w.writerow([
                    f"{t:.6f}",
                    i,
                    int(self.lane[k, i]),
                    f"{self.position[k, i]:.6f}",
                    f"{self.speed[k, i]:.6f}",
                    f"{self.accel[k, i]:.6f}",
                    f"{self.ctrl_input[k, i]:.6f}",
                    f"{self.gap[k, i]:.6f}",
                    self.controllers[i],
                    mode_names.get(int(self.mode[k, i]), ""),
                ])
        return buf.getvalue()

    def serialize(self) -> bytes:
        return (self.rows_csv() + events_csv(self.events)).encode()


def _validate_supported(cfg: PlatoonConfig, leaders: dict[int, int | None]) -> None:
    for i in range(1, cfg.size):
        if cfg[i] == "P" and leaders[i] is EXTERNAL_REF:
            raise ScenarioError(
                f"follower {i} in {cfg} runs the constant-spacing controller "
                "without any leader to elect"
            )


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


def _ahead(a: np.ndarray) -> np.ndarray:
    """Each vehicle's predecessor's entry of ``a``, NaN for the head."""
    out = np.full_like(a, np.nan)
    out[:, 1:] = a[:, :-1]
    return out


def _behind(a: np.ndarray) -> np.ndarray:
    """Each vehicle's successor's entry of ``a``, NaN for the last vehicle."""
    out = np.full_like(a, np.nan)
    out[:, :-1] = a[:, 1:]
    return out


def run_platoon_batch(
    scns: list[SingleScenario],
    dyn: DynamicsParams | None = None,
    ctrl: ControllerSet | None = None,
    control_dt: float = CONTROL_DT,
) -> list[Trace | Exception]:
    """Simulate platoons of one scenario and size in a single time loop.

    Row r of the (rows x vehicles) state runs ``scns[r]``.  All rows share
    the scenario's timeline and the platoon size; composition and initial
    gap offsets are per row.  Vehicles start at their own controller's
    equilibrium gap at the base speed, and a row ends at its first
    collision.  A row whose setup is rejected, or whose control command goes
    non-finite, gets the exception in place of its trace; no row reads
    another's state, so the other rows run on unchanged.  A finished row
    keeps stepping with the others and nothing reads it again: its trace is
    a view of the ticks before it ended.  So the rows, and with them the
    family masks of the control tick, never change during the run.
    """
    dyn = dyn or DynamicsParams()
    ctrl = ctrl or ControllerSet()
    sub = round(control_dt / dyn.dt)
    if abs(sub * dyn.dt - control_dt) > 1e-9 or sub < 1:
        raise ScenarioError("control_dt must be a multiple of the dynamics dt")

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
    rows = list(setups)
    scn = scns[rows[0]]
    n = setups[rows[0]][0].size
    for r in rows:
        if setups[r][0].size != n or _timeline(scns[r]) != _timeline(scn):
            raise ScenarioError("a batch runs one scenario and one platoon size")

    m = len(rows)
    ticks = round(scn.duration / control_dt) + 1
    times = np.arange(ticks) * control_dt
    # record blocks are (rows, ticks, vehicles): each row's trace is a view
    shape = (m, ticks, n)
    record = tuple(np.zeros(shape) for _ in range(4)) + (
        np.full(shape, np.nan),
        np.zeros(shape, dtype=np.int8),
        np.full(shape, -1, dtype=np.int8),
    )
    rec_pos, rec_speed, rec_accel, rec_u, rec_gap, _, rec_mode = record
    events: list[list[TraceEvent]] = [[] for _ in rows]

    # the head follows the speed profile unless it runs the spring-damper law
    code = np.array([
        [CODE_GSBL if cfg[0] == "G" else _PROFILE_HEAD]
        + [CODE_BY_LETTER[c] for c in cfg.controllers[1:]]
        for cfg, _ in map(setups.get, rows)
    ], dtype=np.int8)
    families = family_masks(code)
    lead = np.array([                         # elected leader, -1 for none
        [-1] + [-1 if leaders[i] is EXTERNAL_REF else leaders[i] for i in range(1, n)]
        for _, leaders in map(setups.get, rows)
    ])
    pos = np.array([_start_positions(setups[r][0], scns[r], ctrl) for r in rows])
    spd = np.full((m, n), scn.base_speed)
    acc = np.zeros((m, n))
    uin = np.zeros((m, n))                    # last clamped commands
    ufilt = np.zeros((m, n))                  # Ploeg actuation filter states
    over = np.zeros((m, n), dtype=bool)       # spring-damper override latch
    has_pred, has_succ = np.arange(n) > 0, np.arange(n) < n - 1
    row_at = np.arange(m)[:, None]            # state rows, for leader gathers
    done = np.zeros(m, dtype=bool)            # rows whose result is settled

    for k in range(ticks):
        gap = _ahead(pos) - VEHICLE_LENGTH - pos
        rec_pos[:, k] = pos
        rec_speed[:, k] = spd
        rec_accel[:, k] = acc
        rec_u[:, k] = uin
        rec_gap[:, k] = gap
        rec_mode[:, k] = np.where(code == CODE_GSBL, over, -1)
        ended = np.zeros(m, dtype=bool)
        hit = gap <= 0.0
        if k > 0 and hit.any():
            ended = hit.any(axis=1) & ~done
            for j in np.flatnonzero(ended):
                crash = int(np.argmax(hit[j]))
                events[j].append(TraceEvent(
                    times[k], "collision", crash, crash - 1, f"gap={gap[j, crash]:.3f}",
                ))
        if k == ticks - 1 or ended.any():
            for j in np.flatnonzero(~done if k == ticks - 1 else ended):
                cfg = setups[rows[j]][0]
                results[rows[j]] = Trace(
                    times[:k + 1], cfg.controllers, *(block[j, :k + 1] for block in record),
                    events=events[j], scenario_kind=scn.kind, config=str(cfg),
                    terminated_by_collision=bool(ended[j]),
                )
            if k == ticks - 1:
                break
        done |= ended

        t = times[k]
        v_t = leader_target_speed(scn, t)
        u, hold, new = control_tick(
            families, spd, acc,
            Neighbour(_ahead(spd), _ahead(uin), gap, has_pred),
            Neighbour(spd[row_at, lead], uin[row_at, lead], None, lead >= 0),
            Neighbour(_behind(spd), None, _behind(gap), has_succ),
            v_t, np.inf, over, ctrl,
        )
        np.copyto(u[:, 0], leader_target_accel(scn, t) + PROFILE_GAIN * (v_t - spd[:, 0]),
                  where=code[:, 0] != CODE_GSBL)
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
        uin = advance(pos, spd, acc, u, dyn, sub, hold, code == CODE_PLOEG, ufilt,
                      ctrl.ploeg.H)
    return results


_MODE_NAME = {False: GsblMode.CRUISE.value, True: GsblMode.OVERRIDE.value}


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
