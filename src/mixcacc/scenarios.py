"""Single-platoon disturbance experiments on an open road.

The platoon head is driven by a commanded speed profile (sinusoidal speed
perturbation or an emergency braking ramp) and does not react to the platoon.
Followers run the controller given by the composition string.  Controllers and
beacons run on a 10 Hz grid while the vehicle dynamics integrate at 100 Hz.

One engine steps a whole batch of platoons of the same scenario and size as a
(rows x vehicles) state; a single run is a batch of one.  Every float
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
    ControllerSet,
    GsblMode,
    acc_accel,
    gsbl_accel,
    gsbl_accel_head,
    gsbl_accel_tail,
    gsbl_mode_arrays,
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

    def events_csv(self, header_comment: str | None = None) -> str:
        buf = io.StringIO()
        if header_comment:
            buf.write(f"# {header_comment}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "kind", "veh_a", "veh_b", "detail"])
        for ev in self.events:
            w.writerow([
                f"{ev.time:.6f}",
                ev.kind,
                ev.veh_a,
                "" if ev.veh_b is None else ev.veh_b,
                ev.detail,
            ])
        return buf.getvalue()

    def serialize(self) -> bytes:
        return (self.rows_csv() + self.events_csv()).encode()


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


class _Rows:
    """Controller masks of the live rows; follower masks skip column 0."""

    def __init__(self, letters: np.ndarray, lead: np.ndarray):
        self.letters = letters
        self.lead = lead                  # elected leader, -1 for external
        followers = letters[:, 1:]
        self.acc = followers == "A"
        self.path = followers == "P"
        self.gsbl = followers == "G"
        self.ploeg = np.zeros(letters.shape, dtype=bool)   # full width
        self.ploeg[:, 1:] = followers == "L"
        self.head_gsbl = letters[:, 0] == "G"
        self.gsbl_led = self.gsbl & (lead >= 0)
        self.lead_at = (np.arange(len(letters))[:, None], np.maximum(lead, 0))
        self.mode_base = np.where(letters == "G", 0, -1).astype(np.int8)
        self.any_acc = bool(self.acc.any())
        self.any_ploeg = bool(self.ploeg.any())
        self.any_path = bool(self.path.any())
        self.any_gsbl = bool(self.gsbl.any())
        self.any_led = bool(self.gsbl_led.any())
        self.any_head_gsbl = bool(self.head_gsbl.any())
        self.any_mode = self.any_gsbl or self.any_head_gsbl

    def __getitem__(self, keep: np.ndarray) -> "_Rows":
        return _Rows(self.letters[keep], self.lead[keep])


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
    another's state, so the other rows run on unchanged.
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

    live = np.arange(m)                       # block row of each state row
    fam = _Rows(
        np.array([setups[r][0].controllers for r in rows]),
        np.array([[-1 if setups[r][1][i] is EXTERNAL_REF else setups[r][1][i]
                   for i in range(1, n)] for r in rows]).reshape(m, n - 1),
    )
    pos = np.array([_start_positions(setups[r][0], scns[r], ctrl) for r in rows])
    spd = np.full((m, n), scn.base_speed)
    acc = np.zeros((m, n))
    uin = np.zeros((m, n))                    # last clamped commands
    ufilt = np.zeros((m, n))                  # Ploeg actuation filter states
    over = np.zeros((m, n), dtype=bool)       # spring-damper override latch
    gap = (pos[:, :-1] - VEHICLE_LENGTH) - pos[:, 1:]
    cg = ctrl.gsbl
    c_ploeg = dyn.dt / ctrl.ploeg.H

    for k in range(ticks):
        at = slice(None) if len(live) == m else live
        rec_pos[at, k] = pos
        rec_speed[at, k] = spd
        rec_accel[at, k] = acc
        rec_u[at, k] = uin
        rec_gap[at, k, 1:] = gap
        if fam.any_mode:
            rec_mode[at, k] = fam.mode_base + over
        ended = np.zeros(len(live), dtype=bool)
        hit = gap <= 0.0
        if k > 0 and hit.any():
            ended = hit.any(axis=1)
            for j in np.flatnonzero(ended):
                crash = int(np.argmax(hit[j])) + 1
                events[live[j]].append(TraceEvent(
                    times[k], "collision", crash, crash - 1,
                    f"gap={gap[j, crash - 1]:.3f}",
                ))
        if k == ticks - 1 or ended.any():
            for j in range(len(live)) if k == ticks - 1 else np.flatnonzero(ended):
                b = live[j]
                cfg = setups[rows[b]][0]
                results[rows[b]] = Trace(
                    times[:k + 1], cfg.controllers, *(block[b, :k + 1] for block in record),
                    events=events[b], scenario_kind=scn.kind, config=str(cfg),
                    terminated_by_collision=bool(ended[j]),
                )
            if k == ticks - 1:
                break

        # control tick: every law on its family's cells, leaders gathered
        t = times[k]
        v_t = leader_target_speed(scn, t)
        v, v_pred = spd[:, 1:], spd[:, :-1]
        u = np.empty_like(spd)
        u[:, 0] = leader_target_accel(scn, t) + PROFILE_GAIN * (v_t - spd[:, 0])
        if fam.any_head_gsbl:
            np.copyto(u[:, 0], gsbl_accel_head(
                gap[:, 0], spd[:, 1], spd[:, 0], v_t, cg.k, cg.h, cg.r_default, cg.d,
            ), where=fam.head_gsbl)
        uf = u[:, 1:]
        if fam.any_acc:
            np.copyto(uf, acc_accel(v, v_pred, gap, ctrl.acc.H, ctrl.acc.lam),
                      where=fam.acc)
        if fam.any_ploeg:
            p = ctrl.ploeg
            np.copyto(uf, ploeg_target(gap, v, acc[:, 1:], v_pred, uin[:, :-1],
                                       p.H, p.kp, p.kd), where=fam.ploeg[:, 1:])
        if fam.any_path or fam.any_led:
            v_lead, u_lead = spd[fam.lead_at], uin[fam.lead_at]
        if fam.any_path:
            np.copyto(uf, path_accel(uin[:, :-1], u_lead, v, v_pred, v_lead, gap,
                                     ctrl.path.dd, ctrl.path.gains), where=fam.path)
        if fam.any_gsbl:
            v_r = np.full(v.shape, v_t)
            r = np.full(v.shape, cg.r_default)
            if fam.any_led:
                was = over[:, 1:]
                new, v_r_led, r_led = gsbl_mode_arrays(was, v_lead, u_lead, v, v_pred, gap, cg)
                new &= fam.gsbl_led
                for j, c in zip(*np.nonzero(new != was)):
                    if not ended[j]:
                        events[live[j]].append(TraceEvent(
                            t, "mode_switch", int(c) + 1, int(fam.lead[j, c]),
                            f"{_MODE_NAME[was[j, c]]}->{_MODE_NAME[new[j, c]]}",
                        ))
                over[:, 1:] = new
                np.copyto(v_r, v_r_led, where=fam.gsbl_led)
                np.copyto(r, r_led, where=fam.gsbl_led)
            spring = np.empty_like(v)
            spring[:, -1] = gsbl_accel_tail(gap[:, -1], v_pred[:, -1], v[:, -1],
                                            v_r[:, -1], cg.k, cg.h, r[:, -1], cg.d)
            spring[:, :-1] = gsbl_accel(gap[:, :-1], v_pred[:, :-1], gap[:, 1:], spd[:, 2:],
                                        v[:, :-1], v_r[:, :-1], cg.k, cg.h, r[:, :-1], cg.d)
            np.copyto(uf, spring, where=fam.gsbl)

        # rows that collided or whose command is not finite leave the batch
        finite = np.isfinite(u)
        if not finite.all():
            for j in np.flatnonzero(~finite.all(axis=1) & ~ended):
                bad = float(u[j, np.argmin(finite[j])])
                results[rows[live[j]]] = ValueError(f"non-finite control input: {bad!r}")
                ended[j] = True
        if ended.any():
            keep = ~ended
            live, fam = live[keep], fam[keep]
            pos, spd, acc, uin, ufilt, over, gap, u = (
                a[keep] for a in (pos, spd, acc, uin, ufilt, over, gap, u)
            )
            if not len(live):
                break
            v, v_pred = spd[:, 1:], spd[:, :-1]

        # physics substeps; the head is never allowed the emergency floor
        np.maximum(u[:, 0], dyn.u_min, out=u[:, 0])
        any_hold = spd.min() < STANDSTILL_SPEED
        if any_hold:
            hold = np.zeros(spd.shape, dtype=bool)
            hold[:, 1:] = (v < STANDSTILL_SPEED) & (v_pred < STANDSTILL_SPEED) & (gap < STANDSTILL_GAP)
        cmd = u
        for _ in range(sub):
            if fam.any_ploeg:
                # the filter runs at the physics rate towards the held target
                ufilt += c_ploeg * (u - ufilt)
                cmd = np.where(fam.ploeg, ufilt, u)
            if any_hold:
                cmd = np.where(hold, np.minimum(cmd, STANDSTILL_BRAKE), cmd)
            step_arrays(pos, spd, acc, cmd, dyn)
        uin = cmd
        gap = (pos[:, :-1] - VEHICLE_LENGTH) - pos[:, 1:]
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
