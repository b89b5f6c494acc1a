"""Experiment campaigns: composition sweeps and the ring-road grid.

Single-platoon sweeps enumerate every follower mix for a platoon size (or a
seeded sample for very large spaces), run both disturbance scenarios and
score each mix against the reference runs.  Ring sweeps cover the full
density, policy, platoon size and penetration grid.  Both persist one JSON
file per run so that interrupted campaigns resume without recomputation, and
both embed the resolved parameter hash in every output.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .config import Config, MobilitySpec, spec_hash
from .metrics import (
    MetricReport,
    SPEED_FLOOR,
    Window,
    braking_window,
    delta_a,
    delta_d,
    eta,
    max_platoon_occupancy,
    mean_throughput,
    min_gap,
    peak_abs_accel,
    sinusoidal_window,
    throughput_series,
    volatility,
)
from .ring import BASELINES, DEVICES, PLATOON_POLICIES, RingSpec, run_ring
from .scenarios import (BRAKING, CONTROL_DT, SINUSOIDAL, ScenarioError, SingleScenario,
                        run_platoon_batch)
from .topology import ConfigError

# Not called here since sweeps run batches; kept bound in this module for
# layer-tracing tools that look the single-run entry point up here.
from .scenarios import run_single_platoon  # noqa: E402,F401

MIX_LETTERS = "GLP"          # follower alphabet, kept in lexicographic order
BASELINE_LETTERS = "AGLP"
FULL_ENUMERATION_MAX = 8     # platoon sizes enumerated exhaustively
SAMPLED_CONFIG_COUNT = 1000
BATCH_ROWS = 256             # mixes per scenario per batch; bounds record memory

# In every ring result's hash; bump it with any change that moves ring results
# so cached runs are recomputed (single-sweep hashes do not carry it yet).
# 2: the control tick shared with single platoons, seeds by cell id.
ENGINE_VERSION = 2


def mixed_configs(n: int) -> list[str]:
    """All follower mixes of an independent-head platoon, lexicographic."""
    return [
        "-" + "".join(t)
        for t in itertools.product(MIX_LETTERS, repeat=n - 1)
    ]


def baseline_configs(n: int) -> list[str]:
    return ["-" + letter * (n - 1) for letter in BASELINE_LETTERS]


def sampled_configs(n: int, count: int = SAMPLED_CONFIG_COUNT, seed: int = 0) -> list[str]:
    """Distinct random follower mixes for spaces too large to enumerate."""
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        cfg = "-" + "".join(rng.choice(list(MIX_LETTERS), size=n - 1))
        if cfg not in seen:
            seen.add(cfg)
            out.append(cfg)
    return out


def configs_for_sweep(n: int, seed: int = 0) -> list[str]:
    if n - 1 <= 0:
        raise ConfigError("platoon size must be at least 2")
    if n <= FULL_ENUMERATION_MAX:
        return mixed_configs(n)
    return sampled_configs(n, SAMPLED_CONFIG_COUNT, seed)


# ---------------------------------------------------------------------------
# Single-platoon evaluation
# ---------------------------------------------------------------------------

@dataclass
class ReferenceData:
    """Per-scenario reference curves extracted from the homogeneous runs."""

    acc_peaks: dict[int, float]
    acc_occupancy: float
    min_gaps: dict[str, dict[int, float]] = field(default_factory=dict)


def scenario_for(kind: str, config: str, duration: float | None = None,
                 control_dt: float = CONTROL_DT) -> SingleScenario:
    """Scenario of a scored run, which must cover its analysis window: a
    sinusoidal run until the window closes, a braking run until it records
    the head's onset command, one tick after the first tick past the onset."""
    scn = SingleScenario(kind=kind, config=config, duration=duration)
    times = np.arange(round(scn.duration / control_dt) + 1) * control_dt  # recorded ticks
    if kind == SINUSOIDAL:
        end = sinusoidal_window(scn.warmup, scn.frequency).t1
        short, what = times[-1] < end - 1e-9, f"its analysis window closes at {end:g} s"
    else:
        short = not (times[:-1] >= scn.brake_onset).any()
        what = f"the head's braking onset at {scn.brake_onset:g} s is recorded"
    if short:
        raise ScenarioError(f"a {kind} run of {scn.duration:g} s ends before {what}")
    return scn


def analysis_window(trace, scn: SingleScenario) -> Window:
    if scn.kind == SINUSOIDAL:
        return sinusoidal_window(scn.warmup, scn.frequency)
    return braking_window(trace)


def _speed_floor(kind: str) -> float | None:
    return SPEED_FLOOR if kind == BRAKING else None


def build_reference(kind: str, baselines: dict) -> ReferenceData:
    """Collect the reference curves from the four homogeneous platoons.

    ``baselines`` maps each letter of :data:`BASELINE_LETTERS` to the
    ``(trace, scenario)`` of its homogeneous run.  A reference that collides
    means the parameters leave nothing to score against.
    """
    for letter, (trace, _) in baselines.items():
        if trace.terminated_by_collision:
            raise ScenarioError(f"homogeneous {letter} reference platoon collided")
    acc_trace, acc_scn = baselines["A"]
    acc_window = analysis_window(acc_trace, acc_scn)
    ref = ReferenceData(
        acc_peaks=peak_abs_accel(acc_trace, acc_window, _speed_floor(kind)),
        acc_occupancy=max_platoon_occupancy(acc_trace, acc_window),
    )
    for letter, (trace, scn) in baselines.items():
        ref.min_gaps[letter] = min_gap(trace, analysis_window(trace, scn))
    return ref


def build_report(trace, scn: SingleScenario, ref: ReferenceData) -> MetricReport:
    """Score one platoon trace against the reference curves."""
    if trace.terminated_by_collision:
        return MetricReport(
            config=trace.config, scenario=scn.kind,
            delta_a=float("nan"), delta_a_vehicle=-1,
            delta_d=float("nan"), delta_d_vehicle=-1,
            eta=float("nan"), window=(float("nan"), float("nan")),
            collided=True,
        )
    window = analysis_window(trace, scn)
    da = delta_a(trace, window, ref.acc_peaks, _speed_floor(scn.kind))
    dd = delta_d(trace, window, ref.min_gaps)
    return MetricReport(
        config=trace.config, scenario=scn.kind,
        delta_a=da.value, delta_a_vehicle=da.vehicle,
        delta_d=dd.value, delta_d_vehicle=dd.vehicle,
        eta=eta(trace, window, ref.acc_occupancy),
        window=(window.t0, window.t1),
    )


def _sweep_batch(args) -> dict[tuple[str, str], tuple[dict | None, str | None]]:
    """Simulate one batch of a sweep and score each of its rows.

    The batch holds one group of rows per scenario kind, each starting with
    the four baseline scenarios in the order of :data:`BASELINE_LETTERS`.
    All groups run as one time loop; each kind's reference comes from its
    own baseline rows, which are the same in every batch.  Returns
    ``(kind, config) -> (report fields, None)``, or ``(None, error)`` for a
    row that failed to simulate or to score.
    """
    groups, cfg = args
    traces = iter(run_platoon_batch([scn for _, scns in groups for scn in scns],
                                    cfg.dynamics, cfg.controllers))
    out = {}
    for kind, scns in groups:
        rows = [(trace, scn) for scn, trace in zip(scns, traces)]
        baselines = dict(zip(BASELINE_LETTERS, rows))
        for letter, (trace, _) in baselines.items():
            if isinstance(trace, Exception):
                raise ScenarioError(f"homogeneous {letter} reference platoon failed: {trace}")
        ref = build_reference(kind, baselines)
        for trace, scn in rows:
            if isinstance(trace, Exception):
                out[kind, scn.config] = (None, str(trace))
                continue
            try:
                out[kind, scn.config] = (build_report(trace, scn, ref).to_json_dict(), None)
            except Exception as exc:  # keep scoring the other rows
                out[kind, scn.config] = (None, str(exc))
    return out


def _map_jobs(fn, items: list, jobs: int):
    """Yield ``fn(item)`` in the order of ``items``, from ``jobs`` worker
    processes when there is more than one item."""
    if jobs > 1 and len(items) > 1:
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(fn, items)
    else:
        yield from map(fn, items)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _load_if_current(path: str, expect_hash: str):
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("spec_hash") != expect_hash:
        return None
    return payload


def sweep_single(
    n: int,
    out_dir: str,
    kinds: tuple[str, ...] = (SINUSOIDAL, BRAKING),
    cfg: Config | None = None,
    jobs: int = 1,
    seed: int = 0,
    duration: float | None = None,
) -> dict:
    """Run and score every follower mix plus the four baselines per scenario.

    One JSON report per (scenario, config) is written under ``out_dir``;
    existing reports with a matching parameter hash are reused.  The
    scenarios' uncached rows share batches, so each batch is one time loop
    whatever the number of scenarios.
    """
    cfg = cfg or Config()
    configs = configs_for_sweep(n, seed)
    summary: dict = {"n": n, "scenarios": {}, "failed": []}
    hashes, reports, todo = {}, {}, {}
    for kind in kinds:
        h = hashes[kind] = spec_hash(cfg, {"sweep": "single", "n": n, "kind": kind,
                                           "duration": duration, "seed": seed})
        kind_dir = os.path.join(out_dir, "single", kind)
        os.makedirs(os.path.join(kind_dir, "mixed"), exist_ok=True)
        os.makedirs(os.path.join(kind_dir, "baseline"), exist_ok=True)
        reports[kind], todo[kind] = {}, []
        for role, names in (("baseline", baseline_configs(n)), ("mixed", configs)):
            for config in names:
                cached = _load_if_current(
                    os.path.join(kind_dir, role, f"{config}.json"), h)
                if cached is None:
                    todo[kind].append((role, config))
                else:
                    reports[kind][f"{role}/{config}"] = cached

    # batch i runs chunk i of every kind's uncached mixes, each kind with the
    # baselines its reference needs
    chunks = {}
    for kind, items in todo.items():
        if items:
            mixes = [c for role, c in items if role == "mixed"]
            size = max(1, min(BATCH_ROWS, -(-len(mixes) // max(jobs, 1))))
            chunks[kind] = [mixes[i:i + size] for i in range(0, max(len(mixes), 1), size)]
    batches = [
        ([(kind, [scenario_for(kind, c, duration)
                  for c in dict.fromkeys(baseline_configs(n) + parts[i])])
          for kind, parts in chunks.items() if i < len(parts)], cfg)
        for i in range(max(map(len, chunks.values()), default=0))
    ]
    scored: dict = {}
    for part in _map_jobs(_sweep_batch, batches, jobs):
        scored.update(part)

    for kind in kinds:
        h, kind_reports = hashes[kind], reports[kind]
        kind_dir = os.path.join(out_dir, "single", kind)
        for role, config in todo[kind]:
            report, error = scored[kind, config]
            if error is not None:
                summary["failed"].append(
                    {"scenario": kind, "config": config, "error": error})
                continue
            payload = {"spec_hash": h, "role": role, **report}
            _atomic_write_json(os.path.join(kind_dir, role, f"{config}.json"), payload)
            kind_reports[f"{role}/{config}"] = payload

        mixed = {k: v for k, v in kind_reports.items() if v["role"] == "mixed"
                 and not v["collided"]}
        worst = {}
        if mixed:
            wa = min(mixed, key=lambda k: (mixed[k]["delta_a"], k))
            wd = min(mixed, key=lambda k: (mixed[k]["delta_d"], k))
            be = max(mixed, key=lambda k: (mixed[k]["eta"], k))
            worst = {
                "worst_delta_a": {"config": mixed[wa]["config"],
                                  "value": mixed[wa]["delta_a"],
                                  "vehicle": mixed[wa]["delta_a_vehicle"]},
                "worst_delta_d": {"config": mixed[wd]["config"],
                                  "value": mixed[wd]["delta_d"],
                                  "vehicle": mixed[wd]["delta_d_vehicle"]},
                "best_eta": {"config": mixed[be]["config"],
                             "value": mixed[be]["eta"]},
            }
        summary["scenarios"][kind] = {
            "spec_hash": h,
            "mixed_reports": sum(1 for v in kind_reports.values() if v["role"] == "mixed"),
            "baseline_reports": sum(1 for v in kind_reports.values() if v["role"] == "baseline"),
            "collisions": sorted(v["config"] for v in kind_reports.values() if v["collided"]),
            **worst,
        }
    _atomic_write_json(os.path.join(out_dir, "single", "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# Ring grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingCell:
    """One cell of the ring experiment grid."""

    density: float
    policy: str            # a baseline, ACC / IDM, or a platoon policy, P / L / G / MIX
    platoon_size: int = 0
    penetration: float = 0.0

    @property
    def category(self) -> str:
        return "baseline" if self.policy in BASELINES else "platoon"

    @property
    def cell_id(self) -> str:
        if self.category == "baseline":
            return f"d{self.density:g}-{self.policy}"
        return (
            f"d{self.density:g}-{self.policy}"
            f"-N{self.platoon_size}-R{self.penetration:g}"
        )


_GRID = MobilitySpec()


def ring_cells(
    densities=_GRID.densities,
    sizes=_GRID.platoon_sizes,
    rates=_GRID.penetration_rates,
    policies=PLATOON_POLICIES,
    baselines=BASELINES,
) -> list[RingCell]:
    """Full factorial ring grid: per density, the baselines plus every
    (policy, platoon size, penetration) combination."""
    cells = []
    for d in densities:
        for b in baselines:
            cells.append(RingCell(density=d, policy=b))
        for pol in policies:
            for n in sizes:
                for r in rates:
                    cells.append(RingCell(density=d, policy=pol, platoon_size=n,
                                          penetration=r))
    return cells


def run_seed(master: int, cell_id: str, rep: int) -> int:
    """Stable seed of one repetition of a cell, derived from the master seed
    and the cell's id, so a cell runs alike in every grid it is part of."""
    ss = np.random.SeedSequence([master, rep, *cell_id.encode()])
    return int(ss.generate_state(1)[0])


def ring_spec(
    mob: MobilitySpec,
    duration: float | None = None,
    warmup: float | None = None,
    **run,
) -> RingSpec:
    """Ring run ``run`` on the road of ``mob``, which also supplies every
    field of the same name and, by default, the duration and warmup."""
    road = {f.name: getattr(mob, f.name) for f in fields(RingSpec) if hasattr(mob, f.name)}
    return RingSpec(
        duration=mob.ring_duration if duration is None else duration,
        warmup=mob.ring_warmup if warmup is None else warmup,
        **road, **run,
    )


def make_ring_spec(
    cell: RingCell,
    cfg: Config,
    seed: int,
    duration: float | None = None,
    warmup: float | None = None,
) -> RingSpec:
    platoon = cell.category == "platoon"
    return ring_spec(
        cfg.mobility, duration, warmup,
        density=cell.density,
        penetration=cell.penetration if platoon else 0.0,
        platoon_size=cell.platoon_size if platoon else 8,
        platoon_policy=cell.policy if platoon else "P",
        baseline=cell.policy if not platoon else "ACC",
        seed=seed,
    )


def ring_run_metrics(trace) -> dict:
    """Scalar observables of one ring run."""
    out = {
        "n_vehicles": trace.n_vehicles,
        "collided": trace.terminated_by_collision,
        "end_time": round(trace.end_time, 6),
        "throughput": None,
        "mean_speed": None,
        "xi_median": None,
        "xi": [],
    }
    spec = trace.spec
    if trace.counter_times.size and trace.end_time > spec.warmup + spec.counter_window:
        series = throughput_series(
            trace.counter_times, trace.counter_devices, DEVICES,
            spec.warmup, trace.end_time, spec.counter_window,
        )
        out["throughput"] = round(mean_throughput(series), 6)
    if trace.speed_samples.shape[0] >= 2:
        xi = volatility(trace.speed_samples)
        out["xi"] = [round(float(x), 6) for x in xi]
        out["xi_median"] = round(float(np.nanmedian(xi)), 6)
        out["mean_speed"] = round(float(trace.speed_samples.mean()), 6)
    return out


def _ring_worker(args):
    """One ring run; returns ``(cell, rep, seed, metrics, error)``."""
    cell, rep, seed, duration, warmup, cfg = args
    try:
        spec = make_ring_spec(cell, cfg, seed, duration, warmup)
        trace = run_ring(spec, cfg.dynamics, cfg.controllers)
        return cell, rep, seed, ring_run_metrics(trace), None
    except Exception as exc:  # keep sweeping, report at the end
        return cell, rep, seed, None, str(exc)


def confidence_halfwidth(values, level: float = 0.95) -> float:
    """Half-width of the Student-t confidence interval of the mean."""
    from scipy import stats  # imported here: it costs most of the package's import time

    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        return float("nan")
    crit = stats.t.ppf(0.5 + level / 2.0, vals.size - 1)
    return float(crit * vals.std(ddof=1) / math.sqrt(vals.size))


def sweep_ring(
    out_dir: str,
    cfg: Config | None = None,
    repetitions: int = 10,
    jobs: int = 1,
    seed: int = 0,
    dry_run: bool = False,
    duration: float | None = None,
    warmup: float | None = None,
    densities=None,
    sizes=None,
    rates=None,
) -> dict:
    """Run the ring grid; resumable, one JSON per (cell, repetition)."""
    cfg = cfg or Config()
    mob = cfg.mobility
    cells = ring_cells(
        densities if densities is not None else mob.densities,
        sizes if sizes is not None else mob.platoon_sizes,
        rates if rates is not None else mob.penetration_rates,
    )
    if dry_run:
        return {
            "cells": [c.cell_id for c in cells],
            "cell_count": len(cells),
            "run_count": len(cells) * repetitions,
            "dry_run": True,
        }
    if cells:  # settings no run can use are a config error, not failed runs
        make_ring_spec(cells[0], cfg, seed, duration, warmup)
    h = spec_hash(cfg, {"sweep": "ring", "engine": ENGINE_VERSION,
                        "duration": duration, "warmup": warmup, "seed": seed})
    results: dict[str, list[dict]] = {c.cell_id: [] for c in cells}
    todo = []
    failed = []
    for cell in cells:
        cell_dir = os.path.join(out_dir, "ring", cell.cell_id)
        os.makedirs(cell_dir, exist_ok=True)
        for rep in range(repetitions):
            path = os.path.join(cell_dir, f"rep{rep}.json")
            cached = _load_if_current(path, h)
            if cached is not None:
                results[cell.cell_id].append(cached)
            else:
                todo.append((cell, rep, run_seed(seed, cell.cell_id, rep), duration, warmup, cfg))

    # results come in the order of todo, so failures list by (cell, rep)
    for cell, rep, s, metrics, error in _map_jobs(_ring_worker, todo, jobs):
        if error is not None:
            failed.append({"cell": cell.cell_id, "rep": rep, "error": error})
            continue
        payload = {"spec_hash": h, "cell": cell.cell_id, "rep": rep, "seed": s, **metrics}
        _atomic_write_json(os.path.join(out_dir, "ring", cell.cell_id, f"rep{rep}.json"),
                           payload)
        results[cell.cell_id].append(payload)

    aggregate = {}
    for cell in cells:
        runs = sorted(results[cell.cell_id], key=lambda r: r["rep"])
        ok = [r for r in runs if not r["collided"] and r["throughput"] is not None]
        thr = [r["throughput"] for r in ok]
        aggregate[cell.cell_id] = {
            "runs": len(runs),
            "collisions": sum(1 for r in runs if r["collided"]),
            "throughput_mean": round(float(np.mean(thr)), 3) if thr else None,
            "throughput_ci95": round(confidence_halfwidth(thr), 3) if len(thr) > 1 else None,
            "xi_median": round(float(np.median([r["xi_median"] for r in ok
                                                if r["xi_median"] is not None])), 6)
            if ok else None,
        }
    summary = {
        "spec_hash": h,
        "cell_count": len(cells),
        "repetitions": repetitions,
        "cells": aggregate,
        "failed": failed,
    }
    _atomic_write_json(os.path.join(out_dir, "ring", "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def emit_reports(out_dir: str) -> list[str]:
    """Render text tables from persisted sweep results; returns paths written."""
    written = []
    single_summary = os.path.join(out_dir, "single", "summary.json")
    if os.path.exists(single_summary):
        with open(single_summary, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        lines = []
        for kind, info in sorted(summary.get("scenarios", {}).items()):
            lines.append(f"scenario: {kind}  (spec_hash={info['spec_hash']})")
            lines.append(
                f"  reports: {info['mixed_reports']} mixed"
                f" + {info['baseline_reports']} baseline"
            )
            for key in ("worst_delta_a", "worst_delta_d", "best_eta"):
                if key in info:
                    e = info[key]
                    veh = f" (vehicle {e['vehicle']})" if "vehicle" in e else ""
                    lines.append(f"  {key}: {e['config']} = {e['value']:.3f}{veh}")
            if info.get("collisions"):
                lines.append(f"  collisions: {', '.join(info['collisions'])}")
            lines.append("")
        path = os.path.join(out_dir, "single", "table.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        written.append(path)

    ring_summary = os.path.join(out_dir, "ring", "summary.json")
    if os.path.exists(ring_summary):
        with open(ring_summary, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        lines = [f"spec_hash={summary['spec_hash']}"]
        header = f"{'cell':32s} {'runs':>4s} {'crash':>5s} {'thr veh/h':>10s} {'ci95':>8s} {'xi_med':>8s}"
        lines.append(header)
        for cell_id, agg in summary["cells"].items():
            thr = "-" if agg["throughput_mean"] is None else f"{agg['throughput_mean']:.0f}"
            ci = "-" if agg["throughput_ci95"] is None else f"{agg['throughput_ci95']:.0f}"
            xi = "-" if agg["xi_median"] is None else f"{agg['xi_median']:.3f}"
            lines.append(
                f"{cell_id:32s} {agg['runs']:4d} {agg['collisions']:5d}"
                f" {thr:>10s} {ci:>8s} {xi:>8s}"
            )
        path = os.path.join(out_dir, "ring", "table.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    return written
