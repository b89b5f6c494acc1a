"""Experiment campaigns: composition sweeps and the ring-road grid.

Single-platoon sweeps enumerate every follower mix for a platoon size (or a
seeded sample for very large spaces), run both disturbance scenarios and
score each mix against the reference runs.  Ring sweeps cover the full
density, policy, platoon size and penetration grid.  Both persist one JSON
file per run so that interrupted campaigns resume without recomputation, and
both embed the resolved parameter hash in every output.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import fields

import numpy as np

from .config import Config, MobilitySpec, UsageError, spec_hash
from .dynamics import DynamicsParams
from .metrics import (
    BRAKE_DETECT_U,
    delta_a,
    delta_d,
    eta,
    max_platoon_occupancy,
    min_gap,
    peak_abs_accel,
    road_throughput,
    sinusoidal_window,
    volatility,
)
from .ring import BASELINES, DEVICES, PLATOON_POLICIES, RingSpec, run_ring
from .scenarios import (BRAKING, CONTROL_DT, FREQUENCY, SINUSOIDAL, WARMUP, SingleScenario,
                        run_platoon_batch, substeps, whole_periods)

# Not called here since sweeps run batches; bound here only for perfbench's
# layer tracer, until the tracer reads spans from the package.
from .scenarios import run_single_platoon  # noqa: E402,F401
from .topology import check_platoon_size

MIX_LETTERS = "GLP"          # follower alphabet, kept in lexicographic order
BASELINE_LETTERS = "AGLP"
FULL_ENUMERATION_MAX = 8     # platoon sizes enumerated exhaustively
SAMPLED_CONFIG_COUNT = 1000  # mixes drawn for a platoon size too large to enumerate
CONFIDENCE_LEVEL = 0.95      # of the ring summary's throughput intervals
BATCH_VEHICLES = 16384       # mix vehicles of one batch over its scenarios: its state bound
MAX_JOBS = 64                # worker processes of a sweep
# a single sweep's summary entries per scenario: (name, report field, pick of the mixes)
SUMMARY_PICKS = (("worst_delta_a", "delta_a", min), ("worst_delta_d", "delta_d", min),
                 ("best_eta", "eta", max))

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


def sampled_configs(n: int, seed: int = 0) -> list[str]:
    """Distinct random follower mixes for spaces too large to enumerate."""
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < SAMPLED_CONFIG_COUNT:
        cfg = "-" + "".join(rng.choice(list(MIX_LETTERS), size=n - 1))
        if cfg not in seen:
            seen.add(cfg)
            out.append(cfg)
    return out


def configs_for_sweep(n: int, seed: int = 0) -> list[str]:
    check_platoon_size(n)
    if seed < 0:
        raise UsageError("seed must not be negative")
    if n <= FULL_ENUMERATION_MAX:
        return mixed_configs(n)
    return sampled_configs(n, seed)


# ---------------------------------------------------------------------------
# Single-platoon evaluation
# ---------------------------------------------------------------------------

def scenario_for(kind: str, config: str, duration: float | None = None,
                 control_dt: float = CONTROL_DT,
                 u_min: float = DynamicsParams.u_min) -> SingleScenario:
    """Scenario of a scored run, which must cover its analysis window: a
    sinusoidal run until the window closes, a braking run until it records
    the head's onset command (which its floor ``u_min`` must let reach
    :data:`BRAKE_DETECT_U`), one tick after the first tick past the onset."""
    scn = SingleScenario(kind=kind, config=config, duration=duration)
    last = whole_periods(scn.duration, control_dt, "duration")   # tick k runs at k * control_dt
    if kind == SINUSOIDAL:
        end = sinusoidal_window(WARMUP, FREQUENCY)[1]
        short, what = last * control_dt < end - 1e-9, f"its analysis window closes at {end:g} s"
    else:
        short = not (last - 1) * control_dt >= scn.brake_onset
        what = f"the head's braking onset at {scn.brake_onset:g} s is recorded"
        if u_min > BRAKE_DETECT_U:
            raise UsageError(f"[dynamics] u_min must reach the braking onset {BRAKE_DETECT_U:g}")
    if short:
        raise UsageError(f"a {kind} run of {scn.duration:g} s ends before {what}")
    return scn


def build_reference(baselines: dict) -> tuple[np.ndarray, float, dict[str, np.ndarray]]:
    """Reference values of one scenario from its four homogeneous platoons:
    the all-ACC platoon's ``peak_abs_accel`` and ``max_platoon_occupancy``,
    and each platoon's ``min_gap`` keyed by its letter.

    ``baselines`` maps each letter of :data:`BASELINE_LETTERS` to the
    ``WindowScores`` of its homogeneous run (a sweep row's, or
    ``Trace.scores``), or to the exception its row failed with.  A
    reference that failed or collided leaves nothing to score against.
    """
    for letter in BASELINE_LETTERS:
        if isinstance(scores := baselines[letter], Exception):
            raise UsageError(f"homogeneous {letter} reference platoon failed: {scores}")
        if scores.terminated_by_collision:
            raise UsageError(f"homogeneous {letter} reference platoon collided")
    acc = baselines["A"]
    return (peak_abs_accel(acc), max_platoon_occupancy(acc),
            {letter: min_gap(scores) for letter, scores in baselines.items()})


def _rounded(x: float) -> float | None:
    """A result value as a result file holds it: rounded to 6 decimals, or
    ``None`` where it is undefined (NaN)."""
    return None if math.isnan(x) else round(x, 6)


def build_report(scores, ref: tuple) -> dict:
    """Score one platoon run's ``WindowScores`` against the reference values
    of its scenario, as the JSON record of its report; a collided run leaves
    its metrics and window ``None``."""
    report = {"config": scores.config, "scenario": scores.scenario_kind,
              "collided": scores.terminated_by_collision}
    if scores.terminated_by_collision:
        return {**report, "delta_a": None, "delta_a_vehicle": -1, "delta_d": None,
                "delta_d_vehicle": -1, "eta": None, "window": None}
    acc_peaks, acc_occupancy, min_gaps = ref
    da, da_vehicle = delta_a(scores, acc_peaks)
    dd, dd_vehicle = delta_d(scores, min_gaps)
    return {**report, "delta_a": _rounded(da), "delta_a_vehicle": da_vehicle,
            "delta_d": _rounded(dd), "delta_d_vehicle": dd_vehicle,
            "eta": _rounded(eta(scores, acc_occupancy)),
            "window": [round(t, 6) for t in scores.window]}


def _sweep_batch(args) -> dict[tuple[str, str, str], tuple[dict | None, str | None]]:
    """Simulate one batch of a sweep, recording no trace, and score each row.

    The batch holds one group of rows per scenario kind, each starting with
    the four baseline scenarios in the order of :data:`BASELINE_LETTERS`.
    All groups run as one time loop; each kind's reference comes from its
    own baseline rows, which are the same in every batch.  Returns
    ``(kind, role, config) -> (report fields, None)``, or ``(None, error)``
    for a row that failed to simulate or to score.  A baseline row answers
    for its config as a mix too, since a chunk leaves such mixes out.
    """
    groups, cfg = args
    results = iter(run_platoon_batch([scn for _, scns in groups for scn in scns],
                                     cfg.dynamics, cfg.controllers, record=False))
    out = {}
    for kind, scns in groups:
        rows = list(zip(scns, results))
        ref = build_reference(dict(zip(BASELINE_LETTERS, (scores for _, scores in rows))))
        for i, (scn, scores) in enumerate(rows):
            try:
                if isinstance(scores, Exception):
                    raise scores
                report, error = build_report(scores, ref), None
            except Exception as exc:  # keep scoring the other rows
                report, error = None, str(exc)
            for role in ("baseline", "mixed") if i < len(BASELINE_LETTERS) else ("mixed",):
                out[kind, role, scn.config] = (report and {"role": role, **report}, error)
    return out


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path``, in a folder made if need
    be, through ``<path>.tmp``, which replaces ``path`` once complete and is
    removed on failure, so an interrupted write leaves no partial file."""
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(tmp) or os.curdir, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` as strict, indented JSON, atomically."""
    _atomic_write(path, [json.dumps(payload, indent=1, sort_keys=True, allow_nan=False), "\n"])


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


# result files are strict JSON: one that holds NaN or Infinity is not current
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def _load_if_current(path: str, expect_hash: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _STRICT_JSON.decode(fh.read())
    except (OSError, ValueError):  # a missing file is an OSError, bad JSON a ValueError
        return None
    current = isinstance(payload, dict) and payload.get("spec_hash") == expect_hash
    return payload if current else None


def _check_jobs(jobs: int) -> None:
    """Reject a worker count out of bounds, before a sweep lists or writes anything."""
    if not 1 <= jobs <= MAX_JOBS:
        raise UsageError(f"jobs must be 1 to {MAX_JOBS}, got {jobs}")


def _run_store(files: dict, plan, run_batch, jobs: int) -> tuple[dict, list]:
    """Read, compute and write one JSON result file per key.

    ``files`` maps each key to its file's ``(path, spec hash)``.  Current
    files are read; ``plan`` groups the other keys it can run into batches, and
    ``run_batch`` maps a batch to ``key -> (payload, error)``, in one worker
    process per batch up to ``jobs`` when that makes more than one.  Each
    payload asked for is written, stamped with its hash, as its batch
    returns.  Returns the payloads and the ``(key, error)`` failures, both in
    the order of ``files``.
    """
    done = {key: payload for key, (path, h) in files.items()
            if (payload := _load_if_current(path, h)) is not None}
    pending = [key for key in files if key not in done]
    batches, errors = plan(pending) if pending else [], {}
    workers = min(jobs, len(batches))
    if workers > 1:
        import multiprocessing  # only a pool needs it, and it imports socket
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for part in (pool.imap if workers > 1 else map)(run_batch, batches):
            for key, (payload, error) in part.items():
                if key not in files or key in done or key in errors:
                    continue  # not asked for, or answered by an earlier batch
                if error is None:
                    done[key] = payload = {"spec_hash": files[key][1], **payload}
                    _atomic_write_json(files[key][0], payload)
                else:
                    errors[key] = error
    return ({key: done[key] for key in files if key in done},
            [(key, errors[key]) for key in files if key in errors])


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
    _check_jobs(jobs)
    hashes = {kind: spec_hash(cfg, {"sweep": "single", "n": n, "kind": kind,
                                    "duration": duration, "seed": seed})
              for kind in kinds}
    files = {(kind, role, config): (os.path.join(out_dir, "single", kind, role,
                                                 f"{config}.json"), hashes[kind])
             for kind in kinds
             for role, names in (("baseline", baseline_configs(n)), ("mixed", configs))
             for config in names}

    def plan(keys):
        """Batch i runs chunk i of every kind's uncached mixes, each kind with
        the baselines its reference needs, which answer for their mixes too."""
        chunks, base = {}, baseline_configs(n)
        todo = dict.fromkeys(k for k, _, _ in keys)
        for kind in todo:
            names = [c for k, role, c in keys if k == kind and role == "mixed" and c not in base]
            size = max(1, min(BATCH_VEHICLES // (n * len(todo)), -(-len(names) // jobs)))
            chunks[kind] = [names[i:i + size] for i in range(0, max(len(names), 1), size)]
        return [
            ([(kind, [scenario_for(kind, c, duration, u_min=cfg.dynamics.u_min)
                      for c in base + parts[i]])
              for kind, parts in chunks.items() if i < len(parts)], cfg)
            for i in range(max(map(len, chunks.values())))
        ]

    results, failed = _run_store(files, plan, _sweep_batch, jobs)
    summary: dict = {"n": n, "scenarios": {}, "failed": [
        {"scenario": kind, "config": config, "error": error}
        for (kind, _, config), error in failed]}
    for kind in kinds:
        reports = {f"{role}/{config}": v for (k, role, config), v in results.items()
                   if k == kind}
        mixed = {k: v for k, v in reports.items() if v["role"] == "mixed"
                 and not v["collided"]}
        picks = {}
        for name, metric, pick in SUMMARY_PICKS if mixed else ():
            best = mixed[pick(mixed, key=lambda k: (mixed[k][metric], k))]
            picks[name] = {"config": best["config"], "value": best[metric]}
            if f"{metric}_vehicle" in best:
                picks[name]["vehicle"] = best[f"{metric}_vehicle"]
        summary["scenarios"][kind] = {
            "spec_hash": hashes[kind],
            "mixed_reports": sum(1 for v in reports.values() if v["role"] == "mixed"),
            "baseline_reports": sum(1 for v in reports.values() if v["role"] == "baseline"),
            "collisions": sorted(v["config"] for v in reports.values() if v["collided"]),
            **picks,
        }
    _atomic_write_json(os.path.join(out_dir, "single", "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# Ring grid
# ---------------------------------------------------------------------------

def ring_cells(mob: MobilitySpec, densities=None) -> dict[str, dict]:
    """The ring grid of ``mob``, or of its other axes at ``densities``, as
    cell id -> RingSpec fields: per density, the baselines, then every
    (policy, platoon size, penetration) combination."""
    cells = {}
    for d in mob.densities if densities is None else densities:
        for b in BASELINES:
            cells[f"d{d:g}-{b}"] = {"density": d, "baseline": b}
        for pol, n, r in itertools.product(PLATOON_POLICIES, mob.platoon_sizes,
                                           mob.penetration_rates):
            cells[f"d{d:g}-{pol}-N{n}-R{r:g}"] = {
                "density": d, "platoon_policy": pol, "platoon_size": n, "penetration": r}
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
        out["throughput"] = round(road_throughput(
            trace.counter_times, trace.counter_devices, DEVICES,
            spec.warmup, trace.end_time, spec.counter_window,
        ), 6)
    if trace.speed_samples.shape[0] >= 2:
        xi = volatility(trace.speed_samples)
        out["xi"] = [_rounded(x) for x in xi.tolist()]
        out["xi_median"] = _rounded(float(np.nanmedian(xi)))
        out["mean_speed"] = round(float(trace.speed_samples.mean()), 6)
    return out


def _ring_batch(runs) -> dict[tuple[str, int], tuple[dict | None, str | None]]:
    """Run each ``(cell id, rep, spec, cfg)`` of ``runs``; returns
    ``(cell id, rep) -> (result fields, None)``, or ``(None, error)`` for a
    run that failed."""
    out = {}
    for cell_id, rep, spec, cfg in runs:
        try:
            metrics = ring_run_metrics(run_ring(spec, cfg.dynamics, cfg.controllers))
            out[cell_id, rep] = ({"cell": cell_id, "rep": rep, "seed": spec.seed, **metrics},
                                 None)
        except Exception as exc:  # keep sweeping, report at the end
            out[cell_id, rep] = (None, str(exc))
    return out


def confidence_halfwidth(values) -> float:
    """Half-width of the Student-t confidence interval of the mean."""
    from scipy import stats  # imported here: it costs most of the package's import time

    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        return float("nan")
    crit = stats.t.ppf(0.5 + CONFIDENCE_LEVEL / 2.0, vals.size - 1)
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
) -> dict:
    """Run the ring grid; resumable, one JSON per (cell, repetition).

    Every run's spec is built first, even for a dry run, so settings that
    no run can use are a config error, not failed runs.
    """
    cfg = cfg or Config()
    mob = cfg.mobility
    if repetitions < 1:
        raise UsageError("repetitions must be at least 1")
    if seed < 0:
        raise UsageError("seed must not be negative")
    cells = ring_cells(mob, densities)
    specs = {(cell, rep): ring_spec(mob, duration, warmup, seed=run_seed(seed, cell, rep),
                                    **fields)
             for cell, fields in cells.items() for rep in range(repetitions)}
    substeps(CONTROL_DT, cfg.dynamics.dt)   # every spec's control period
    _check_jobs(jobs)
    if dry_run:
        return {
            "cells": list(cells),
            "cell_count": len(cells),
            "run_count": len(specs),
            "dry_run": True,
        }
    h = spec_hash(cfg, {"sweep": "ring", "engine": ENGINE_VERSION,
                        "duration": duration, "warmup": warmup, "seed": seed})
    # every current result of the grid is read, so a grid run in --density subsets
    # ends with the summary of one whole run; a batch is one run of this subset
    grid = {**ring_cells(mob), **cells}
    files = {(cell, rep): (os.path.join(out_dir, "ring", cell, f"rep{rep}.json"), h)
             for cell in grid for rep in range(repetitions)}
    results, failed = _run_store(
        files, lambda keys: [[(*key, specs[key], cfg)] for key in keys if key in specs],
        _ring_batch, jobs)

    aggregate = {}
    for cell in grid:
        runs = [results[cell, rep] for rep in range(repetitions) if (cell, rep) in results]
        if not runs and cell not in cells:
            continue   # another subset's cell, not run yet
        ok = [r for r in runs if not r["collided"] and r["throughput"] is not None]
        thr = [r["throughput"] for r in ok]
        xi = [r["xi_median"] for r in ok if r["xi_median"] is not None]
        aggregate[cell] = {
            "runs": len(runs),
            "collisions": sum(1 for r in runs if r["collided"]),
            "throughput_mean": round(float(np.mean(thr)), 3) if thr else None,
            "throughput_ci95": round(confidence_halfwidth(thr), 3) if len(thr) > 1 else None,
            "xi_median": round(float(np.median(xi)), 6) if xi else None,
        }
    summary = {
        "spec_hash": h,
        "cell_count": len(aggregate),
        "repetitions": repetitions,
        "cells": aggregate,
        "failed": [{"cell": cell_id, "rep": rep, "error": error}
                   for (cell_id, rep), error in failed],
    }
    _atomic_write_json(os.path.join(out_dir, "ring", "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _single_table(summary: dict) -> str:
    lines = []
    for kind, info in sorted(summary.get("scenarios", {}).items()):
        lines.append(f"scenario: {kind}  (spec_hash={info['spec_hash']})")
        lines.append(f"  reports: {info['mixed_reports']} mixed"
                     f" + {info['baseline_reports']} baseline")
        for key, _, _ in SUMMARY_PICKS:
            if key in info:
                e = info[key]
                veh = f" (vehicle {e['vehicle']})" if "vehicle" in e else ""
                lines.append(f"  {key}: {e['config']} = {e['value']:.3f}{veh}")
        if info.get("collisions"):
            lines.append(f"  collisions: {', '.join(info['collisions'])}")
        lines.append("")
    return "\n".join(lines)


def _ring_table(summary: dict) -> str:
    header = f"{'cell':32s} {'runs':>4s} {'crash':>5s} {'thr veh/h':>10s} {'ci95':>8s} {'xi_med':>8s}"
    lines = [f"spec_hash={summary['spec_hash']}", header]
    for cell_id, agg in summary["cells"].items():
        thr = "-" if agg["throughput_mean"] is None else f"{agg['throughput_mean']:.0f}"
        ci = "-" if agg["throughput_ci95"] is None else f"{agg['throughput_ci95']:.0f}"
        xi = "-" if agg["xi_median"] is None else f"{agg['xi_median']:.3f}"
        lines.append(f"{cell_id:32s} {agg['runs']:4d} {agg['collisions']:5d}"
                     f" {thr:>10s} {ci:>8s} {xi:>8s}")
    return "\n".join(lines) + "\n"


def emit_reports(out_dir: str) -> list[str]:
    """Render a table from each sweep summary under ``out_dir``, all before
    writing any; returns the paths written.  A summary that cannot be read, is
    not strict JSON or lacks a field its table needs is a UsageError naming it."""
    tables = {}
    for sweep, render in (("single", _single_table), ("ring", _ring_table)):
        path = os.path.join(out_dir, sweep, "summary.json")
        if not os.path.exists(path):
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = render(_STRICT_JSON.decode(fh.read()))
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            raise UsageError(f"cannot render sweep summary {path}: {exc!r}") from None
        tables[os.path.join(out_dir, sweep, "table.txt")] = text
    for path, text in tables.items():
        _atomic_write(path, [text])
    return list(tables)
