"""Runs one benchmark workload in a fresh interpreter and checks its outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints one JSON object as its last line: pass timings, simulations attempted
and failed, peak resident memory and, with ``--trace 1``, the raw layer spans.

A workload runs in cycles of main passes and resume passes:

* ``single-sweep``: one cycle is ``sweep_single(4)`` into an empty directory
  (the main pass), then the sweep again over the same directory three times
  (resume passes, which reuse the cached reports).
* ring workloads: one cycle is, for each ring seed of the workload,
  ``run_ring`` plus ``ring_run_metrics`` (the main pass) and the same again
  (the resume pass; ``run_ring`` keeps no results, so it recomputes them).

Only the passes are timed; the output checks run between them.

``python3 perfbench/worker.py --record --tmp DIR`` rewrites ``golden.json``
from the current code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mixcacc  # noqa: E402
from mixcacc import experiments, ring  # noqa: E402

from layers import Tracer  # noqa: E402
from probe import Corrected  # noqa: E402

SWEEP_N = 4
TOY_SWEEP_N = 3
SWEEP_RESUMES = 3       # resume passes per cold sweep
# 30 s warm-up plus 120 s observed: 1,500 control ticks per ring run
RING_WARMUP, RING_DURATION = 30.0, 120.0
TOY_RING_WARMUP, TOY_RING_DURATION = 5.0, 20.0
# Every run simulates the same ring seeds, so runs differ by noise only;
# the benchmark seed sets their order.
RING_SEEDS = (0, 1)
RING_WORKLOADS = {
    "ring-lanechange": dict(density=60, penetration=0.5, platoon_size=8,
                            platoon_policy="P", baseline="ACC"),
    "ring-dense-mix": dict(density=160, penetration=0.5, platoon_size=8,
                           platoon_policy="MIX", baseline="ACC"),
}
WORKLOADS = ("single-sweep", *RING_WORKLOADS)


class Tally:
    """Simulations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 8:
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# Ring workloads
# ---------------------------------------------------------------------------

def ring_specs(workload: str, seed: int, toy: bool) -> list:
    warmup, duration = (TOY_RING_WARMUP, TOY_RING_DURATION) if toy \
        else (RING_WARMUP, RING_DURATION)
    k = seed % len(RING_SEEDS)
    return [ring.RingSpec(**RING_WORKLOADS[workload], warmup=warmup,
                          duration=duration, seed=s)
            for s in RING_SEEDS[k:] + RING_SEEDS[:k]]


def ring_pass(spec) -> tuple[float, tuple | str]:
    """Timed pass: one ring run and its scoring, or the traceback it raised."""
    t0 = time.perf_counter()
    try:
        trace = ring.run_ring(spec)
        out = (trace, experiments.ring_run_metrics(trace))
    except Exception:
        out = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out


def ring_observables(trace, metrics) -> dict:
    return {
        "throughput": metrics["throughput"],
        "xi_median": metrics["xi_median"],
        "lane_changes": sum(ev.kind == "lane_change" for ev in trace.events),
        "collided": trace.terminated_by_collision,
    }


def ring_digest(trace, metrics) -> str:
    h = hashlib.sha256(trace.serialize())
    h.update(json.dumps(metrics, sort_keys=True).encode())
    return h.hexdigest()


class RingCheck:
    """Checks each ring run against its golden observables (``golden`` None:
    toy size, no goldens) and against the bytes of the first run of the same
    seed in this process."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.first_digest: dict[int, str] = {}

    def __call__(self, spec, out, tally: Tally) -> None:
        tally.add(1, *self.problem(spec, out))

    def problem(self, spec, out) -> tuple[int, str]:
        if isinstance(out, str):
            return 1, f"seed {spec.seed} raised: {out}"
        trace, metrics = out
        obs = ring_observables(trace, metrics)
        if trace.n_vehicles != math.floor(spec.density * spec.circumference / 1000.0):
            return 1, f"seed {spec.seed}: {trace.n_vehicles} vehicles"
        if not obs["collided"] and not all(
                isinstance(obs[k], float) and math.isfinite(obs[k]) and obs[k] > 0.0
                for k in ("throughput", "xi_median")):
            return 1, f"seed {spec.seed}: observables {obs}"
        if self.golden is not None:
            want = self.golden.get(str(spec.seed))
            if want is None:
                return 1, f"seed {spec.seed}: no golden observables"
            if obs != want:
                return 1, f"seed {spec.seed}: {obs} != golden {want}"
        digest = ring_digest(trace, metrics)
        if self.first_digest.setdefault(spec.seed, digest) != digest:
            return 1, f"seed {spec.seed}: trace bytes differ from the first run"
        return 0, ""


def ring_passes(specs: list, check: RingCheck, tally: Tally):
    """One cycle: a main and a resume pass of each ring seed, as (kind, pass)
    pairs; a pass returns its time and checks its output after timing."""

    def run(spec) -> float:
        elapsed, out = ring_pass(spec)
        check(spec, out, tally)
        return elapsed

    for spec in specs:
        yield "main_s", functools.partial(run, spec)
        yield "resume_s", functools.partial(run, spec)


# ---------------------------------------------------------------------------
# Single-platoon sweep
# ---------------------------------------------------------------------------

def sweep_pass(out_dir: Path, n: int) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    try:
        experiments.sweep_single(n, str(out_dir))
        error = None
    except Exception:
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, error


def sweep_snapshot(out_dir: Path) -> dict:
    """``summary.json`` contents plus the sha256 of every report file."""
    root = out_dir / "single"
    files = {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "summary.json"
    }
    summary = json.loads((root / "summary.json").read_text(encoding="utf-8"))
    return {"summary": summary, "files": files}


class SweepCheck:
    """Checks every report of a sweep directory against the golden snapshot,
    or against the first snapshot of this process when there is none."""

    def __init__(self, n: int, golden: dict | None):
        self.reports = 2 * (len(experiments.configs_for_sweep(n))
                            + len(experiments.baseline_configs(n)))
        self.reference = golden

    def __call__(self, out_dir: Path, error: str | None, tally: Tally) -> None:
        if error is not None:
            tally.add(self.reports, self.reports, f"sweep raised: {error}")
            return
        try:
            snap = sweep_snapshot(out_dir)
        except (OSError, ValueError) as exc:
            tally.add(self.reports, self.reports, f"unreadable output: {exc}")
            return
        if self.reference is None:
            self.reference = snap
        ref = self.reference
        if snap["summary"] != ref["summary"]:
            tally.add(self.reports, self.reports, "summary.json differs")
            return
        bad = sorted(k for k in ref["files"].keys() | snap["files"].keys()
                     if snap["files"].get(k) != ref["files"].get(k))
        tally.add(self.reports, min(len(bad), self.reports),
                  f"{len(bad)} report files differ, first {bad[:1]}")


def sweep_passes(out_dir: Path, n: int, check: SweepCheck, tally: Tally):
    """One cycle: a cold sweep into the empty ``out_dir``, then the resume
    passes over it, as (kind, pass) pairs like :func:`ring_passes`."""

    def run() -> float:
        elapsed, error = sweep_pass(out_dir, n)
        check(out_dir, error, tally)
        return elapsed

    yield "main_s", run
    for _ in range(SWEEP_RESUMES):
        yield "resume_s", run


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def cycles(workload: str, seed: int, toy: bool, tmp: Path, tally: Tally):
    """A function that returns the passes of a new cycle of ``workload``."""
    golden = None if toy else json.loads(GOLDEN_PATH.read_text())[workload]
    if workload == "single-sweep":
        n = TOY_SWEEP_N if toy else SWEEP_N
        check = SweepCheck(n, golden)
        dirs = (tmp / f"sweep{i}" for i in itertools.count())
        return lambda: sweep_passes(next(dirs), n, check, tally)
    specs = ring_specs(workload, seed, toy)
    check = RingCheck(golden)
    return lambda: ring_passes(specs, check, tally)


def measure(new_cycle, seconds: float) -> dict:
    """Whole cycles until ``seconds`` have passed, at least one, so that every
    input is timed equally often; each pass between host-speed probes."""
    timer = Corrected()
    start = time.perf_counter()
    while not timer.raw or time.perf_counter() - start < seconds:
        for kind, run in new_cycle():
            timer.add(kind, run())
    return {"raw": timer.raw, "corrected": timer.corrected, "probes": timer.probes}


def trace_once(new_cycle) -> dict:
    """Two cycles in lockstep, each pass of the first untraced and then the
    same pass of the second traced.  Pairing the passes keeps slow drifts of
    the host out of the overhead; the traced outputs are checked like the
    untraced ones, so they must match them."""
    tracer = Tracer()
    untraced = traced = 0.0
    for (_, bare), (_, wrapped) in zip(new_cycle(), new_cycle()):
        untraced += bare()
        with tracer:
            traced += wrapped()
    return {
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "traced_s": traced,
        "untraced_s": untraced,
    }


def record_golden(tmp: Path) -> None:
    golden = {}
    out_dir = tmp / "record"
    experiments.sweep_single(SWEEP_N, str(out_dir))
    golden["single-sweep"] = sweep_snapshot(out_dir)
    for name in RING_WORKLOADS:
        golden[name] = {}
        for spec in ring_specs(name, 0, toy=False):
            trace = ring.run_ring(spec)
            obs = ring_observables(trace, experiments.ring_run_metrics(trace))
            golden[name][str(spec.seed)] = obs
            print(name, spec.seed, obs, file=sys.stderr, flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--toy", action="store_true",
                    help="small inputs, checked against themselves only")
    ap.add_argument("--record", action="store_true", help="rewrite golden.json")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(mixcacc.__file__).resolve().parents:
        print(f"mixcacc imported from {mixcacc.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.record:
        record_golden(args.tmp)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    tally = Tally()
    new_cycle = cycles(args.workload, args.seed, args.toy, args.tmp, tally)
    result = trace_once(new_cycle) if args.trace else measure(new_cycle, args.seconds)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
