"""mixcacc benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, nothing is installed.  Human-readable lines go
first; the last line of standard output is the JSON result.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import layer_value
from probe import Corrected

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("single-sweep", "ring-lanechange", "ring-dense-mix")
SETUP_PROBES = 5        # timed fresh-interpreter imports
IMPORTTIME_PROBES = 3   # -X importtime probes of a traced run
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 150
SETUP_IMPORT = "import mixcacc.cli"


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_python(*args: str) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a fresh interpreter running ``args``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc


def setup_times(probes: int) -> Corrected:
    """Fresh-interpreter imports of the CLI, each between host-speed probes."""
    timer = Corrected()
    for _ in range(probes):
        timer.add("setup_s", fresh_python("-c", SETUP_IMPORT)[0])
    return timer


def import_times(probes: int) -> dict[str, float]:
    """Median cumulative import time of the package and of its experiments
    module (which pulls in scipy.stats), from ``-X importtime``."""
    samples: dict[str, list[float]] = {"mixcacc": [], "mixcacc.experiments": []}
    for _ in range(probes):
        _, proc = fresh_python("-X", "importtime", "-c", SETUP_IMPORT)
        for line in proc.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) * 1e-6)
    if not all(samples.values()):
        raise BenchError("-X importtime did not report the mixcacc modules")
    return {name: statistics.median(v) for name, v in samples.items()}


def run_worker(workload: str, seed: int, seconds: int, trace: int, toy: bool) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", str(tmp)] + (["--toy"] if toy else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Sample count, median and quartiles; ``iqr_frac`` is (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else None}


def end_to_end(res: dict, setup: Corrected) -> tuple[dict, dict]:
    """Medians of the corrected times, and for each time metric the spread
    of its corrected and of its raw pass times."""
    names = {"setup_s": "setup_s", "wall_s": "main_s", "resume_s": "resume_s"}
    corrected = {**setup.corrected, **res["corrected"]}
    raw = {**setup.raw, **res["raw"]}
    noise = {name: {"corrected": spread(corrected[key]), "raw": spread(raw[key])}
             for name, key in names.items()}
    noise["probe_s"] = spread(setup.probes + res["probes"])
    values = {name: n["corrected"]["median"] for name, n in noise.items()
              if name in names}
    values["peak_rss_mb"] = res["peak_rss_mb"]
    return values, noise


def per_layer(res: dict, imports: dict[str, float], names: list[str]) -> dict:
    special = {
        "trace.wall_s": res["traced_s"],
        "trace.overhead_s": res["traced_s"] - res["untraced_s"],
        "setup.import.mixcacc_s": imports["mixcacc"],
        "setup.import.experiments_s": imports["mixcacc.experiments"],
    }
    counters = res["counters"]
    candidates = counters.get("ring._vec_target_check.candidates", 0)
    special["ring.lc_accept_ratio"] = (
        counters.get("ring.lane_changes", 0) / candidates if candidates else 0.0)
    return {name: special[name] if name in special
            else layer_value(name, res["spans"], counters) for name in names}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="small inputs for the self-test; no golden check")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if not (SRC / "mixcacc" / "__init__.py").is_file():
            raise BenchError(f"no mixcacc package under {SRC}")
        if args.trace:
            imports = import_times(1 if args.toy else IMPORTTIME_PROBES)
            res = run_worker(args.workload, args.seed, args.seconds, 1, args.toy)
            values = per_layer(res, imports, [m["name"] for m in declared])
            noise = {}
        else:
            setup = setup_times(1 if args.toy else SETUP_PROBES)
            res = run_worker(args.workload, args.seed, args.seconds, 0, args.toy)
            values, noise = end_to_end(res, setup)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted if attempted else 1.0:>14.6g}"
          f" ({failed} of {attempted} simulations)")
    for name, n in noise.items():
        raw = n.get("raw", n)
        print(f"  {name + ' uncorrected':40s} {raw['median']:>14.6g} s")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")
    baseline = BENCH_DIR / "baseline.json"
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), **res["env"],
        "noise_within_run": noise,
        "noise_across_runs": json.loads(baseline.read_text()).get(args.workload)
        if baseline.is_file() and not args.trace else None,
    }
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
