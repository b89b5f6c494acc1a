"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that the exact counts of the traced run repeat across two runs, and
that the output checkers report a failure when a golden value is corrupted.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, ROOT, SCRATCH, SRC, WORKLOADS

EXACT_UNITS = ("count", "bytes", "ratio")


class SelfTestFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestFailure(message)


def toy_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SelfTestFailure(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{what}: emitted {got}, declared {want}")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, what)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: {result['failed']} of {result['attempted']} failed")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    for w in WORKLOADS:
        check_emitted(toy_run(w, 0), spec["end_to_end"], f"{w} trace 0")
        first, second = toy_run(w, 1), toy_run(w, 1)
        check_emitted(first, spec["per_layer"], f"{w} trace 1")
        for name in exact:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, f"{w}: {name} read {a} then {b}")
        print(f"ok  {w}: all metrics emitted, {len(exact)} counts repeat", flush=True)


def check_corrupted_goldens() -> None:
    sys.path.insert(0, str(SRC))
    import worker

    spec = worker.ring_specs("ring-lanechange", 0, toy=True)[0]
    _, out = worker.ring_pass(spec)
    obs = worker.ring_observables(*out)
    for key, wrong in (("throughput", obs["throughput"] + 1.0),
                       ("lane_changes", obs["lane_changes"] + 1),
                       ("missing", None),
                       (None, None)):
        bad = {str(spec.seed): dict(obs)}
        if key == "missing":
            bad = {}
        elif key is not None:
            bad[str(spec.seed)][key] = wrong
        tally = worker.Tally()
        worker.RingCheck(bad)(spec, out, tally)
        want = 0 if key is None else 1
        expect(tally.failed == want, f"ring golden {key}: {tally.failed} failed")

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        out = Path(tmp)
        _, error = worker.sweep_pass(out, worker.TOY_SWEEP_N)
        expect(error is None, str(error))
        snap = worker.sweep_snapshot(out)
        first_file = sorted(snap["files"])[0]
        corrupt_summary = copy.deepcopy(snap)
        kind = sorted(corrupt_summary["summary"]["scenarios"])[0]
        corrupt_summary["summary"]["scenarios"][kind]["mixed_reports"] += 1
        corrupt_file = copy.deepcopy(snap)
        corrupt_file["files"][first_file] = "0" * 64
        for name, golden, want in (("intact", snap, 0), ("file", corrupt_file, 1),
                                   ("summary", corrupt_summary, None)):
            check = worker.SweepCheck(worker.TOY_SWEEP_N, golden)
            tally = worker.Tally()
            check(out, None, tally)
            want = check.reports if want is None else want
            expect(tally.failed == want, f"sweep golden {name}: {tally.failed} failed")
    print("ok  corrupted goldens are reported as failures", flush=True)


def main() -> int:
    try:
        check_corrupted_goldens()
        check_metrics()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
