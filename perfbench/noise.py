"""Run-to-run noise of the end-to-end metrics.

    python3 perfbench/noise.py [--write]

Runs ``run.py --trace 0`` for seeds 0 to 9 of every workload, workloads
interleaved, and prints for each metric its median and the distance between
the first and third quartile as a share of the median
(``statistics.quantiles(n=4)``), the spread that each end-to-end bound in
``BENCHMARK.json`` must cover.  The uncorrected medians of the times (see
``probe.py``) are listed beside them.  ``--write`` stores the figures in ``baseline.json``, which ``run.py`` quotes
in every result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT, WORKLOADS, spread

SEEDS = 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    failures = 0
    for seed in range(SEEDS):
        for w in WORKLOADS:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[-2].removeprefix("env "))
            result = json.loads(lines[-1])
            failures += result["failed"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name, n in env["noise_within_run"].items():
                raw = n.get("raw", n)
                values[w].setdefault(f"{name} uncorrected", []).append(raw["median"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                + f"  failed={result['failed']}", flush=True)

    table = {}
    for w, per_metric in values.items():
        table[w] = {}
        for name, vals in per_metric.items():
            s = spread(vals)
            s["values"] = vals
            table[w][name] = s
            iqr = s.get("iqr_frac")
            bound = bounds.get(name)
            flag = "" if iqr is None or bound is None or iqr <= bound / 3 else \
                ("  > bound/3" if iqr <= bound else "  > BOUND")
            print(f"{w:16s} {name:24s} median {statistics.median(vals):10.4f}"
                  f"  spread {iqr if iqr is not None else float('nan'):.3f}"
                  f"  bound {bound or '-'}{flag}")
    if args.write:
        table["env"] = {k: env[k] for k in ("commit", "cpu", "nproc", "python",
                                            "numpy", "scipy", "seconds")}
        out = BENCH_DIR / "baseline.json"
        out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
