"""Command line front end.

Subcommands
-----------
single       run one platoon through a disturbance scenario, write trace CSVs
ring         run one ring-road simulation, write counter and event CSVs
sweep-single run every follower mix for a platoon size and score it
sweep-ring   run the density / policy / size / penetration grid
matrix       print the communication matrix of a platoon configuration
report       render text tables from persisted sweep output

Exit codes: 0 success, 2 bad configuration (a ``UsageError``), 3 single run
ended in a collision, 4 a run failed (a ``RunError``) or a sweep finished with
failed runs.  Any other exception, even a ``ValueError`` raised while loading a
config, is an internal error: it escapes with its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import RunError, UsageError, load_config_file, spec_hash
from .experiments import (
    _atomic_write,
    _atomic_write_json,
    _single_table,
    emit_reports,
    ring_run_metrics,
    ring_spec,
    scenario_for,
    sweep_ring,
    sweep_single,
)
from .metrics import BRAKE_DETECT_U, min_gap, peak_abs_accel
from .ring import BASELINES, PLATOON_POLICIES, run_ring
from .scenarios import BRAKING, CONTROL_DT, SINUSOIDAL, events_csv, run_single_platoon
from .topology import connectivity_matrix, extended_connectivity_matrix

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_PARTIAL = 4


def cmd_single(args, cfg) -> int:
    scn = scenario_for(args.scenario, args.config, args.duration, args.control_dt,
                       cfg.dynamics.u_min)
    trace = run_single_platoon(scn, cfg.dynamics, cfg.controllers,
                               control_dt=args.control_dt)
    h = spec_hash(cfg, {"command": "single", "config": args.config, "scenario": args.scenario,
                        "duration": args.duration, "control_dt": args.control_dt})
    facts = {"spec_hash": h, "config": args.config, "scenario": args.scenario,
             "collided": trace.terminated_by_collision}
    scores = trace.scores
    no_onset = scores.window is None   # a spring-damper head may never brake that hard
    if no_onset:
        facts["window"] = None
    elif not trace.terminated_by_collision:
        facts["window"] = [round(t, 6) for t in scores.window]
        for name, per in (("min_gap", min_gap), ("peak_abs_accel", peak_abs_accel)):
            facts[name] = {str(i): round(x, 6) for i, x in enumerate(per(scores).tolist(), 1)}
    stem = os.path.join(args.out, "single_run", f"{args.config}_{args.scenario}")
    _atomic_write(stem + ".csv", trace.rows_csv_chunks(header_comment=f"spec_hash={h}"))
    _atomic_write(stem + "_events.csv", [events_csv(trace.events)])
    _atomic_write_json(stem + ".json", facts)
    print(f"wrote {stem}.csv ({trace.times.size * trace.n_vehicles} rows)")
    if trace.terminated_by_collision:
        print("run terminated by collision")
        return EXIT_COLLISION
    if no_onset:
        print(f"the head never commanded the braking onset ({BRAKE_DETECT_U:g} m/s^2): no metrics")
    return EXIT_OK


def cmd_ring(args, cfg) -> int:
    spec = ring_spec(
        cfg.mobility, args.duration, args.warmup,
        density=args.density, penetration=args.penetration,
        platoon_size=args.platoon_size, platoon_policy=args.policy,
        baseline=args.baseline, seed=args.seed, record_full_trace=args.full_trace,
    )
    trace = run_ring(spec, cfg.dynamics, cfg.controllers)
    h = spec_hash(cfg, {"command": "ring", "density": args.density,
                        "penetration": args.penetration,
                        "platoon_size": args.platoon_size,
                        "policy": args.policy, "baseline": args.baseline,
                        "seed": args.seed, "duration": spec.duration,
                        "warmup": spec.warmup})
    stem = os.path.join(args.out, "ring_run", f"seed{args.seed}")
    _atomic_write(stem + "_counters.csv", trace.counters_csv_chunks())
    _atomic_write(stem + "_events.csv", [events_csv(trace.events)])
    metrics = {"spec_hash": h, **ring_run_metrics(trace)}
    _atomic_write_json(stem + ".json", metrics)
    if args.full_trace and trace.full is not None:
        _atomic_write(stem + "_trace.csv",
                      trace.full.rows_csv_chunks(header_comment=f"spec_hash={h}"))
    print(f"{trace.n_vehicles} vehicles, end_time={trace.end_time:.1f}s")
    if metrics["throughput"] is not None:
        print(f"road throughput: {metrics['throughput']:.0f} veh/h")
    if metrics["xi_median"] is not None:
        print(f"median speed volatility: {metrics['xi_median']:.4f}")
    if trace.terminated_by_collision:
        print("run terminated by collision")
        return EXIT_COLLISION
    return EXIT_OK


def cmd_sweep_single(args, cfg) -> int:
    kinds = (SINUSOIDAL, BRAKING) if args.scenario == "both" else (args.scenario,)
    summary = sweep_single(args.platoon_size, args.out, kinds=kinds, cfg=cfg,
                           jobs=args.jobs, seed=args.seed,
                           duration=args.duration)
    print(_single_table(summary), end="")
    if summary["failed"]:
        print(f"{len(summary['failed'])} runs failed")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_sweep_ring(args, cfg) -> int:
    summary = sweep_ring(
        args.out, cfg=cfg, repetitions=args.repetitions, jobs=args.jobs,
        seed=args.seed, dry_run=args.dry_run,
        duration=args.duration, warmup=args.warmup,
        densities=args.density if args.density else None,
    )
    if args.dry_run:
        print(f"{summary['cell_count']} cells, {summary['run_count']} runs")
        for cell_id in summary["cells"]:
            print(cell_id)
        return EXIT_OK
    collisions = sum(a["collisions"] for a in summary["cells"].values())
    print(f"{summary['cell_count']} cells x {summary['repetitions']} reps,"
          f" {collisions} collided runs")
    if summary["failed"]:
        print(f"{len(summary['failed'])} runs failed")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_matrix(args, cfg) -> int:
    if args.extended:
        m = extended_connectivity_matrix(args.config, head_externally_guided=args.head_guided)
    else:
        m = connectivity_matrix(args.config)
    print(m.to_text())
    return EXIT_OK


def cmd_report(args, cfg) -> int:
    written = emit_reports(args.out)
    if not written:
        print(f"no sweep output found under {args.out}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcacc",
        description="Mixed-platoon cooperative cruise control simulator.",
    )
    parser.add_argument("--params", help="parameter file (INI)", default=None)
    parser.add_argument("--out", help="output directory", default="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single", help="run one platoon scenario")
    p.add_argument("config", help="platoon configuration string, e.g. -PLG")
    p.add_argument("--scenario", choices=[SINUSOIDAL, BRAKING],
                   default=SINUSOIDAL)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--control-dt", type=float, default=CONTROL_DT)
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("ring", help="run one ring-road simulation")
    p.add_argument("--density", type=float, required=True,
                   help="vehicles per km per direction")
    p.add_argument("--penetration", type=float, default=0.0)
    p.add_argument("--platoon-size", type=int, default=8)
    p.add_argument("--policy", choices=PLATOON_POLICIES, default="P")
    p.add_argument("--baseline", choices=BASELINES, default="ACC")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--full-trace", action="store_true")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("sweep-single", help="score every follower mix")
    p.add_argument("--platoon-size", "-n", type=int, default=4)
    p.add_argument("--scenario", choices=[SINUSOIDAL, BRAKING, "both"],
                   default="both")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None)
    p.set_defaults(func=cmd_sweep_single)

    p = sub.add_parser("sweep-ring", help="run the ring experiment grid")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dry-run", action="store_true",
                   help="list the grid cells without running")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--density", type=float, action="append", default=None,
                   help="restrict to one or more densities")
    p.set_defaults(func=cmd_sweep_ring)

    p = sub.add_parser("matrix", help="print a communication matrix")
    p.add_argument("config")
    p.add_argument("--extended", action="store_true",
                   help="include the external reference column")
    p.add_argument("--head-guided", action="store_true",
                   help="head vehicle follows an external reference")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("report", help="render tables from sweep output")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    near = args.out                 # the nearest existing path of --out
    while not os.path.exists(near) and os.path.dirname(near) not in ("", near):
        near = os.path.dirname(near)
    try:
        if os.path.exists(near) and not os.path.isdir(near) and args.func != cmd_matrix:
            below = "" if near == args.out else f"{args.out}: "
            raise UsageError(f"--out {below}{near} exists and is not a folder")
        return args.func(args, load_config_file(args.params))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RunError as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
