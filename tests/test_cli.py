"""End-to-end checks of the command line front end.

Everything goes through ``main(argv)`` so the tests cover argument wiring,
exit codes and the files left on disk.  Configuration strings start with a
dash, so they are passed after a ``--`` separator exactly as a user would.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixcacc import cli
from mixcacc.config import Config, UsageError, load_config
from mixcacc.experiments import ring_spec, scenario_for
from mixcacc.ring import RingSpec, run_ring
from mixcacc.scenarios import CONTROL_DT, SingleScenario, Trace, run_single_platoon
from mixcacc.cli import (
    EXIT_COLLISION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
)
from mixcacc.topology import (
    connectivity_matrix,
    extended_connectivity_matrix,
    parse_config,
)

CSV_COLUMNS = "t,veh,lane,x,v,a,u,gap,ctrl,mode"
SRC = Path(cli.__file__).parent


def test_matrix_prints_connectivity_table(capsys):
    assert main(["matrix", "--", "-PPPP"]) == EXIT_OK
    out = capsys.readouterr().out
    expected = connectivity_matrix(parse_config("-PPPP")).to_text()
    assert out == expected + "\n"


def test_matrix_extended_variants(capsys):
    assert main(["matrix", "--extended", "--", "GGGGG"]) == EXIT_OK
    plain = capsys.readouterr().out
    assert plain == extended_connectivity_matrix(parse_config("GGGGG")).to_text() + "\n"

    assert main(["matrix", "--extended", "--head-guided", "--", "-PP"]) == EXIT_OK
    guided = capsys.readouterr().out
    expected = extended_connectivity_matrix(
        parse_config("-PP"), head_externally_guided=True)
    assert guided == expected.to_text() + "\n"


def test_matrix_rejects_unknown_letter(capsys):
    assert main(["matrix", "--", "-PXP"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_single_run_writes_trace_events_and_facts(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "single", "--scenario", "braking",
                 "--", "-PL"])
    assert code == EXIT_OK
    assert "wrote" in capsys.readouterr().out

    stem = tmp_path / "single_run" / "-PL_braking"
    lines = (stem.with_suffix(".csv")).read_text().splitlines()
    assert lines[0].startswith("# spec_hash=")
    assert lines[1] == CSV_COLUMNS
    assert len(lines) > 3 * 600       # three vehicles, 60 s at 0.1 s records

    events = stem.parent / "-PL_braking_events.csv"
    assert events.read_text().splitlines()[0] == "t,kind,veh_a,veh_b,detail"

    facts = json.loads(stem.with_suffix(".json").read_text())
    assert facts["config"] == "-PL"
    assert facts["scenario"] == "braking"
    assert facts["collided"] is False
    assert set(facts["min_gap"]) == {"1", "2"}
    assert set(facts["peak_abs_accel"]) == {"1", "2"}
    assert facts["window"][0] < facts["window"][1]


def test_an_interrupted_single_leaves_no_partial_trace(tmp_path, monkeypatch):
    """A run stopped while its trace streams out leaves no trace file."""
    def two_chunks_then_stop(self, header_comment=None):
        yield f"# {header_comment}\n"
        yield CSV_COLUMNS + "\n"
        raise KeyboardInterrupt

    monkeypatch.setattr(Trace, "rows_csv_chunks", two_chunks_then_stop)
    with pytest.raises(KeyboardInterrupt):
        main(["--out", str(tmp_path), "single", "--", "-PLG"])
    assert list((tmp_path / "single_run").iterdir()) == []


def test_single_reports_the_rows_it_wrote(tmp_path, capsys):
    """The printed row count is the file's data lines: one per tick and
    vehicle, after the hash comment and the column header."""
    assert main(["--out", str(tmp_path), "single", "--", "-PL"]) == EXIT_OK
    path = tmp_path / "single_run" / "-PL_sinusoidal.csv"
    rows = len(path.read_text().splitlines()) - 2
    assert rows == 3 * 1001
    assert capsys.readouterr().out == f"wrote {path} ({rows} rows)\n"


def test_single_spec_hash_follows_the_control_period(tmp_path, capsys):
    hashes = set()
    for dt in ("0.1", "0.2"):
        assert main(["--out", str(tmp_path / dt), "single", "--control-dt", dt,
                     "--", "-PL"]) == EXIT_OK
        facts = tmp_path / dt / "single_run" / "-PL_sinusoidal.json"
        hashes.add(json.loads(facts.read_text())["spec_hash"])
    assert len(hashes) == 2


def test_single_collision_sets_exit_code(tmp_path, capsys):
    """A parameter file that shrinks the constant-gap target until the
    platoon crashes must surface as the collision exit code."""
    params = tmp_path / "tight.ini"
    params.write_text("[path]\ndd = 0.6\n")
    code = main(["--params", str(params), "--out", str(tmp_path),
                 "single", "--scenario", "braking", "--", "-PP"])
    assert code == EXIT_COLLISION
    assert "collision" in capsys.readouterr().out

    facts = json.loads(
        (tmp_path / "single_run" / "-PP_braking.json").read_text())
    assert facts["collided"] is True
    assert "window" not in facts
    assert "min_gap" not in facts


def test_sweep_single_with_a_colliding_reference_is_a_config_error(tmp_path, capsys):
    """Parameters under which a homogeneous reference crashes leave nothing
    to score the mixes against."""
    params = tmp_path / "tight.ini"
    params.write_text("[path]\ndd = 0.6\n")
    code = main(["--params", str(params), "--out", str(tmp_path),
                 "sweep-single", "-n", "2", "--scenario", "braking"])
    assert code == EXIT_CONFIG
    assert "reference platoon collided" in capsys.readouterr().err


def test_single_leaderless_config_is_a_config_error(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "single", "--", "PPP"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_params_file_is_a_config_error(tmp_path, capsys):
    params = tmp_path / "broken.ini"
    params.write_text("powertrain lag = not even a section\n")
    code = main(["--params", str(params), "--out", str(tmp_path),
                 "single", "--", "-PP"])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "single_run").exists()


@pytest.mark.parametrize("params,names", [
    ("[dynamics]\npowertrain lag = 0.004\n", ("powertrain lag", "shorter than the step dt")),
    ("[ploeg]\nH = 0.004\n", ("[ploeg] H", "[dynamics] dt")),
    ("[gsbl]\nr_min = 9\n", ("r_min", "r_max")),
], ids=["powertrain-lag-below-the-step", "ploeg-headway-below-the-step",
        "gsbl-r-min-above-r-max"])
def test_cross_field_rules_are_config_errors(tmp_path, capsys, params, names):
    """A lag or a Ploeg headway shorter than the 0.01 s step would make the
    lag update or the Ploeg filter overshoot its command: the lag used to
    run to a peak |a| of 1,884 m/s^2, the headway to a NaN command."""
    path = tmp_path / "cross.ini"
    path.write_text(params)
    code = main(["--params", str(path), "--out", str(tmp_path),
                 "single", "--scenario", "braking", "--", "-LLL"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not (tmp_path / "single_run").exists()


def test_unknown_params_key_is_a_config_error(tmp_path, capsys):
    params = tmp_path / "typo.ini"
    params.write_text("[acc]\nlam = 2.0\n")
    code = main(["--params", str(params), "--out", str(tmp_path),
                 "single", "--", "-PP"])
    assert code == EXIT_CONFIG
    assert "'lam'" in capsys.readouterr().err
    assert not (tmp_path / "single_run").exists()


@pytest.mark.parametrize("argv", [
    ["sweep-single", "-n", "1"],
    ["single", "--scenario", "braking", "--duration", "20", "--", "-PP"],
    ["single", "--scenario", "sinusoidal", "--duration", "20", "--", "-PP"],
    ["single", "--scenario", "braking", "--duration", "30.05", "--", "-PP"],
    ["single", "--scenario", "sinusoidal", "--duration", "35", "--", "-PP"],
    ["ring", "--density", "5", "--duration", "-200"],
    ["ring", "--density", "5", "--duration", "20", "--warmup", "-50"],
    ["sweep-ring", "--duration", "-5", "--density", "10", "--repetitions", "1"],
    ["single", "--control-dt", "0", "--", "-PP"],
    ["single", "--control-dt", "-0.1", "--", "-PP"],
    ["single", "--control-dt", "inf", "--", "-PP"],
    ["sweep-ring", "--repetitions", "-1"],
    ["ring", "--density", "5", "--duration", "10", "--warmup", "0", "--seed", "-1"],
    ["sweep-ring", "--density", "10", "--repetitions", "1", "--seed", "-1", "--dry-run"],
    ["sweep-single", "-n", "3", "--seed", "-1"],
    ["ring", "--density", "5", "--duration", "inf"],
    ["ring", "--density", "5", "--warmup", "nan"],
    ["ring", "--density", "nan"],
    ["single", "--duration", "nan", "--", "-PL"],
    ["single", "--duration", "inf", "--", "-PL"],
    ["sweep-single", "-n", "3", "--duration", "nan"],
    ["sweep-single", "-n", "3", "--duration", "inf"],
    ["sweep-ring", "--duration", "nan", "--repetitions", "1", "--density", "10"],
    ["sweep-single", "-n", "3", "--jobs", "0"],
    ["sweep-single", "-n", "3", "--jobs", "-2"],
    ["sweep-ring", "--jobs", "0", "--density", "10", "--repetitions", "1",
     "--duration", "5", "--warmup", "0"],
    ["ring", "--density", "1e9", "--duration", "5", "--warmup", "0"],
    ["ring", "--density", "10", "--duration", "0.05", "--warmup", "0"],
    ["ring", "--density", "10", "--duration", "0.26", "--warmup", "0.05"],
    ["sweep-ring", "--density", "10", "--repetitions", "1", "--duration", "2",
     "--warmup", "0.05"],
    ["ring", "--density", "10", "--platoon-size", "0", "--penetration", "0",
     "--duration", "1", "--warmup", "0"],
    ["single", "--scenario", "braking", "--duration", "60.26", "--", "-PL"],
    ["single", "--control-dt", "0.3", "--", "-PL"],
    ["sweep-single", "-n", "3", "--duration", "100.05"],
    ["single", "--duration", "1e300", "--", "-PL"],
    ["single", "--control-dt", "1e-9", "--scenario", "braking", "--", "-PL"],
    ["single", "--control-dt", "nan", "--", "-PL"],
], ids=["platoon-of-one", "braking-ends-before-onset", "sinusoidal-ends-in-warmup",
        "braking-ends-before-onset-is-recorded", "sinusoidal-ends-in-window",
        "ring-ends-before-it-starts", "ring-warmup-negative", "ring-sweep-ends-before-it-starts",
        "control-period-zero", "control-period-negative", "control-period-infinite",
        "ring-sweep-negative-repetitions", "ring-seed-negative", "ring-sweep-seed-negative",
        "sweep-single-seed-negative",
        "ring-duration-infinite", "ring-warmup-nan", "ring-density-nan", "single-duration-nan",
        "single-duration-infinite", "sweep-single-duration-nan",
        "sweep-single-duration-infinite", "ring-sweep-duration-nan",
        "sweep-single-no-jobs", "sweep-single-negative-jobs", "ring-sweep-no-jobs",
        "ring-beyond-bumper-to-bumper", "ring-shorter-than-a-tick",
        "ring-ends-between-ticks", "ring-sweep-warmup-between-ticks",
        "ring-platoon-of-none", "single-ends-between-ticks", "single-default-between-ticks",
        "sweep-single-ends-between-ticks", "single-beyond-the-span-bound",
        "control-period-below-the-step", "control-period-nan"])
def test_unusable_run_settings_are_config_errors(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path)] + argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("params,argv,name", [
    ("[acc]\nH = nan\n", ["ring", "--density", "5", "--duration", "10", "--warmup", "0"],
     "[acc] H"),
    ("[dynamics]\ndt = nan\n", ["single", "--", "-PL"], "[dynamics] dt"),
], ids=["acc-headway-nan", "dynamics-step-nan"])
def test_non_finite_params_are_config_errors(tmp_path, capsys, params, argv, name):
    """No domain holds NaN or an infinity."""
    path = tmp_path / "nan.ini"
    path.write_text(params)
    assert main(["--params", str(path), "--out", str(tmp_path), *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {name} must be positive, got nan")
    assert not (tmp_path / "ring_run").exists() and not (tmp_path / "single_run").exists()


PROBE_RING = ["ring", "--density", "20", "--baseline", "IDM", "--penetration", "0.5",
              "--policy", "MIX", "--duration", "5", "--warmup", "0"]


@pytest.mark.parametrize("section,key,value", [
    ("idm", "T", "0"),
    ("acc", "lambda", "-1"),
    ("ploeg", "kp", "-5"),
    ("idm", "T", "-1"),
    ("idm", "s0", "-5"),
    ("gsbl", "r", "-1"),
    ("gsbl", "k", "-1"),
    ("path", "dd", "-1"),
])
def test_params_outside_their_domain_are_config_errors(tmp_path, capsys, section, key, value):
    """Before the key domains, ``[idm] T = 0`` failed the spawn with a
    ZeroDivisionError (exit 1), ``lambda``, ``k`` and ``dd`` ran into a
    collision (exit 3) and the others ran to exit 0."""
    path = tmp_path / "domain.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--params", str(path), "--out", str(out), *PROBE_RING]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: [{section}] {key} must be ")
    assert not any(out.iterdir())


@pytest.mark.parametrize("params", ["[idm]\nb_comf = -1\n", "[idm]\na_max = 0\n"],
                         ids=["idm-braking-negative", "idm-acceleration-zero"])
def test_unusable_idm_params_are_config_errors(tmp_path, capsys, params):
    """IDM gains that are not positive fail on load; they used to reach
    ``idm_accel`` and end in a math domain error or a NaN command."""
    path = tmp_path / "idm.ini"
    path.write_text(params)
    argv = ["ring", "--density", "20", "--baseline", "IDM", "--duration", "1", "--warmup", "0"]
    assert main(["--params", str(path), "--out", str(tmp_path), *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "ring_run").exists()


@pytest.mark.parametrize("mobility", [
    "platoon sizes = 1, 4",
    "penetration rates = 0.5, 1.5",
    "counter window = 0",
    "counter window = -15",
    "volatility sample dt = -1",
    "volatility sample dt = 0.26",
    "volatility sample dt = inf",
    "counter window = 0.05",
    "platoon sizes = 4.7",
    "speed jitter = -5",
    "desired speeds = 3, 3, 3",
], ids=["platoon-of-one", "penetration-above-one", "counter-window-zero",
        "counter-window-negative", "volatility-sample-negative",
        "volatility-sample-between-ticks", "volatility-sample-infinite",
        "counter-window-between-ticks", "platoon-size-not-integral",
        "speed-jitter-negative", "desired-speed-within-jitter"])
def test_unusable_ring_grid_settings_are_config_errors(tmp_path, capsys, mobility):
    """A grid value that only platoon cells use, a counter or sampling
    window that is not a positive whole number of control periods, or a
    desired speed that the jitter can bring to zero, fails before any run or
    file, and a dry run rejects it too."""
    params = tmp_path / "grid.ini"
    params.write_text(f"[mobility]\n{mobility}\n")
    run = ["--density", "10", "--repetitions", "1", "--duration", "2", "--warmup", "0"]
    for extra in ([], ["--dry-run"]):
        code = main(["--params", str(params), "--out", str(tmp_path), "sweep-ring", *run, *extra])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "ring").exists()


def test_ring_step_mismatch_is_a_config_error(tmp_path, capsys):
    params = tmp_path / "dt.ini"
    params.write_text("[dynamics]\ndt = 0.03\n")
    code = main(["--params", str(params), "--out", str(tmp_path),
                 "ring", "--density", "5", "--duration", "30", "--warmup", "15"])
    assert code == EXIT_CONFIG
    assert "multiple of the dynamics dt" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda: parse_config("-PX"),
    lambda: SingleScenario(kind="slalom", config="-PP"),
    lambda: RingSpec(density=10, platoon_size=0),
    lambda: load_config("[acc]\nH = 0\n"),
], ids=["composition", "scenario", "ring-spec", "ini-text"])
def test_every_configuration_error_is_exactly_a_usage_error(make):
    with pytest.raises(UsageError) as info:
        make()
    assert type(info.value) is UsageError


def test_usage_error_is_the_only_configuration_error_class():
    """The package defines one exception for bad configuration and one for
    an undefined score; a new class would split the exit-2 decision again."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", "")).endswith(("Error", "Exception"))
                    for base in node.bases):
                found.add(node.name)
    assert found == {"UsageError", "MetricsError"}


def test_internal_value_error_is_not_reported_as_bad_configuration(tmp_path, monkeypatch):
    def broken_run(*args, **kwargs):
        raise ValueError("non-finite control input: nan")

    monkeypatch.setattr(cli, "run_single_platoon", broken_run)
    with pytest.raises(ValueError, match="non-finite control input"):
        main(["--out", str(tmp_path), "single", "--", "-PP"])


def test_ring_run_writes_counters_and_metrics(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "ring", "--density", "5",
                 "--duration", "30", "--warmup", "15", "--seed", "2",
                 "--full-trace"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "50 vehicles" in out
    assert "throughput" in out

    stem = tmp_path / "ring_run" / "seed2"
    counters = (stem.parent / "seed2_counters.csv").read_text().splitlines()
    assert counters[0] == "t,device,veh,lane"
    payload = json.loads(stem.with_suffix(".json").read_text())
    assert payload["n_vehicles"] == 50
    assert payload["spec_hash"] == "f0820bedf3916c3e"   # the hash payload is pinned
    assert payload["throughput"] > 0.0
    trace_head = (stem.parent / "seed2_trace.csv").read_text().splitlines()[0]
    assert trace_head.startswith("# spec_hash=")


def test_streamed_csv_files_equal_the_joined_writers(tmp_path, capsys):
    """The CLI writes its trace and counter CSVs chunk by chunk; the files
    hold exactly the text that ``rows_csv`` and ``counters_csv`` return."""
    assert main(["--out", str(tmp_path), "single", "--scenario", "braking",
                 "--", "-PG"]) == EXIT_OK
    stem = tmp_path / "single_run" / "-PG_braking"
    h = json.loads(stem.with_suffix(".json").read_text())["spec_hash"]
    trace = run_single_platoon(scenario_for("braking", "-PG", None, CONTROL_DT))
    assert stem.with_suffix(".csv").read_text() == trace.rows_csv(header_comment=f"spec_hash={h}")

    assert main(["--out", str(tmp_path), "ring", "--density", "20", "--duration", "10",
                 "--warmup", "2", "--seed", "1", "--full-trace"]) == EXIT_OK
    capsys.readouterr()
    stem = tmp_path / "ring_run" / "seed1"
    h = json.loads(stem.with_suffix(".json").read_text())["spec_hash"]
    ring = run_ring(ring_spec(Config().mobility, 10.0, 2.0, density=20.0, penetration=0.0,
                              platoon_size=8, platoon_policy="P", baseline="ACC", seed=1,
                              record_full_trace=True))
    counters = (stem.parent / "seed1_counters.csv").read_text()
    assert counters == ring.counters_csv()
    assert counters.count("\n") > 1
    full = (stem.parent / "seed1_trace.csv").read_text()
    assert full == ring.full.rows_csv(header_comment=f"spec_hash={h}")


def test_ring_collision_sets_exit_code(tmp_path, capsys):
    """This dense mixed ring collides at 127.7 s, before its last tick."""
    code = main(["--out", str(tmp_path), "ring", "--density", "160", "--penetration", "0.5",
                 "--policy", "MIX", "--seed", "4", "--warmup", "30", "--duration", "120"])
    assert code == EXIT_COLLISION
    assert "run terminated by collision" in capsys.readouterr().out
    assert json.loads((tmp_path / "ring_run" / "seed4.json").read_text())["collided"] is True


def test_sweep_single_then_report(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "sweep-single", "-n", "2",
                 "--scenario", "braking"])
    assert code == EXIT_OK
    assert "3 mixed + 4 baseline reports" in capsys.readouterr().out

    assert main(["--out", str(tmp_path), "report"]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "single" / "table.txt").exists()


def test_report_without_sweep_output_fails(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "report"]) == EXIT_CONFIG
    assert "no sweep output" in capsys.readouterr().err


def test_sweep_ring_dry_run_lists_the_grid(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sweep-ring", "--dry-run"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "380 cells, 3800 runs"
    assert len(lines) == 1 + 380
    assert "d10-ACC" in lines


def test_sweep_ring_reports_partial_failure(tmp_path, capsys):
    """A density beyond the geometric packing limit fails every spawn, and
    serial and parallel sweeps report the failures alike."""
    failed = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main(["--out", str(out), "sweep-ring", "--density", "500",
                     "--repetitions", "1", "--jobs", jobs])
        assert code == EXIT_PARTIAL
        assert "runs failed" in capsys.readouterr().out
        summary = json.loads((out / "ring" / "summary.json").read_text())
        assert len(summary["failed"]) == summary["cell_count"] == 38
        failed[jobs] = summary["failed"]
    assert failed["2"] == failed["1"]


def test_sweep_single_with_a_failing_reference_is_a_config_error(tmp_path, capsys, poison):
    """A reference row that fails to simulate leaves nothing to score the
    mixes against, like one that collides."""
    poison("-LL")
    code = main(["--out", str(tmp_path), "sweep-single", "-n", "3", "--scenario", "braking"])
    assert code == EXIT_CONFIG
    assert "homogeneous L reference platoon failed" in capsys.readouterr().err


def test_sweep_ring_writes_its_summary(tmp_path, capsys):
    params = tmp_path / "small.ini"
    params.write_text("[mobility]\ncircumference = 2000\nplatoon sizes = 4\n"
                      "penetration rates = 0.5\n")
    code = main(["--params", str(params), "--out", str(tmp_path), "sweep-ring",
                 "--density", "20", "--repetitions", "1", "--duration", "20", "--warmup", "0"])
    assert code == EXIT_OK
    assert "6 cells x 1 reps" in capsys.readouterr().out
    summary = json.loads((tmp_path / "ring" / "summary.json").read_text())
    assert sorted(summary["cells"]) == sorted(["d20-ACC", "d20-IDM", *(
        f"d20-{pol}-N4-R0.5" for pol in ("P", "L", "G", "MIX"))])
    assert summary["failed"] == []


def test_sweep_single_with_a_failing_config_exits_partial(tmp_path, capsys, poisoned_config):
    code = main(["--out", str(tmp_path), "sweep-single", "-n", "3",
                 "--scenario", "braking", "--jobs", "2"])
    assert code == EXIT_PARTIAL
    assert "1 runs failed" in capsys.readouterr().out
    summary = json.loads((tmp_path / "single" / "summary.json").read_text())
    assert [f["config"] for f in summary["failed"]] == [poisoned_config]


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats dominates import time; only the ring summary needs it."""
    import mixcacc

    src = os.path.dirname(os.path.dirname(mixcacc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, mixcacc.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
