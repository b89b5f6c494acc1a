"""End-to-end checks of the command line front end.

Everything goes through ``main(argv)`` so the tests cover argument wiring,
exit codes and the files left on disk.  Configuration strings start with a
dash, so they are passed after a ``--`` separator exactly as a user would.
"""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixcacc import cli, experiments
from mixcacc.config import Config, UsageError, load_config
from mixcacc.experiments import MAX_JOBS, ring_spec, scenario_for
from mixcacc.metrics import peak_abs_accel
from mixcacc.ring import RingSpec, run_ring
from mixcacc.scenarios import (BRAKING, CONTROL_DT, SINUSOIDAL, SingleScenario, Trace,
                               run_single_platoon)
from mixcacc.cli import (
    EXIT_COLLISION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
)
from mixcacc.topology import (
    MAX_PLATOON,
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


def test_braking_head_that_never_reaches_the_onset_has_no_window(tmp_path, capsys):
    """A spring-damper head follows its own law, not the braking profile, so
    it may never command the onset: the run writes its three files with a
    null window and no metrics.  It used to exit 1 after two of them."""
    code = main(["--out", str(tmp_path), "single", "--scenario", "braking", "--", "GGLP"])
    assert code == EXIT_OK
    assert "never commanded the braking onset" in capsys.readouterr().out
    stem = tmp_path / "single_run" / "GGLP_braking"
    facts = json.loads(stem.with_suffix(".json").read_text())
    assert facts["window"] is None and facts["collided"] is False
    assert "min_gap" not in facts and "peak_abs_accel" not in facts
    assert (stem.parent / "GGLP_braking_events.csv").exists()
    assert stem.with_suffix(".csv").exists()


@pytest.mark.parametrize("argv,below", [
    (["single", "--", "-PP"], ""),
    (["sweep-single", "-n", "3"], ""),
    (["single", "--", "-PP"], "sub"),
    (["sweep-single", "-n", "3"], "sub"),
], ids=["single", "sweep-single", "single-below-it", "sweep-single-below-it"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, argv, below):
    """An ``--out`` that is a file, or lies below one, is rejected before
    any run and names the file; ``single`` used to run the whole simulation
    and then exit 1."""
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    out = afile / below if below else afile
    assert main(["--out", str(out), *argv]) == EXIT_CONFIG
    named = f"{out}: {afile}" if below else out
    assert f"--out {named} exists and is not a folder" in capsys.readouterr().err
    assert afile.read_text() == "keep me\n"
    assert list(tmp_path.iterdir()) == [afile]


def test_single_braking_peaks_are_the_peaks_delta_a_compares(tmp_path):
    """``single`` leaves out the ticks below the speed floor, as the sweeps'
    delta_a does: follower 4 of -PGPG crawls below 5 km/h inside its window,
    where its peak was once 8.991842."""
    code = main(["--out", str(tmp_path), "single", "--scenario", "braking", "--", "-PGPG"])
    assert code == EXIT_OK
    facts = json.loads((tmp_path / "single_run" / "-PGPG_braking.json").read_text())
    trace = run_single_platoon(SingleScenario(kind=BRAKING, config="-PGPG"))
    peaks = peak_abs_accel(trace.scores).tolist()
    assert facts["peak_abs_accel"] == {str(i): round(x, 6) for i, x in enumerate(peaks, 1)}
    assert facts["peak_abs_accel"]["4"] == 8.990016


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


@pytest.mark.parametrize("make,named", [
    (lambda p: p.write_text("powertrain lag = not even a section\n"), False),
    (lambda p: None, True),
    (lambda p: p.mkdir(), True),
    (lambda p: p.write_bytes(b"\xff\xfe[\x00a\x00c\x00c\x00]\x00"), True),
], ids=["not-ini", "missing", "directory", "not-utf8"])
def test_malformed_params_file_is_a_config_error(tmp_path, capsys, make, named):
    """A parameter file that cannot be parsed is a configuration error, and
    one that cannot be found, opened or decoded is named in it."""
    params = tmp_path / "params.ini"
    make(params)
    out = tmp_path / "out"
    code = main(["--params", str(params), "--out", str(out), "single", "--", "-PP"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert (f"cannot read parameter file {params}" in err) == named, err
    assert not out.exists()


@pytest.mark.parametrize("params,names", [
    ("[dynamics]\npowertrain lag = 0.004\n", ("powertrain lag", "shorter than the step dt")),
    ("[ploeg]\nH = 0.004\n", ("[ploeg] H", "[dynamics] dt")),
    ("[gsbl]\nr_min = 9\n", ("r_min", "r_max")),
    ("[dynamics]\nu_min = -7.19\n", ("u_min", "-7.2")),
], ids=["powertrain-lag-below-the-step", "ploeg-headway-below-the-step",
        "gsbl-r-min-above-r-max", "braking-head-floor-above-the-onset"])
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
    ["sweep-ring", "--density", "0.05", "--repetitions", "1", "--duration", "2",
     "--warmup", "0"],
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
        "control-period-below-the-step", "control-period-nan",
        "ring-sweep-below-one-car"])
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


IDM_RING = ["ring", "--baseline", "IDM", "--density", "10", "--duration", "5", "--warmup", "0"]


@pytest.mark.parametrize("params,argv", [
    ("[idm]\nT = 1e300\n", IDM_RING),
    ("[idm]\ndelta = 1e9\n", IDM_RING),
    *((params, ["single", "--scenario", kind, "--", "-PLGA"])
      for params in ("[acc]\nlambda = 1e308\n", "[ploeg]\nkp = 1e308\n", "[gsbl]\nh = 1e308\n")
      for kind in (SINUSOIDAL, BRAKING)),
], ids=["idm-T", "idm-delta", *(f"{name}-{kind}" for name in ("acc-lambda", "ploeg-kp", "gsbl-h")
                                for kind in (SINUSOIDAL, BRAKING))])
def test_non_finite_command_is_a_failed_run(tmp_path, capsys, params, argv):
    """In-domain values that overflow a law fail the run as a sweep counts
    it: exit 4, not 1 with a traceback, and nothing written."""
    path = tmp_path / "huge.ini"
    path.write_text(params)
    out = tmp_path / "out"
    assert main(["--params", str(path), "--out", str(out), *argv]) == EXIT_PARTIAL
    assert capsys.readouterr().err.startswith("error: run failed: non-finite control input: ")
    assert not out.exists()


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


SMALL_RING_SWEEP = ["sweep-ring", "--density", "10", "--repetitions", "1", "--duration", "2",
                    "--warmup", "0"]


@pytest.mark.parametrize("argv", [
    ["ring", "--density", "5", "--duration", "30", "--warmup", "15"],
    ["single", "--", "-PP"],
    ["sweep-single", "-n", "3"],
    SMALL_RING_SWEEP,
    [*SMALL_RING_SWEEP, "--dry-run"],
], ids=["ring", "single", "sweep-single", "sweep-ring", "sweep-ring-dry-run"])
def test_ring_step_mismatch_is_a_config_error(tmp_path, capsys, argv):
    """A control period that is not a whole number of dynamics steps fails
    every command before any run or folder: ``sweep-single`` used to leave
    its empty folders, and ``sweep-ring`` ran all of its runs to fail each."""
    params = tmp_path / "dt.ini"
    params.write_text("[dynamics]\ndt = 0.03\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--params", str(params), "--out", str(out), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "multiple of the dynamics dt" in err
    assert "[dynamics] dt = 0.03" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("params,argv,message", [
    ("[dynamics]\ndt = 1e-9\n", ["ring", "--density", "10", "--penetration", "0.5",
                                  "--policy", "L", "--duration", "10", "--warmup", "0"],
     "100000000 dynamics steps"),
    ("[dynamics]\ndt = 1e-9\n", ["single", "--", "-PP"], "100000000 dynamics steps"),
    ("[dynamics]\ndt = 1e-9\n", SMALL_RING_SWEEP, "100000000 dynamics steps"),
    ("[mobility]\ncircumference = 1e300\n",
     ["ring", "--density", "10", "--duration", "10", "--warmup", "0"], "1e+298 cars"),
    ("[mobility]\ncircumference = 1e9\n",
     ["ring", "--density", "10", "--duration", "10", "--warmup", "0"], "1e+07 cars"),
    ("[path]\nxi = 1e300\n", ["single", "--", "-PP"], "[path] xi and omega_n"),
    ("[path]\nomega_n = 1e200\n", ["single", "--", "-PP"], "[path] xi and omega_n"),
    ("[mobility]\nplatoon sizes = 4, 1001\n", SMALL_RING_SWEEP, "2 to 1000 vehicles"),
], ids=["ring-substeps", "single-substeps", "sweep-ring-substeps", "ring-cars-1e300",
        "ring-cars-1e9", "path-xi-1e300", "path-omega-n-1e200", "sweep-ring-platoon-size"])
def test_params_beyond_the_run_bounds_are_config_errors(tmp_path, capsys, params, argv,
                                                        message):
    """Values inside their domains that a run cannot hold: a dynamics step
    that makes 1e8 substeps a control period (the ring once tried to
    allocate 31.3 GiB, and a single ran on past 20 s), a road with more
    cars than a ring may hold (1e300 m failed the spawn with exit 1),
    PATH gains that overflow (a single ended in a NaN command, exit 1),
    and a grid platoon above the platoon bound."""
    path = tmp_path / "bound.ini"
    path.write_text(params)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--params", str(path), "--out", str(out), *argv]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["single", "--", "-" + "P" * MAX_PLATOON],
    ["single", "--", "-" + "P" * 60_000],
    ["matrix", "--", "-" + "P" * MAX_PLATOON],
    ["sweep-single", "-n", str(MAX_PLATOON + 1)],
    ["ring", "--density", "10", "--penetration", "0.5", "--platoon-size", str(MAX_PLATOON + 1),
     "--duration", "10", "--warmup", "0"],
], ids=["single", "single-60001", "matrix", "sweep-single", "ring"])
def test_platoons_above_the_bound_are_config_errors(tmp_path, capsys, argv):
    """A platoon's record grows with its size: a 60,001-car single once
    failed to allocate 458 MiB under a 1.5 GB address-space cap (exit 1).
    Above the bound, every command exits 2 naming it, before any file."""
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--out", str(out), *argv]) == EXIT_CONFIG
    assert f"2 to {MAX_PLATOON} vehicles, got " in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv,jobs", [
    (["sweep-single", "-n", "3"], MAX_JOBS + 1),
    (SMALL_RING_SWEEP, MAX_JOBS + 1),
    ([*SMALL_RING_SWEEP, "--dry-run"], MAX_JOBS + 1),
    ([*SMALL_RING_SWEEP, "--dry-run"], 0),
], ids=["sweep-single", "sweep-ring", "sweep-ring-dry-run", "sweep-ring-dry-run-0"])
def test_jobs_above_the_bound_start_nothing(tmp_path, capsys, monkeypatch, argv, jobs):
    """A worker count out of bounds is rejected before anything starts, is
    listed or is written, a dry run's listing included."""
    def no_pool(*args, **kwargs):
        raise AssertionError("no worker may start")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv, "--jobs", str(jobs)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"jobs must be 1 to {MAX_JOBS}, got {jobs}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["single", "--", "-PP"],
    ["ring", "--density", "10"],
    ["sweep-single", "-n", "2"],
    ["sweep-ring", "--dry-run"],
    ["matrix", "--", "-PL"],
    ["report"],
], ids=["single", "ring", "sweep-single", "sweep-ring", "matrix", "report"])
def test_unreadable_params_exit_2_in_every_command(tmp_path, capsys, argv):
    """``main`` reads ``--params`` once, before any command runs."""
    missing = tmp_path / "nope.ini"
    out = tmp_path / "out"
    assert main(["--params", str(missing), "--out", str(out), *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot read parameter file {missing}: ")
    assert not out.exists()


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
    """The package defines one exception for bad configuration, one for a
    failed run and one for an undefined score; a new class would split the
    exit-2 or exit-4 decision again."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", "")).endswith(("Error", "Exception"))
                    for base in node.bases):
                found.add(node.name)
    assert found == {"UsageError", "MetricsError", "RunError"}


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
    printed = capsys.readouterr().out
    assert "reports: 3 mixed + 4 baseline" in printed

    assert main(["--out", str(tmp_path), "report"]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "single" / "table.txt").read_text() == printed


def test_report_without_sweep_output_fails(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "report"]) == EXIT_CONFIG
    assert "no sweep output" in capsys.readouterr().err


@pytest.mark.parametrize("summaries,named", [
    ({"single": "{not json"}, "single"),
    ({"ring": '{"spec_hash": "x"}'}, "ring"),
    ({"single": json.dumps({"n": 2, "scenarios": {}, "failed": []}),
      "ring": '{"spec_hash": "x", "cells": NaN}'}, "ring"),
], ids=["single-not-json", "ring-without-cells", "ring-not-strict-beside-valid-single"])
def test_report_on_a_malformed_summary_is_a_config_error(tmp_path, capsys, summaries, named):
    """A summary that is not strict JSON, or lacks a field its table needs,
    exits 2 naming the file (it used to exit 1 with a traceback), and no
    table is written, not even from a valid summary beside it."""
    for sweep, text in summaries.items():
        (tmp_path / sweep).mkdir()
        (tmp_path / sweep / "summary.json").write_text(text)
    assert main(["--out", str(tmp_path), "report"]) == EXIT_CONFIG
    assert str(tmp_path / named / "summary.json") in capsys.readouterr().err
    assert list(tmp_path.rglob("table.txt")) == []


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
        assert [p.name for p in (out / "ring").iterdir()] == ["summary.json"]
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


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this package."""
    import mixcacc

    src = os.path.dirname(os.path.dirname(mixcacc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats dominates import time; only the ring summary needs it."""
    code = "import sys, mixcacc.cli; sys.exit('scipy.stats' in sys.modules)"
    assert _fresh_python(code).returncode == 0


def test_platoon_runs_leave_unused_modules_unloaded(tmp_path):
    """Importing the command line loads neither ``multiprocessing`` (only a
    pool needs it) nor ``configparser`` (only a parameter file does); a
    serial sweep and a platoon run then load neither it nor ``numpy.ma``,
    which ``np.unique`` would import.  A parameter file still parses."""
    params = tmp_path / "params.ini"
    params.write_text("[acc]\nlambda = 0.2\n")
    code = f"""
import json, sys
watched = ("multiprocessing", "configparser", "numpy.ma")
loaded = lambda: [name for name in watched if name in sys.modules]
import mixcacc.cli
after_import = loaded()
from mixcacc.config import load_config_file
from mixcacc.experiments import sweep_single
from mixcacc.scenarios import BRAKING, SINUSOIDAL, SingleScenario, run_single_platoon
sweep_single(3, {str(tmp_path / "out")!r})
for kind in (SINUSOIDAL, BRAKING):
    run_single_platoon(SingleScenario(kind=kind, config="-PLG"))
after_runs = loaded()
lam = load_config_file({str(params)!r}).controllers.acc.lam
print(json.dumps([after_import, after_runs, lam]))
"""
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[], [], 0.2]
