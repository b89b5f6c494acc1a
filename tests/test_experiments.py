"""Sweep drivers: config enumeration, seeding, caching, report files."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mixcacc import experiments
from mixcacc.config import Config, MobilitySpec, spec_hash
from mixcacc.controllers import ControllerSet
from mixcacc.experiments import (
    BASELINE_LETTERS,
    baseline_configs,
    confidence_halfwidth,
    configs_for_sweep,
    emit_reports,
    mixed_configs,
    ring_cells,
    ring_run_metrics,
    ring_spec,
    run_seed,
    sampled_configs,
    scenario_for,
    sweep_ring,
    sweep_single,
)
from mixcacc.ring import RingSpec
from mixcacc.scenarios import BRAKING, SINUSOIDAL
from mixcacc.topology import MAX_PLATOON


def _strict_json(text):
    """Parse ``text`` with a decoder that rejects NaN and Infinity."""
    def reject(name):
        raise ValueError(f"{name} in a result file")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# Config enumeration
# ---------------------------------------------------------------------------

def test_mixed_configs_enumerates_lexicographically():
    cfgs = mixed_configs(4)
    assert len(cfgs) == 27
    assert cfgs[0] == "-GGG"
    assert cfgs[-1] == "-PPP"
    assert cfgs == sorted(cfgs)
    assert len(set(cfgs)) == 27
    assert all(c[0] == "-" and len(c) == 4 for c in cfgs)
    assert all(set(c[1:]) <= set("GLP") for c in cfgs)


def test_mixed_configs_two_vehicle():
    assert mixed_configs(2) == ["-G", "-L", "-P"]


def test_baseline_configs_cover_all_four_laws():
    assert baseline_configs(4) == ["-AAA", "-GGG", "-LLL", "-PPP"]
    assert baseline_configs(2) == ["-A", "-G", "-L", "-P"]


def test_sampled_configs_distinct_and_reproducible():
    a = sampled_configs(16, seed=5)
    b = sampled_configs(16, seed=5)
    c = sampled_configs(16, seed=6)
    assert a == b
    assert a != c
    assert len(set(a)) == len(a) == experiments.SAMPLED_CONFIG_COUNT
    assert all(len(s) == 16 and s[0] == "-" for s in a)
    assert all(set(s[1:]) <= set("GLP") for s in a)


def test_configs_for_sweep_switches_to_sampling_for_long_platoons():
    """Small platoons are enumerated in full, large ones are sampled."""
    assert configs_for_sweep(4) == mixed_configs(4)
    assert configs_for_sweep(8) == mixed_configs(8)
    big = configs_for_sweep(9, seed=2)
    assert len(big) == 1000
    assert len(set(big)) == 1000
    with pytest.raises(ValueError):
        configs_for_sweep(1)


# ---------------------------------------------------------------------------
# Ring grid bookkeeping
# ---------------------------------------------------------------------------

# one density, one platoon size and one penetration rate: six cells
TOY_GRID = Config(mobility=MobilitySpec(densities=(10.0,), platoon_sizes=(4,),
                                        penetration_rates=(0.5,)))


def test_ring_cells_full_grid_size_and_ids():
    cells = ring_cells(Config().mobility)
    # 10 densities x (2 baselines + 4 policies x 3 sizes x 3 rates)
    assert len(cells) == 380
    ids = list(cells)
    assert len(set(ids)) == 380
    assert ids[0] == "d10-ACC"
    assert ids[1] == "d10-IDM"
    assert "d10-P-N4-R0.25" in ids
    assert "d180-MIX-N16-R0.75" in ids


def test_ring_cells_custom_axes():
    cells = ring_cells(TOY_GRID.mobility)
    assert len(cells) == 2 + 4
    assert sum(1 for f in cells.values() if "baseline" in f) == 2


def test_ring_cells_map_onto_spec():
    cfg = Config()
    cells = ring_cells(cfg.mobility)
    base = ring_spec(cfg.mobility, seed=11, **cells["d60-IDM"])
    assert base.baseline == "IDM"
    assert base.penetration == 0.0
    assert base.duration == cfg.mobility.ring_duration
    assert base.warmup == cfg.mobility.ring_warmup
    plat = ring_spec(cfg.mobility, 60.0, 30.0, seed=11, **cells["d60-MIX-N8-R0.75"])
    assert plat.platoon_policy == "MIX"
    assert plat.platoon_size == 8
    assert plat.penetration == 0.75
    assert plat.duration == 60.0
    assert plat.seed == 11


def test_default_grid_specs_keep_their_fingerprint():
    """The spec of every run of the default grid, reps 0 and 1 of master
    seed 0, hashes as it did when cells were translated into specs."""
    mob = Config().mobility
    rows = [[cell, rep, dataclasses.asdict(ring_spec(mob, seed=run_seed(0, cell, rep), **f))]
            for cell, f in ring_cells(mob).items() for rep in (0, 1)]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert (len(rows), digest[:16]) == (760, "b0b7f88dc4d5d5ff")


def test_sweep_ring_dry_run_counts(tmp_path):
    out = sweep_ring(str(tmp_path), repetitions=10, dry_run=True)
    assert out["dry_run"] is True
    assert out["cell_count"] == 380
    assert out["run_count"] == 3800
    assert len(out["cells"]) == 380
    # a dry run must not create result directories
    assert not (tmp_path / "ring").exists()


def test_run_seed_is_stable_and_collision_free():
    cell = "d60-P-N4-R0.5"
    assert run_seed(0, cell, 1) == run_seed(0, cell, 1)
    seeds = {run_seed(0, c, rep) for c in list(ring_cells(Config().mobility))[:40]
             for rep in range(10)}
    assert len(seeds) == 400
    assert all(0 <= s < 2 ** 32 for s in seeds)
    assert run_seed(0, cell, 1) != run_seed(1, cell, 1)


def _fake_ring_batch(calls):
    """Stand-in for a batch of ring runs that records which runs it was
    asked for."""
    def batch(runs):
        out = {}
        for cell_id, rep, spec, _ in runs:
            calls.append((cell_id, rep))
            out[cell_id, rep] = ({"cell": cell_id, "rep": rep, "seed": spec.seed,
                                  "collided": False, "throughput": 1.0, "xi_median": 0.1}, None)
        return out
    return batch


def test_ring_seed_follows_the_cell_not_the_grid(tmp_path, monkeypatch):
    """A density subset and the full grid run a cell with the same seed."""
    monkeypatch.setattr(experiments, "_ring_batch", _fake_ring_batch([]))
    cell = "d60-P-N4-R0.5"
    seeds = {}
    for name, densities in (("subset", (60,)), ("full", None)):
        sweep_ring(str(tmp_path / name), repetitions=1, densities=densities)
        seeds[name] = json.loads(
            (tmp_path / name / "ring" / cell / "rep0.json").read_text())["seed"]
    assert seeds["subset"] == seeds["full"]
    assert seeds["full"] == run_seed(0, cell, 0)


def test_ring_results_of_an_older_engine_are_recomputed(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_ring_batch", _fake_ring_batch(calls))
    # the hash payload before it carried the engine version
    old = spec_hash(TOY_GRID, {"sweep": "ring", "duration": None, "warmup": None, "seed": 0})
    rep = tmp_path / "ring" / "d10-ACC" / "rep0.json"
    rep.parent.mkdir(parents=True)
    rep.write_text(json.dumps({"spec_hash": old, "cell": "d10-ACC", "rep": 0, "seed": 1,
                               "collided": False, "throughput": 2.0, "xi_median": 0.2}))
    summary = sweep_ring(str(tmp_path), TOY_GRID, repetitions=1)
    assert ("d10-ACC", 0) in calls
    assert json.loads(rep.read_text())["spec_hash"] == summary["spec_hash"] != old


def test_confidence_halfwidth_matches_student_t():
    hw = confidence_halfwidth([1.0, 2.0, 3.0])
    crit = stats.t.ppf(0.975, 2)
    assert hw == pytest.approx(crit / math.sqrt(3.0))
    assert hw == pytest.approx(2.484138, abs=1e-5)
    assert confidence_halfwidth([4.0, 4.0, 4.0]) == 0.0
    assert math.isnan(confidence_halfwidth([7.0]))
    assert math.isnan(confidence_halfwidth([]))


# ---------------------------------------------------------------------------
# Single-platoon sweep: reports on disk, caching, determinism
# ---------------------------------------------------------------------------

REPORT_KEYS = {
    "spec_hash", "role", "config", "scenario", "delta_a", "delta_a_vehicle",
    "delta_d", "delta_d_vehicle", "eta", "window", "collided",
}


@pytest.fixture(scope="module")
def single_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_single")
    summary = sweep_single(2, str(out), kinds=(BRAKING,), seed=0)
    return out, summary


def test_sweep_single_report_counts(single_sweep):
    out, summary = single_sweep
    info = summary["scenarios"][BRAKING]
    assert info["mixed_reports"] == 3
    assert info["baseline_reports"] == 4
    assert info["collisions"] == []
    mixed_dir = out / "single" / BRAKING / "mixed"
    base_dir = out / "single" / BRAKING / "baseline"
    assert sorted(p.name for p in mixed_dir.iterdir()) == [
        "-G.json", "-L.json", "-P.json"]
    assert sorted(p.name for p in base_dir.iterdir()) == [
        "-A.json", "-G.json", "-L.json", "-P.json"]
    assert (out / "single" / "summary.json").exists()


def test_sweep_single_report_schema(single_sweep):
    out, summary = single_sweep
    info = summary["scenarios"][BRAKING]
    for role in ("mixed", "baseline"):
        for path in (out / "single" / BRAKING / role).iterdir():
            payload = json.loads(path.read_text())
            assert set(payload) == REPORT_KEYS
            assert payload["role"] == role
            assert payload["config"] == path.stem
            assert payload["scenario"] == BRAKING
            assert payload["spec_hash"] == info["spec_hash"]
            assert payload["collided"] is False
            assert isinstance(payload["delta_a_vehicle"], int)
            assert len(payload["window"]) == 2
            assert payload["window"][1] > payload["window"][0]


def test_baselines_score_zero_against_themselves(single_sweep):
    """A homogeneous platoon compared with itself shows no degradation."""
    out, _ = single_sweep
    base_dir = out / "single" / BRAKING / "baseline"
    for name in ("-G.json", "-L.json", "-P.json"):
        payload = json.loads((base_dir / name).read_text())
        assert payload["delta_d"] == 0.0
    acc = json.loads((base_dir / "-A.json").read_text())
    assert acc["delta_a"] == 0.0
    assert acc["delta_d"] == 0.0
    assert acc["eta"] == 1.0


def test_sweep_single_summary_names_worst_cases(single_sweep):
    _, summary = single_sweep
    info = summary["scenarios"][BRAKING]
    mixed = set(mixed_configs(2))
    for key in ("worst_delta_a", "worst_delta_d", "best_eta"):
        assert info[key]["config"] in mixed
        assert isinstance(info[key]["value"], float)
    assert info["worst_delta_a"]["vehicle"] == 1


def test_sweep_single_reuses_cached_reports(single_sweep):
    """A rerun with identical parameters leaves valid reports untouched."""
    out, _ = single_sweep
    target = out / "single" / BRAKING / "mixed" / "-G.json"
    payload = json.loads(target.read_text())
    payload["marker"] = "kept"
    target.write_text(json.dumps(payload))
    sweep_single(2, str(out), kinds=(BRAKING,), seed=0)
    assert json.loads(target.read_text()).get("marker") == "kept"

    # a stale parameter hash forces a recompute and drops the marker
    payload["spec_hash"] = "0" * 16
    target.write_text(json.dumps(payload))
    summary = sweep_single(2, str(out), kinds=(BRAKING,), seed=0)
    refreshed = json.loads(target.read_text())
    assert "marker" not in refreshed
    assert refreshed["spec_hash"] == summary["scenarios"][BRAKING]["spec_hash"]

    # valid JSON that is not a report object is recomputed, not a crash
    target.write_text("[]")
    sweep_single(2, str(out), kinds=(BRAKING,), seed=0)
    assert json.loads(target.read_text()) == refreshed

    # a current report that holds NaN, as older versions wrote, is not
    # strict JSON and is recomputed once
    target.write_text(json.dumps({**refreshed, "eta": float("nan")}))
    sweep_single(2, str(out), kinds=(BRAKING,), seed=0)
    assert _strict_json(target.read_text()) == refreshed


def test_sweep_single_recomputes_byte_identically(single_sweep):
    out, _ = single_sweep
    target = out / "single" / BRAKING / "mixed" / "-L.json"
    before = target.read_bytes()
    target.unlink()
    sweep_single(2, str(out), kinds=(BRAKING,), seed=0)
    assert target.read_bytes() == before


def test_a_collided_mix_reports_null_metrics_and_window():
    """Under braking ``-GPGPGPL`` collides at 34.6 s; its record says so,
    with every metric and the window null."""
    scns = [scenario_for(BRAKING, c) for c in baseline_configs(8) + ["-GPGPGPL"]]
    out = experiments._sweep_batch(([(BRAKING, scns)], Config()))
    assert out[BRAKING, "mixed", "-GPGPGPL"] == ({
        "role": "mixed", "config": "-GPGPGPL", "scenario": BRAKING, "collided": True,
        "delta_a": None, "delta_a_vehicle": -1, "delta_d": None, "delta_d_vehicle": -1,
        "eta": None, "window": None,
    }, None)
    assert not any(report["collided"] for report, _ in
                   (out[BRAKING, "baseline", c] for c in baseline_configs(8)))


def test_sweep_single_files_do_not_depend_on_jobs(tmp_path):
    """Both kinds run merged in each batch; two workers split the mixes
    and write the same bytes as one."""
    files = {}
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        sweep_single(3, str(root), jobs=jobs)
        files[jobs] = {p.relative_to(root): p.read_bytes()
                       for p in sorted(root.rglob("*.json"))}
    assert len(files[1]) == 2 * (9 + 4) + 1
    assert files[1] == files[2]


def _single_files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted((root / "single").rglob("*.json"))}


def test_single_sweep_bytes_do_not_depend_on_how_it_ran(tmp_path, monkeypatch):
    """At n=3: a serial sweep, two workers, one scenario followed by both,
    batches of one mix per kind (serial and on two workers), and a sweep
    interrupted (some reports and the summary lost) then resumed all write
    the same report files and summary, byte for byte."""
    serial, parallel, subset = (tmp_path / name for name in ("serial", "jobs2", "subset"))
    sweep_single(3, str(serial))
    want = _single_files(serial)
    assert len(want) == 2 * (9 + 4) + 1
    sweep_single(3, str(parallel), jobs=2)
    sweep_single(3, str(subset), kinds=(BRAKING,))
    sweep_single(3, str(subset))
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "BATCH_VEHICLES", 2 * 3)   # one mix per kind per batch
        narrow = [tmp_path / f"narrow{jobs}" for jobs in (1, 2)]
        for jobs, root in enumerate(narrow, 1):
            sweep_single(3, str(root), jobs=jobs)
    lost = sorted((serial / "single").rglob("-G*.json"))[::2] + [serial / "single" / "summary.json"]
    assert len(lost) > 3
    for path in lost:
        path.unlink()
    sweep_single(3, str(serial))
    for root in (parallel, subset, *narrow, serial):
        assert _single_files(root) == want, root.name


# ---------------------------------------------------------------------------
# Ring sweep on a toy grid
# ---------------------------------------------------------------------------

RING_KW = dict(repetitions=2, seed=3, duration=60.0, warmup=30.0)


@pytest.fixture(scope="module")
def ring_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_ring")
    summary = sweep_ring(str(out), TOY_GRID, **RING_KW)
    return out, summary


def test_sweep_ring_toy_grid_aggregates(ring_sweep):
    out, summary = ring_sweep
    assert summary["cell_count"] == 6
    assert summary["failed"] == []
    expected = {"d10-ACC", "d10-IDM", "d10-P-N4-R0.5", "d10-L-N4-R0.5",
                "d10-G-N4-R0.5", "d10-MIX-N4-R0.5"}
    assert set(summary["cells"]) == expected
    for cell_id, agg in summary["cells"].items():
        assert agg["runs"] == 2
        assert agg["collisions"] == 0
        assert agg["throughput_mean"] > 0.0
        assert agg["throughput_ci95"] is not None
        assert agg["xi_median"] is not None
        rep_dir = out / "ring" / cell_id
        assert sorted(p.name for p in rep_dir.iterdir()) == [
            "rep0.json", "rep1.json"]


def test_sweep_ring_run_records_carry_seed_and_metrics(ring_sweep):
    out, summary = ring_sweep
    payload = json.loads((out / "ring" / "d10-ACC" / "rep1.json").read_text())
    assert payload["cell"] == "d10-ACC"
    assert payload["rep"] == 1
    assert payload["seed"] == run_seed(3, "d10-ACC", 1)
    assert payload["spec_hash"] == summary["spec_hash"]
    assert payload["n_vehicles"] == 100
    assert payload["end_time"] == pytest.approx(90.0)
    assert payload["throughput"] > 0.0
    assert len(payload["xi"]) == payload["n_vehicles"]


def test_sweep_ring_resume_skips_finished_runs(ring_sweep):
    out, first = ring_sweep
    rep = out / "ring" / "d10-IDM" / "rep0.json"
    stamp = rep.stat().st_mtime_ns
    second = sweep_ring(str(out), TOY_GRID, **RING_KW)
    assert rep.stat().st_mtime_ns == stamp
    assert second["cells"] == first["cells"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_ring_records_non_finite_runs_as_failed(tmp_path, jobs):
    """A NaN ACC gain poisons every cell with ACC cars; the IDM baseline,
    which has none, still runs, serially and in parallel alike."""
    cfg = replace(TOY_GRID, controllers=ControllerSet())
    cfg.controllers.acc.lam = float("nan")   # past the parameter check
    summary = sweep_ring(str(tmp_path), cfg, jobs=jobs, **{**RING_KW, "repetitions": 1,
                                                          "duration": 2.0, "warmup": 1.0})
    cells = [c for c in summary["cells"] if c != "d10-IDM"]
    assert [(f["cell"], f["rep"]) for f in summary["failed"]] == [(c, 0) for c in cells]
    assert {f["error"] for f in summary["failed"]} == {"non-finite control input: nan"}
    assert summary["cells"]["d10-IDM"]["runs"] == 1


def _ring_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted((root / "ring").rglob("*.json"))}


def test_ring_sweep_bytes_do_not_depend_on_how_it_ran(tmp_path):
    """Real short runs on a 2 km ring, two densities: a serial sweep, two
    workers, a density subset followed by the full grid, and a sweep
    interrupted (some rep files and the summary lost) then resumed all
    write the same rep files and summary, byte for byte."""
    cfg = replace(TOY_GRID, mobility=replace(TOY_GRID.mobility, circumference=2000.0,
                                             densities=(10.0, 20.0)))
    kw = dict(cfg=cfg, repetitions=2, seed=5, duration=20.0, warmup=2.0)
    serial, parallel, subset = (tmp_path / name for name in ("serial", "jobs2", "subset"))
    sweep_ring(str(serial), **kw)
    want = _ring_files(serial)
    assert len(want) == 12 * 2 + 1
    assert any(json.loads(b).get("throughput") for b in want.values())
    sweep_ring(str(parallel), jobs=2, **kw)
    sweep_ring(str(subset), densities=(20.0,), **kw)
    sweep_ring(str(subset), **kw)
    lost = sorted((serial / "ring").rglob("rep1.json"))[::2] + [serial / "ring" / "summary.json"]
    for path in lost:
        path.unlink()
    sweep_ring(str(serial), **kw)
    for root in (parallel, subset, serial):
        assert _ring_files(root) == want, root.name


def test_ring_sweep_in_density_subsets_ends_with_the_whole_grid_summary(tmp_path):
    """Each subset's summary covers every current result of the grid, so
    the last of them equals, byte for byte, the summary of one whole run."""
    cfg = replace(TOY_GRID, mobility=replace(TOY_GRID.mobility, circumference=2000.0,
                                             densities=(10.0, 20.0)))
    kw = dict(cfg=cfg, repetitions=1, seed=5, duration=20.0, warmup=2.0)
    whole, split = tmp_path / "whole", tmp_path / "split"
    sweep_ring(str(whole), **kw)
    first = sweep_ring(str(split), densities=(10.0,), **kw)
    assert first["cell_count"] == 6
    last = sweep_ring(str(split), densities=(20.0,), **kw)
    assert last["cell_count"] == 12
    assert ((split / "ring" / "summary.json").read_bytes()
            == (whole / "ring" / "summary.json").read_bytes())


def test_emit_reports_renders_both_tables(single_sweep, ring_sweep):
    single_out, _ = single_sweep
    ring_out, _ = ring_sweep
    singles = emit_reports(str(single_out))
    assert [os.path.basename(p) for p in singles] == ["table.txt"]
    text = open(singles[0]).read()
    assert f"scenario: {BRAKING}" in text
    assert "worst_delta_a" in text

    rings = emit_reports(str(ring_out))
    text = open(rings[0]).read()
    assert text.startswith("spec_hash=")
    assert "d10-ACC" in text
    lines = [ln for ln in text.splitlines() if ln.startswith("d10-")]
    assert len(lines) == 6


def test_emit_reports_lists_collided_mixes(tmp_path):
    summary = {"n": 8, "failed": [], "scenarios": {BRAKING: {
        "spec_hash": "0" * 16, "mixed_reports": 2, "baseline_reports": 4,
        "collisions": ["-GPGPGPL", "-GPGPPLG"]}}}
    (tmp_path / "single").mkdir()
    (tmp_path / "single" / "summary.json").write_text(json.dumps(summary))
    [path] = emit_reports(str(tmp_path))
    assert "  collisions: -GPGPGPL, -GPGPPLG" in open(path).read().splitlines()


def test_a_ring_cell_without_volatility_has_a_null_median(tmp_path):
    """Runs that sample each car's speed once have a throughput but no
    volatility: their cell's median is null, and the summary is written."""
    cfg = replace(TOY_GRID, mobility=replace(TOY_GRID.mobility, circumference=2000.0,
                                             volatility_sample_dt=30.0))
    summary = sweep_ring(str(tmp_path), cfg, repetitions=1, duration=20.0, warmup=0.0)
    assert summary["failed"] == [] and len(summary["cells"]) == 6
    for agg in summary["cells"].values():
        assert agg["throughput_mean"] is not None and agg["xi_median"] is None
    assert _strict_json((tmp_path / "ring" / "summary.json").read_text()) == summary
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_failed_json_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.json"
    experiments._atomic_write_json(str(path), {"x": 1.0})
    with pytest.raises(ValueError, match="not JSON compliant"):
        experiments._atomic_write_json(str(path), {"x": math.nan})
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert json.loads(path.read_text()) == {"x": 1.0}


def test_an_interrupted_chunk_stream_leaves_neither_the_file_nor_a_temporary(tmp_path):
    def chunks():
        yield "t,veh\n"
        yield "0.0,0\n"
        raise KeyboardInterrupt

    path = tmp_path / "trace.csv"
    with pytest.raises(KeyboardInterrupt):
        experiments._atomic_write(str(path), chunks())
    assert list(tmp_path.iterdir()) == []


def test_ring_metrics_write_null_for_undefined_volatility():
    """A car whose sampled mean speed is zero has no volatility: its entry
    is null, not NaN."""
    trace = types.SimpleNamespace(
        n_vehicles=2, terminated_by_collision=False, end_time=1.0, counter_times=np.empty(0),
        spec=RingSpec(density=10.0, warmup=0.0, duration=1.0),
        speed_samples=np.array([[10.0, 0.0], [12.0, 0.0]]))
    out = ring_run_metrics(trace)
    assert out["xi"] == [round(math.sqrt(2.0) / 11.0, 6), None]
    assert out["xi_median"] == out["xi"][0]
    assert _strict_json(json.dumps(out)) == out


def test_sweep_files_are_strict_json(clean_n3_sweep, ring_sweep):
    ring_out, _ = ring_sweep
    paths = [*clean_n3_sweep.rglob("*.json"), *ring_out.rglob("*.json")]
    assert len(paths) == 9 + 4 + 1 + 6 * 2 + 1
    for path in paths:
        _strict_json(path.read_text())


# ---------------------------------------------------------------------------
# Single-platoon sweep: per-configuration failure capture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clean_n3_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean_n3")
    sweep_single(3, str(out), kinds=(BRAKING,))
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_single_records_a_failing_config_and_scores_the_rest(
        tmp_path, poisoned_config, clean_n3_sweep, jobs):
    summary = sweep_single(3, str(tmp_path), kinds=(BRAKING,), jobs=jobs)
    assert summary["failed"] == [{
        "scenario": BRAKING, "config": poisoned_config,
        "error": "non-finite control input: nan",
    }]
    assert summary["scenarios"][BRAKING]["mixed_reports"] == 8
    # the healthy rows shared the failing row's batch and are unaffected
    for role in ("mixed", "baseline"):
        got = {p.name: p.read_bytes() for p in (tmp_path / "single" / BRAKING / role).iterdir()}
        want = {p.name: p.read_bytes()
                for p in (clean_n3_sweep / "single" / BRAKING / role).iterdir()}
        want.pop(f"{poisoned_config}.json", None)
        assert got == want


def test_sweep_single_resume_simulates_nothing(tmp_path, monkeypatch):
    from mixcacc import experiments

    sweep_single(2, str(tmp_path), kinds=(BRAKING,))

    def no_simulation(*args, **kwargs):
        raise AssertionError("a fully cached sweep must not simulate")

    monkeypatch.setattr(experiments, "run_platoon_batch", no_simulation)
    summary = sweep_single(2, str(tmp_path), kinds=(BRAKING,))
    assert summary["scenarios"][BRAKING]["mixed_reports"] == 3
    assert summary["failed"] == []


def test_sweep_single_batches_are_chunked_by_jobs(tmp_path, monkeypatch):
    """A batch runs chunk i of both kinds' mixes, each kind with its
    baselines; ``jobs`` splits the mixes."""
    from mixcacc import experiments

    seen = []
    real = experiments._sweep_batch

    def spy(args):
        groups, _ = args
        assert all([scn.kind for scn in scns] == [kind] * len(scns) for kind, scns in groups)
        assert all([scn.config for scn in scns[:4]] == baseline_configs(3) for _, scns in groups)
        seen.append({kind: [scn.config for scn in scns[4:]] for kind, scns in groups})
        return real(args)

    monkeypatch.setattr(experiments, "_sweep_batch", spy)
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    serial = sweep_single(3, str(tmp_path / "serial"))
    # -GG, -LL and -PP are baseline rows too and run once per batch
    mixes = ["-GL", "-GP", "-LG", "-LP", "-PG", "-PL"]
    assert seen == [{SINUSOIDAL: mixes, BRAKING: mixes}]
    seen.clear()
    split = sweep_single(3, str(tmp_path / "split"), jobs=2)
    assert seen == [{SINUSOIDAL: mixes[:3], BRAKING: mixes[:3]},
                    {SINUSOIDAL: mixes[3:], BRAKING: mixes[3:]}]
    assert serial["scenarios"] == split["scenarios"]
    seen.clear()
    # a kind whose reports are all cached stays out of the batches
    os.remove(tmp_path / "serial" / "single" / BRAKING / "mixed" / "-LP.json")
    assert sweep_single(3, str(tmp_path / "serial"), jobs=2) == serial
    assert seen == [{BRAKING: ["-LP"]}]


def test_sweep_single_starts_at_most_one_worker_per_batch(tmp_path, monkeypatch):
    """``jobs=12`` on the six batches of n = 3 asks the pool for six
    workers: it used to start twelve."""
    asked, batches = [], []

    class CountingPool(_SerialPool):
        def __init__(self, jobs):
            asked.append(jobs)

    monkeypatch.setattr(experiments, "_sweep_batch", lambda args: batches.append(args) or {})
    monkeypatch.setattr(multiprocessing, "Pool", CountingPool)
    sweep_single(3, str(tmp_path), jobs=12)
    assert asked == [len(batches)] == [6]


def test_sweep_single_chunks_bound_the_vehicles_of_a_batch(tmp_path, monkeypatch):
    """The mix vehicles of a batch, over all the kinds it runs, stay within
    ``BATCH_VEHICLES``; a budget below ``n`` per kind still runs one mix of
    each kind, and the real budget holds that much at every platoon size."""
    assert experiments.BATCH_VEHICLES >= 2 * MAX_PLATOON
    seen = []
    monkeypatch.setattr(experiments, "SAMPLED_CONFIG_COUNT", 5)
    monkeypatch.setattr(experiments, "_sweep_batch", lambda args: seen.append(
        {kind: len(scns) - len(BASELINE_LETTERS) for kind, scns in args[0]}) or {})
    both = (SINUSOIDAL, BRAKING)
    for budget, kinds, sizes in ((36, both, [2, 2, 1]), (36, (BRAKING,), [4, 1]),
                                 (17, both, [1] * 5)):
        monkeypatch.setattr(experiments, "BATCH_VEHICLES", budget)
        seen.clear()
        sweep_single(9, str(tmp_path / f"{budget}-{len(kinds)}"), kinds=kinds)
        assert seen == [dict.fromkeys(kinds, size) for size in sizes]
        assert all(9 * sum(batch.values()) <= max(budget, 9 * len(kinds)) for batch in seen)


def test_a_sweep_keeps_no_per_tick_record(tmp_path):
    """A sweep scores its rows as they run: the traced peak of
    ``sweep_single(5)`` reads 0.8 MiB, where the record blocks of its
    traces took 21.6 MiB."""
    sweep_single(2, str(tmp_path / "warm"), kinds=(BRAKING,))   # the one-off lazy imports
    tracemalloc.start()
    try:
        sweep_single(5, str(tmp_path / "sweep"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


class _SerialPool:
    """Stands in for multiprocessing.Pool so a spy sees every batch."""

    def __init__(self, jobs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items):
        return map(fn, items)
