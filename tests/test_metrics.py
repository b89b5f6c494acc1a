"""Analysis window extraction and the disturbance / traffic metrics.

The metrics read a run only through its ``WindowScores``.  The
``reference_*`` functions below score a recorded trace straight from its
arrays, with masks over its ticks, and are the oracle the reductions are
checked against.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixcacc.experiments import build_report
from mixcacc.metrics import (
    BRAKE_DETECT_U,
    NO_ONSET,
    MetricsError,
    SPEED_FLOOR,
    WindowReduction,
    WindowScores,
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
from mixcacc.scenarios import (
    BRAKING,
    FREQUENCY,
    SINUSOIDAL,
    WARMUP,
    SingleScenario,
    Trace,
    run_platoon_batch,
    run_single_platoon,
)


def make_trace(times, speed, accel, gap, controllers=("-", "A", "A")):
    """Minimal trace with hand-picked kinematics for metric unit tests."""
    times = np.asarray(times, dtype=float)
    shape = (times.size, len(controllers))
    return Trace(
        times=times,
        position=np.zeros(shape),
        speed=np.asarray(speed, dtype=float),
        accel=np.asarray(accel, dtype=float),
        ctrl_input=np.zeros(shape),
        gap=np.asarray(gap, dtype=float),
        lane=np.zeros(shape, dtype=np.int8),
        mode=np.full(shape, -1, dtype=np.int8),
        config="".join(controllers),
    )


def flat_trace(ticks=11, n=3, speed=20.0, accel=1.0, gap=30.0, controllers=("-", "A", "A")):
    times = np.arange(ticks) * 0.1
    shape = (ticks, n)
    g = np.full(shape, gap)
    g[:, 0] = np.nan
    return make_trace(times, np.full(shape, speed), np.full(shape, accel), g, controllers)


def window_scores(trace, window=(0.0, 1.0)) -> WindowScores:
    """A hand-built trace reduced over ``window``, every tick live, as
    ``Trace.scores`` reduces a sinusoidal run over its own window."""
    reduction = WindowReduction([False], trace.n_vehicles, window)
    reduction.block(trace.times, trace.gap[:, None], trace.speed[:, None], trace.accel[:, None],
                    trace.ctrl_input[:, :1], np.ones((trace.times.size, 1), bool))
    return reduction.scores(0, trace.times[-1], trace.config, trace.scenario_kind,
                            trace.terminated_by_collision)


# ---------------------------------------------------------------------------
# the reference: a trace scored from its arrays
# ---------------------------------------------------------------------------

def reference_window(trace) -> tuple[float, float]:
    """The sinusoidal window, or a braking trace's: from the first tick whose
    head command is at most BRAKE_DETECT_U to the first tick from there with
    every vehicle below SPEED_FLOOR, or to the trace's last tick."""
    if trace.scenario_kind != BRAKING:
        return sinusoidal_window(WARMUP, FREQUENCY)
    onset = np.flatnonzero(trace.ctrl_input[:, 0] <= BRAKE_DETECT_U)
    if onset.size == 0:
        raise MetricsError(NO_ONSET)
    k0 = int(onset[0])
    stopped = np.flatnonzero(np.all(trace.speed[k0:] < SPEED_FLOOR, axis=1))
    k1 = k0 + int(stopped[0]) if stopped.size else len(trace.times) - 1
    return float(trace.times[k0]), float(trace.times[k1])


def reference_mask(trace, window) -> np.ndarray:
    """The ticks inside ``window``, to within 1e-9 s."""
    mask = (trace.times >= window[0] - 1e-9) & (trace.times <= window[1] + 1e-9)
    if not mask.any():
        raise MetricsError(f"empty analysis window {window}")
    return mask


def reference_peaks(trace, window) -> np.ndarray:
    """Each follower's peak |a| inside the window, at SPEED_FLOOR or faster."""
    mask = reference_mask(trace, window)
    peaks = np.where(trace.speed[mask, 1:] >= SPEED_FLOOR, np.abs(trace.accel[mask, 1:]),
                     -np.inf).max(axis=0)
    empty = np.flatnonzero(np.isneginf(peaks))
    if empty.size:
        raise MetricsError(f"no usable acceleration samples for vehicle {empty[0] + 1}")
    return peaks


def reference_min_gap(trace, window) -> np.ndarray:
    """Each follower's least gap inside the window."""
    return np.nanmin(trace.gap[reference_mask(trace, window), 1:], axis=0)


def reference_occupancy(trace, window) -> float:
    """The largest total follower gap of one tick inside the window."""
    return float(np.nansum(trace.gap[reference_mask(trace, window), 1:], axis=1).max())


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_sinusoidal_window_covers_five_periods():
    w = sinusoidal_window(30.0, 0.1)
    assert w == (30.0, 80.0)
    assert w[1] - w[0] == 50.0


@pytest.fixture(scope="module")
def braking_trace():
    return run_single_platoon(SingleScenario(kind="braking", config="-PP"))


def test_braking_window_opens_one_tick_after_onset(braking_trace):
    """The recorded command trails the tick that computed it by one period."""
    t0, _ = braking_trace.scores().window
    assert t0 == pytest.approx(30.1)


def test_braking_window_closes_when_platoon_is_slow(braking_trace):
    _, t1 = braking_trace.scores().window
    # profile reaches zero at 30 + 27.78/8 = 33.47 s; the lagged vehicles
    # drop below the 5 km/h floor a little later
    assert 33.3 <= t1 <= 34.2
    k1 = np.flatnonzero(braking_trace.times >= t1 - 1e-9)[0]
    assert (braking_trace.speed[k1] < SPEED_FLOOR).all()
    assert not (braking_trace.speed[k1 - 1] < SPEED_FLOOR).all()


def test_braking_window_requires_onset():
    tr = flat_trace()
    tr.scenario_kind = BRAKING
    scores = tr.scores()
    assert scores.window is None
    with pytest.raises(MetricsError, match=NO_ONSET):
        min_gap(scores)


def test_braking_window_edges_follow_the_onset_and_floor_rules():
    """The window opens at a head command equal to BRAKE_DETECT_U and does
    not close on a tick where a vehicle drives at exactly SPEED_FLOOR; a
    sample at exactly SPEED_FLOOR counts towards its follower's peak."""
    tr = flat_trace()
    tr.scenario_kind = BRAKING
    tr.ctrl_input[3, 0] = BRAKE_DETECT_U
    tr.speed[6:] = 1.0
    tr.speed[6, 2] = SPEED_FLOOR
    tr.accel[6, 2] = 4.0
    scores = tr.scores()
    assert scores.window == (tr.times[3], tr.times[7]) == reference_window(tr)
    assert peak_abs_accel(scores).tolist() == [1.0, 4.0]


def test_empty_window_rejected():
    tr = flat_trace()
    with pytest.raises(MetricsError):
        peak_abs_accel(window_scores(tr, (5.0, 6.0)))


# ---------------------------------------------------------------------------
# disturbance metrics
# ---------------------------------------------------------------------------

def test_peak_abs_accel_takes_magnitude():
    tr = flat_trace()
    tr.accel[:, 1] = -2.0
    peaks = peak_abs_accel(window_scores(tr))
    assert peaks.tolist() == [2.0, 1.0]


def test_peak_abs_accel_speed_floor_drops_crawl_samples():
    tr = flat_trace()
    tr.speed[:5, 1] = 0.5
    tr.accel[:5, 1] = -5.0
    tr.accel[5:, 1] = -1.5
    assert peak_abs_accel(window_scores(tr))[0] == 1.5


def test_peak_abs_accel_names_a_follower_with_no_sample_above_the_floor():
    tr = flat_trace()
    tr.speed[:, 2] = 0.5
    with pytest.raises(MetricsError, match="no usable acceleration samples for vehicle 2"):
        peak_abs_accel(window_scores(tr))


def test_delta_a_self_comparison_is_zero():
    scores = window_scores(flat_trace())
    peaks = peak_abs_accel(scores)
    assert delta_a(scores, peaks) == (0.0, 1)    # every follower ties at zero
    assert (peaks - peak_abs_accel(scores) == 0.0).all()


def test_delta_a_negative_when_mix_shakes_harder():
    ref = flat_trace(accel=1.0)
    worse = flat_trace(accel=1.0)
    worse.accel[:, 2] = 1.5
    ref_peaks = peak_abs_accel(window_scores(ref))
    value, vehicle = delta_a(window_scores(worse), ref_peaks)
    assert value == pytest.approx(-0.5)
    assert vehicle == 2
    assert (ref_peaks - peak_abs_accel(window_scores(worse)))[0] == 0.0


def test_delta_a_rejects_a_reference_of_another_size():
    scores = window_scores(flat_trace())
    other = window_scores(flat_trace(n=4, controllers=("-", "A", "A", "A")))
    with pytest.raises(MetricsError, match="platoon size mismatch"):
        delta_a(scores, peak_abs_accel(other))


def test_min_gap_per_follower():
    tr = flat_trace(gap=30.0)
    tr.gap[4, 2] = 7.5
    gaps = min_gap(window_scores(tr))
    assert gaps.tolist() == [30.0, 7.5]


def test_min_gap_reads_a_derived_gap_once(monkeypatch):
    """A platoon trace derives its whole gap array on every read, so
    ``Trace.scores`` reads it once; the least gaps are those of one read
    per follower over the window's ticks."""
    tr = run_single_platoon(SingleScenario(kind="sinusoidal", config="-PLGA", duration=40.0))
    w = sinusoidal_window(WARMUP, FREQUENCY)
    mask = (tr.times >= w[0] - 1e-9) & (tr.times <= w[1] + 1e-9)
    per_column = [float(np.nanmin(tr.gap[mask, i])) for i in range(1, tr.n_vehicles)]
    reads = []
    derive = Trace.__getattr__

    def counted(self, name):
        reads.append(name)
        return derive(self, name)

    monkeypatch.setattr(Trace, "__getattr__", counted)
    assert min_gap(tr.scores()).tolist() == per_column
    assert reads == ["gap"]


def test_delta_d_self_comparison_is_zero():
    scores = window_scores(flat_trace(controllers=("-", "L", "L")))
    value, _ = delta_d(scores, {"L": min_gap(scores)})
    assert value == 0.0


def test_delta_d_flags_compressed_follower():
    ref = flat_trace(controllers=("-", "L", "L"), gap=30.0)
    mixed = flat_trace(controllers=("-", "L", "L"), gap=30.0)
    mixed.gap[3, 1] = 26.0
    value, vehicle = delta_d(window_scores(mixed), {"L": min_gap(window_scores(ref))})
    assert value == pytest.approx(-4.0)
    assert vehicle == 1


def test_delta_d_requires_matching_reference():
    scores = window_scores(flat_trace(controllers=("-", "G", "G")))
    with pytest.raises(MetricsError):
        delta_d(scores, {"L": min_gap(scores)})


def test_delta_d_rejects_a_reference_shorter_than_the_platoon():
    scores = window_scores(flat_trace(n=4, controllers=("-", "L", "L", "L")))
    shorter = window_scores(flat_trace(controllers=("-", "L", "L")))
    with pytest.raises(MetricsError, match="shorter than platoon at vehicle 3"):
        delta_d(scores, {"L": min_gap(shorter)})


def test_occupancy_and_eta():
    ref = window_scores(flat_trace(gap=30.0))
    own = window_scores(flat_trace(gap=10.0))
    assert max_platoon_occupancy(ref) == pytest.approx(60.0)
    assert max_platoon_occupancy(own) == pytest.approx(20.0)
    # shorter road footprint scores a proportionally larger efficiency
    ref_occupancy = max_platoon_occupancy(ref)
    assert eta(own, ref_occupancy) == pytest.approx(3.0)
    assert eta(ref, ref_occupancy) == pytest.approx(1.0)


def test_eta_rejects_degenerate_occupancy():
    ref = window_scores(flat_trace(gap=30.0))
    broken = window_scores(flat_trace(gap=0.0))
    with pytest.raises(MetricsError):
        eta(broken, max_platoon_occupancy(ref))


# ---------------------------------------------------------------------------
# reductions taken as a batch runs
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """What ``fn`` gives, as bytes where it is an array, or its error text."""
    try:
        value = fn(*args)
    except MetricsError as exc:
        return "error", str(exc)
    return "value", value.tobytes() if isinstance(value, np.ndarray) else value


_FOLLOWERS = "AGLP"


@st.composite
def _scored_batch(draw):
    """2 to 6 vehicles; both scenarios, with timelines that end before, in
    and after their windows (a braking run of 3 s never sees its onset);
    one row with a ``G`` ahead of an ``A`` or ``L``, rows whose start offsets
    make them collide, and the rows in random order."""
    n = draw(st.integers(2, 6))
    platoon = st.text(alphabet=_FOLLOWERS, min_size=n - 1, max_size=n - 1)

    def row(followers):
        if draw(st.booleans()):
            timeline = dict(kind=SINUSOIDAL, duration=draw(st.sampled_from([20.0, 45.0, 85.0])))
        else:
            timeline = dict(kind=BRAKING, brake_onset=4.0,
                            duration=draw(st.sampled_from([3.0, 6.0, 12.0])))
        offsets = draw(st.dictionaries(st.integers(1, n - 1), st.sampled_from([-60.0, -12.0, 4.0]),
                                       max_size=2))
        return SingleScenario(config=draw(st.sampled_from("-G")) + followers,
                              initial_gap_offsets=offsets or None, **timeline)

    rows = [row(f) for f in draw(st.lists(platoon, min_size=1, max_size=5))]
    if n > 2:
        seat = draw(st.integers(0, n - 3))
        mix = list(draw(platoon))
        mix[seat:seat + 2] = "G", draw(st.sampled_from("AL"))
        rows.append(row("".join(mix)))
    return n, draw(st.permutations(rows))


@settings(max_examples=15, deadline=None)
@given(_scored_batch())
# the block edges of a batch without a record, 16 ticks a block: a braking
# window that opens at tick 41 (block 2) and closes at tick 98 (block 6)
@example((3, [SingleScenario(kind=BRAKING, config="-AL", brake_onset=4.0, duration=12.0)]))
# the state shrinks to the 85 s row after tick 450, in mid-block; the 45 s
# row, unbalanced on a flat profile, keeps closing its least gap to the end
@example((4, [SingleScenario(kind=SINUSOIDAL, config="-GAL", duration=45.0, amplitude=0.0),
              SingleScenario(kind=SINUSOIDAL, config="-LPA", duration=85.0)]))
# a row that collides at tick 1, in the first block, beside one that runs on
@example((3, [SingleScenario(kind=BRAKING, config="-LA", brake_onset=4.0, duration=12.0,
                             initial_gap_offsets={1: -20.0}),
              SingleScenario(kind=BRAKING, config="-AL", brake_onset=4.0, duration=12.0)]))
def test_batch_reductions_equal_the_trace_metrics_bit_for_bit(batch):
    """A batch run without a record and ``Trace.scores`` of the same batch's
    traces give, row by row, the window, the follower peaks and least gaps,
    the peak occupancy, the collided flag and the scoring errors that the
    reference functions give for the traces, and the same reports."""
    n, rows = batch
    ref = (np.ones(n - 1), 1.0, {letter: np.zeros(n - 1) for letter in _FOLLOWERS})
    for trace, row in zip(run_platoon_batch(rows), run_platoon_batch(rows, record=False)):
        assert isinstance(row, WindowScores)
        window = _outcome(reference_window, trace)
        for scores in (trace.scores(), row):
            assert (scores.config, scores.scenario_kind, scores.terminated_by_collision) == \
                (trace.config, trace.scenario_kind, trace.terminated_by_collision)
            assert (("error", NO_ONSET) if scores.window is None else ("value", scores.window)) \
                == window
            if window[0] == "value":
                for metric, reference in ((peak_abs_accel, reference_peaks),
                                          (min_gap, reference_min_gap),
                                          (max_platoon_occupancy, reference_occupancy)):
                    assert _outcome(metric, scores) == _outcome(reference, trace, window[1])
        assert _outcome(build_report, row, ref) == _outcome(build_report, trace.scores(), ref)


# ---------------------------------------------------------------------------
# ring traffic metrics
# ---------------------------------------------------------------------------

def test_throughput_ten_crossings_per_window():
    """Ten vehicles in 15 s equal 2400 veh/h at the device."""
    devices = ("N", "E", "S", "W")
    times, names = [], []
    for dev in devices:
        for w in range(2):
            times.extend(100.0 + w * 15.0 + np.linspace(0.5, 14.5, 10))
            names.extend([dev] * 10)
    times, names = np.asarray(times), np.asarray(names)
    for dev in devices:
        assert road_throughput(times, names, (dev,), 100.0, 130.0, 15.0) == 2400.0
    assert road_throughput(times, names, devices, 100.0, 130.0, 15.0) == 2400.0


def test_throughput_counts_are_conserved():
    rng = np.random.default_rng(11)
    devices = ("N", "E", "S", "W")
    times = rng.uniform(0.0, 60.0, 200)
    names = rng.choice(devices, 200)
    flux = road_throughput(times, names, devices, 0.0, 60.0, 15.0)
    assert isinstance(flux, float)
    total = flux * 4 * len(devices) * 15.0 / 3600.0      # four whole windows
    assert total == pytest.approx(np.sum(times < 60.0))


def test_throughput_needs_one_full_window():
    with pytest.raises(MetricsError):
        road_throughput(np.empty(0), np.empty(0, dtype="U1"), ("N",), 0.0, 10.0, 15.0)


def test_volatility_known_value():
    xi = volatility(np.array([[10.0], [20.0]]))
    # sample std 5 sqrt(2) over mean 15
    assert xi[0] == pytest.approx(0.471405, abs=1e-6)


def test_volatility_is_scale_free():
    rng = np.random.default_rng(5)
    samples = rng.uniform(5.0, 30.0, (40, 6))
    assert volatility(3.0 * samples) == pytest.approx(volatility(samples))


def test_volatility_zero_mean_is_nan():
    xi = volatility(np.zeros((4, 2)))
    assert np.isnan(xi).all()


def test_volatility_needs_two_samples():
    with pytest.raises(MetricsError):
        volatility(np.ones((1, 3)))

