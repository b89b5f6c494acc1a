"""Analysis window extraction and the disturbance / traffic metrics."""

import numpy as np
import pytest

from mixcacc.metrics import (
    MetricsError,
    SPEED_FLOOR,
    braking_window,
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
from mixcacc.scenarios import SingleScenario, Trace, run_single_platoon


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
    t0, _ = braking_window(braking_trace)
    assert t0 == pytest.approx(30.1)


def test_braking_window_closes_when_platoon_is_slow(braking_trace):
    _, t1 = braking_window(braking_trace)
    # profile reaches zero at 30 + 27.78/8 = 33.47 s; the lagged vehicles
    # drop below the 5 km/h floor a little later
    assert 33.3 <= t1 <= 34.2
    k1 = np.flatnonzero(braking_trace.times >= t1 - 1e-9)[0]
    assert (braking_trace.speed[k1] < SPEED_FLOOR).all()
    assert not (braking_trace.speed[k1 - 1] < SPEED_FLOOR).all()


def test_braking_window_requires_onset():
    tr = flat_trace()
    with pytest.raises(MetricsError):
        braking_window(tr)


def test_empty_window_rejected():
    tr = flat_trace()
    with pytest.raises(MetricsError):
        peak_abs_accel(tr, (5.0, 6.0))


# ---------------------------------------------------------------------------
# disturbance metrics
# ---------------------------------------------------------------------------

def test_peak_abs_accel_takes_magnitude():
    tr = flat_trace()
    tr.accel[:, 1] = -2.0
    peaks = peak_abs_accel(tr, (0.0, 1.0))
    assert peaks.tolist() == [2.0, 1.0]


def test_peak_abs_accel_speed_floor_drops_crawl_samples():
    tr = flat_trace()
    tr.speed[:5, 1] = 0.5
    tr.accel[:5, 1] = -5.0
    tr.accel[5:, 1] = -1.5
    assert peak_abs_accel(tr, (0.0, 1.0))[0] == 1.5


def test_peak_abs_accel_names_a_follower_with_no_sample_above_the_floor():
    tr = flat_trace()
    tr.speed[:, 2] = 0.5
    with pytest.raises(MetricsError, match="no usable acceleration samples for vehicle 2"):
        peak_abs_accel(tr, (0.0, 1.0))


def test_delta_a_self_comparison_is_zero():
    tr = flat_trace()
    w = (0.0, 1.0)
    peaks = peak_abs_accel(tr, w)
    assert delta_a(tr, w, peaks) == (0.0, 1)    # every follower ties at zero
    assert (peaks - peak_abs_accel(tr, w) == 0.0).all()


def test_delta_a_negative_when_mix_shakes_harder():
    ref = flat_trace(accel=1.0)
    worse = flat_trace(accel=1.0)
    worse.accel[:, 2] = 1.5
    w = (0.0, 1.0)
    ref_peaks = peak_abs_accel(ref, w)
    value, vehicle = delta_a(worse, w, ref_peaks)
    assert value == pytest.approx(-0.5)
    assert vehicle == 2
    assert (ref_peaks - peak_abs_accel(worse, w))[0] == 0.0


def test_delta_a_rejects_a_reference_of_another_size():
    tr = flat_trace()
    w = (0.0, 1.0)
    with pytest.raises(MetricsError, match="platoon size mismatch"):
        delta_a(tr, w, peak_abs_accel(flat_trace(n=4, controllers=("-", "A", "A", "A")), w))


def test_min_gap_per_follower():
    tr = flat_trace(gap=30.0)
    tr.gap[4, 2] = 7.5
    gaps = min_gap(tr, (0.0, 1.0))
    assert gaps.tolist() == [30.0, 7.5]


def test_min_gap_reads_a_derived_gap_once(monkeypatch):
    """A platoon trace derives its whole gap array on every read, so one
    call reads it once; the values are those of one read per follower."""
    tr = run_single_platoon(SingleScenario(kind="sinusoidal", config="-PLGA", duration=10.0))
    w = (2.0, 8.0)
    mask = tr.window_mask(*w)
    per_column = [float(np.nanmin(tr.gap[mask, i])) for i in range(1, tr.n_vehicles)]
    reads = []
    derive = Trace.__getattr__

    def counted(self, name):
        reads.append(name)
        return derive(self, name)

    monkeypatch.setattr(Trace, "__getattr__", counted)
    assert min_gap(tr, w).tolist() == per_column
    assert reads == ["gap"]


def test_delta_d_self_comparison_is_zero():
    tr = flat_trace(controllers=("-", "L", "L"))
    w = (0.0, 1.0)
    value, _ = delta_d(tr, w, {"L": min_gap(tr, w)})
    assert value == 0.0


def test_delta_d_flags_compressed_follower():
    w = (0.0, 1.0)
    ref = flat_trace(controllers=("-", "L", "L"), gap=30.0)
    mixed = flat_trace(controllers=("-", "L", "L"), gap=30.0)
    mixed.gap[3, 1] = 26.0
    value, vehicle = delta_d(mixed, w, {"L": min_gap(ref, w)})
    assert value == pytest.approx(-4.0)
    assert vehicle == 1


def test_delta_d_requires_matching_reference():
    tr = flat_trace(controllers=("-", "G", "G"))
    w = (0.0, 1.0)
    with pytest.raises(MetricsError):
        delta_d(tr, w, {"L": min_gap(tr, w)})


def test_delta_d_rejects_a_reference_shorter_than_the_platoon():
    w = (0.0, 1.0)
    tr = flat_trace(n=4, controllers=("-", "L", "L", "L"))
    with pytest.raises(MetricsError, match="shorter than platoon at vehicle 3"):
        delta_d(tr, w, {"L": min_gap(flat_trace(controllers=("-", "L", "L")), w)})


def test_occupancy_and_eta():
    w = (0.0, 1.0)
    ref = flat_trace(gap=30.0)
    own = flat_trace(gap=10.0)
    assert max_platoon_occupancy(ref, w) == pytest.approx(60.0)
    assert max_platoon_occupancy(own, w) == pytest.approx(20.0)
    # shorter road footprint scores a proportionally larger efficiency
    ref_occupancy = max_platoon_occupancy(ref, w)
    assert eta(own, w, ref_occupancy) == pytest.approx(3.0)
    assert eta(ref, w, ref_occupancy) == pytest.approx(1.0)


def test_eta_rejects_degenerate_occupancy():
    w = (0.0, 1.0)
    ref = flat_trace(gap=30.0)
    broken = flat_trace(gap=0.0)
    with pytest.raises(MetricsError):
        eta(broken, w, max_platoon_occupancy(ref, w))


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

