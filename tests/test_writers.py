"""The trace writers against a reference that formats one value at a time.

``Trace.rows_csv``, ``RingTrace.counters_csv`` and ``RingTrace.serialize``
format a row (or a tick) per string.  The reference functions below are the
per-value writers they replaced; every byte must agree, including NaN gaps,
infinities, negative zero, very large and very small values, traces with no
tick and rings with no speed sample.
"""

import csv
import io
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixcacc.ring import DEVICES, RingSpec, RingTrace, run_ring
from mixcacc.scenarios import Trace, TraceEvent, events_csv


def reference_rows_csv(trace: Trace, header_comment: str | None = None) -> str:
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "veh", "lane", "x", "v", "a", "u", "gap", "ctrl", "mode"])
    mode_names = {0: "cruise", 1: "override"}
    for k, t in enumerate(trace.times):
        for i in range(trace.n_vehicles):
            w.writerow([
                f"{t:.6f}",
                i,
                int(trace.lane[k, i]),
                f"{trace.position[k, i]:.6f}",
                f"{trace.speed[k, i]:.6f}",
                f"{trace.accel[k, i]:.6f}",
                f"{trace.ctrl_input[k, i]:.6f}",
                f"{trace.gap[k, i]:.6f}",
                trace.controllers[i],
                mode_names.get(int(trace.mode[k, i]), ""),
            ])
    return buf.getvalue()


def reference_counters_csv(rt: RingTrace) -> str:
    lines = ["t,device,veh,lane"]
    for t, d, v, l in zip(rt.counter_times, rt.counter_devices,
                          rt.counter_vehicles, rt.counter_lanes):
        lines.append(f"{t:.6f},{d},{int(v)},{int(l)}")
    return "\n".join(lines) + "\n"


def reference_serialize(rt: RingTrace) -> bytes:
    parts = [reference_counters_csv(rt), events_csv(rt.events)]
    parts.append(",".join(f"{v:.6f}" for v in rt.speed_samples.ravel()))
    if rt.full is not None:
        parts.append(reference_rows_csv(rt.full))
    return "\n".join(parts).encode()


# the awkward values first, then any float at all
values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e20, -1e20, 5e-7, -5e-7,
                     4.9999995e-7, 0.5, 2.5e-6, 123456.7890125]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def float_block(ticks: int, n: int):
    return hnp.arrays(np.float64, (ticks, n), elements=values)


@st.composite
def traces(draw):
    ticks = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    times = draw(hnp.arrays(np.float64, ticks, elements=values))
    controllers = tuple(draw(st.lists(st.sampled_from("ALPGI"), min_size=n, max_size=n)))
    floats = [draw(float_block(ticks, n)) for _ in range(5)]
    lane = draw(hnp.arrays(np.int8, (ticks, n), elements=st.integers(0, 2)))
    mode = draw(hnp.arrays(np.int8, (ticks, n), elements=st.integers(-1, 1)))
    return Trace(times, controllers, *floats, lane, mode, scenario_kind="ring")


@st.composite
def ring_traces(draw):
    crossings = draw(st.integers(0, 6))
    n = draw(st.integers(1, 5))       # the spawner rejects a ring without cars
    samples = draw(st.integers(0, 3))
    events = [TraceEvent(draw(values), kind, draw(st.integers(0, 9)), None, detail)
              for kind, detail in draw(st.lists(st.sampled_from(
                  [("lane_change", "1->0"), ("collision", "gap=-0.100")]), max_size=3))]
    return RingTrace(
        spec=RingSpec(density=10.0),
        n_vehicles=n,
        counter_times=draw(hnp.arrays(np.float64, crossings, elements=values)),
        counter_devices=np.array(draw(st.lists(st.sampled_from(DEVICES), min_size=crossings,
                                               max_size=crossings)), dtype="U1"),
        counter_vehicles=draw(hnp.arrays(np.int64, crossings, elements=st.integers(0, 10**6))),
        counter_lanes=draw(hnp.arrays(np.int8, crossings, elements=st.integers(0, 2))),
        sample_times=np.arange(samples) * 0.5,
        speed_samples=draw(float_block(samples, n)),
        events=events,
        terminated_by_collision=False,
        end_time=1.0,
        full=draw(st.none() | traces()),
    )


@settings(max_examples=150, deadline=None)
@given(traces(), st.none() | st.text(max_size=12))
def test_rows_csv_matches_the_per_value_writer(trace, header_comment):
    want = reference_rows_csv(trace, header_comment)
    assert trace.rows_csv(header_comment) == want
    assert "".join(trace.rows_csv_chunks(header_comment)) == want


@settings(max_examples=150, deadline=None)
@given(ring_traces())
def test_ring_writers_match_the_per_value_writers(rt):
    assert rt.counters_csv() == reference_counters_csv(rt)
    assert rt.serialize() == reference_serialize(rt)


def test_ring_serialize_peak_memory_stays_within_three_times_its_output():
    """The identity bytes are built a row at a time: formatting them must not
    hold one string object per speed sample."""
    rt = run_ring(RingSpec(density=40.0, warmup=5.0, duration=20.0, seed=0))
    assert rt.speed_samples.shape == (41, 400)
    tracemalloc.start()
    try:
        out = rt.serialize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(out), f"peak {peak} B for {len(out)} B of output"
