"""Every function the layer tracer wraps must still exist where it looks,
and every counter hook must read the argument it means.

``perfbench/run.py --trace 1`` patches the names listed in
``perfbench/layers.py``; a rename or deletion in the package would make it
fail only when tracing is switched on, and a reordered signature would make
a hook count the wrong thing without failing at all.
"""

import importlib
import importlib.util
import pathlib

from mixcacc import ring

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_traced_names_resolve():
    layers = _layers()
    missing = [
        f"{module}.{attr}" for module, attr, _, _ in layers.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert layers.WRAPPED and missing == []


def test_ring_counter_hooks_count_what_they_name():
    """A short d=60 P run on a 2 km ring: 120 cars and a few dozen lane
    changes, counted by the hooks and by the trace alike."""
    spec = ring.RingSpec(density=60, penetration=0.5, platoon_size=8, circumference=2000.0,
                         warmup=0.0, duration=20.0, seed=1)
    with _layers().Tracer() as tracer:
        trace = ring.run_ring(spec)
    assert not trace.terminated_by_collision
    ticks = round((spec.warmup + spec.duration) / spec.control_dt)
    changes = sum(ev.kind == "lane_change" for ev in trace.events)
    assert changes > 0
    assert tracer.counters["ring._vec_target_check.candidates"] > 0
    assert tracer.counters["ring.veh_ticks"] == trace.n_vehicles * ticks
    assert tracer.counters["ring.lane_changes"] == changes
