"""Golden trace hashes: the engines reproduce, byte for byte, the traces
recorded before they were last restructured.

``golden_traces.json`` holds the sha256 of ``Trace.serialize()`` for every
trace of ``sweep_single(4)`` (both scenarios) and for a few direct cases that
reach the remaining code paths: an independent spring-damper head, long
homogeneous chains, a collision on the first tick, a coarser control period
and ``-GGPGGPG``, whose spring-damper members are the ones that tell two
summation orders of the spring-damper field apart.  ``golden_ring.json`` holds
the sha256 of ``RingTrace.serialize()`` for short full-trace ring runs of the
PATH and Ploeg policies and both baselines, with lane changes and without any
car under auto-hold, of a mixed-policy run whose spring-damper cars enter
override, and of a mixed-policy run under a coarse control period that ends
in two collisions on one tick (which pins collision events and their
order).  Its ``spawn`` entry holds, for spawns on the default ring, the
sha256 of every ``RingWorld`` array or the ``SpawnError`` text: together they
reach comfortable placement, overflow at jam spacing, mixed-policy letters
and each way a spawn fails.  ``python tests/test_golden_traces.py --record``
rewrites both files from whatever engine is current.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixcacc.experiments import baseline_configs, mixed_configs
from mixcacc.ring import RingSpec, SpawnError, run_ring, spawn_ring_traffic
from mixcacc.scenarios import (
    BRAKING,
    CONTROL_DT,
    SINUSOIDAL,
    SingleScenario,
    run_platoon_batch,
    run_single_platoon,
)

GOLDEN = Path(__file__).with_name("golden_traces.json")
GOLDEN_RING = Path(__file__).with_name("golden_ring.json")

SWEEP_N = 4

# name -> (scenario kind, config, extra SingleScenario fields, control period)
DIRECT = {
    "GGGG-sinusoidal": (SINUSOIDAL, "GGGG", {}, CONTROL_DT),
    "-PLG-sinusoidal": (SINUSOIDAL, "-PLG", {}, CONTROL_DT),
    "-LLLLLLL-sinusoidal": (SINUSOIDAL, "-LLLLLLL", {}, CONTROL_DT),
    "-PPPPPPP-sinusoidal": (SINUSOIDAL, "-PPPPPPP", {}, CONTROL_DT),
    "-AA-braking-overlap": (BRAKING, "-AA", {"initial_gap_offsets": {1: -34.4}}, CONTROL_DT),
    "-PL-sinusoidal-dt0.2": (SINUSOIDAL, "-PL", {}, 0.2),
    "-GGPGGPG-sinusoidal": (SINUSOIDAL, "-GGPGGPG", {}, CONTROL_DT),
}

# name -> RingSpec fields of a 40 s full-trace run on a 2 km ring
RING = {
    "P-d60-N4-R0.5": dict(density=60, penetration=0.5, platoon_size=4, platoon_policy="P"),
    "L-d60-N4-R0.5": dict(density=60, penetration=0.5, platoon_size=4, platoon_policy="L"),
    "ACC-d60": dict(density=60, baseline="ACC"),
    "IDM-d60": dict(density=60, baseline="IDM"),
    "MIX-d60-N4-R0.5": dict(density=60, penetration=0.5, platoon_size=4, platoon_policy="MIX"),
    "MIX-d100-N4-R0.5-dt0.5-collision": dict(density=100, penetration=0.5, platoon_size=4,
                                             platoon_policy="MIX", control_dt=0.5),
}

# name -> RingSpec fields of a seed-0 spawn on the default 10 km, 3-lane ring
SPAWN = {
    "ACC-d20": dict(density=20),                     # comfortable spacing
    "ACC-d180": dict(density=180),                   # overflow at jam spacing
    "IDM-d180": dict(density=180, baseline="IDM"),
    "MIX-d160-N8-R0.5": dict(density=160, penetration=0.5, platoon_policy="MIX"),
    "P-d60-N16-R0.5": dict(density=60, penetration=0.5, platoon_size=16),
    "G-d100-N4-R0.25-IDM": dict(density=100, penetration=0.25, platoon_size=4,
                                platoon_policy="G", baseline="IDM"),
    "P-d400-N8-R1": dict(density=400, penetration=1.0),   # lane capacity
    "ACC-d500": dict(density=500),                         # geometric limit
    "ACC-d0.05": dict(density=0.05),                       # density too low
}


def sweep_configs(n: int = SWEEP_N) -> list[str]:
    """Distinct configs of a sweep: the baselines, then every mix."""
    return list(dict.fromkeys(baseline_configs(n) + mixed_configs(n)))


def digest(trace) -> str:
    return hashlib.sha256(trace.serialize()).hexdigest()


def direct_trace(name: str):
    kind, config, extra, control_dt = DIRECT[name]
    scn = SingleScenario(kind=kind, config=config, **extra)
    return run_single_platoon(scn, control_dt=control_dt)


def ring_trace(name: str):
    return run_ring(RingSpec(circumference=2000.0, duration=30.0, warmup=10.0, seed=0,
                             record_full_trace=True, **RING[name]))


def spawn_digest(name: str) -> dict | str:
    try:
        world = spawn_ring_traffic(RingSpec(seed=0, **SPAWN[name]))
    except SpawnError as exc:
        return str(exc)
    return {
        field: hashlib.sha256(v.dtype.str.encode() + v.tobytes()).hexdigest()
        for field, v in vars(world).items() if isinstance(v, np.ndarray)
    }


def record() -> dict:
    golden = {
        "sweep": {
            kind: {
                c: digest(run_single_platoon(SingleScenario(kind=kind, config=c)))
                for c in sweep_configs()
            }
            for kind in (SINUSOIDAL, BRAKING)
        },
        "direct": {name: digest(direct_trace(name)) for name in DIRECT},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    rings = {name: digest(ring_trace(name)) for name in RING}
    rings["spawn"] = {name: spawn_digest(name) for name in SPAWN}
    GOLDEN_RING.write_text(json.dumps(rings, indent=1, sort_keys=True) + "\n")
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", [SINUSOIDAL, BRAKING])
def test_sweep_batch_reproduces_golden_traces(golden, kind):
    configs = sweep_configs()
    traces = run_platoon_batch([SingleScenario(kind=kind, config=c) for c in configs])
    assert {c: digest(t) for c, t in zip(configs, traces)} == golden["sweep"][kind]


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_direct_run_reproduces_golden_trace(golden, name):
    assert digest(direct_trace(name)) == golden["direct"][name]


@pytest.mark.parametrize("name", sorted(RING))
def test_ring_run_reproduces_golden_trace(name):
    assert digest(ring_trace(name)) == json.loads(GOLDEN_RING.read_text())[name]


@pytest.mark.parametrize("name", sorted(SPAWN))
def test_spawn_reproduces_golden_world(name):
    assert spawn_digest(name) == json.loads(GOLDEN_RING.read_text())["spawn"][name]


# 12 s with the braking ramp at 4 s keeps each example cheap and still covers
# cruise, emergency braking and standstill.
_SHORT = dict(kind=BRAKING, duration=12.0, brake_onset=4.0)
_LETTERS = "AGLP"


@st.composite
def _batch(draw):
    configs = draw(st.lists(
        st.text(alphabet=_LETTERS, min_size=SWEEP_N - 1, max_size=SWEEP_N - 1).map(
            lambda s: "-" + s),
        min_size=1, max_size=5,
    ))
    # one row starts with its first follower inside the head: it collides on
    # the first tick and must leave the other rows untouched
    crash = draw(st.text(alphabet=_LETTERS, min_size=SWEEP_N - 1, max_size=SWEEP_N - 1))
    rows = [SingleScenario(config=c, **_SHORT) for c in configs]
    rows.append(SingleScenario(config="-" + crash, initial_gap_offsets={1: -60.0}, **_SHORT))
    return draw(st.permutations(rows))


@settings(max_examples=12, deadline=None)
@given(_batch())
def test_batch_rows_equal_one_at_a_time_runs(rows):
    batched = run_platoon_batch(rows)
    assert sum(t.terminated_by_collision for t in batched) >= 1
    for scn, trace in zip(rows, batched):
        assert trace.serialize() == run_single_platoon(scn).serialize()



@st.composite
def _mixed_timelines(draw):
    """Sinusoidal and braking rows of different durations, in random order,
    one of which collides on its first tick."""
    def row(config, **extra):
        kind = draw(st.sampled_from([SINUSOIDAL, BRAKING]))
        timeline = dict(_SHORT) if kind == BRAKING else dict(kind=SINUSOIDAL)
        timeline["duration"] = draw(st.sampled_from([6.0, 9.0, 12.0]))
        return SingleScenario(config=config, **timeline, **extra)

    platoon = st.text(alphabet=_LETTERS, min_size=SWEEP_N - 1, max_size=SWEEP_N - 1)
    rows = [row("-" + c) for c in draw(st.lists(platoon, min_size=1, max_size=5))]
    rows.append(row("-" + draw(platoon), initial_gap_offsets={1: -60.0}))
    return draw(st.permutations(rows))


@settings(max_examples=12, deadline=None)
@given(_mixed_timelines())
def test_rows_of_different_timelines_equal_one_at_a_time_runs(rows):
    assume(len({(scn.kind, scn.duration) for scn in rows}) > 1)
    batched = run_platoon_batch(rows)
    assert sum(t.terminated_by_collision for t in batched) >= 1
    for scn, trace in zip(rows, batched):
        assert trace.scenario_kind == scn.kind
        assert trace.serialize() == run_single_platoon(scn).serialize()

if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_traces.py --record")
    record()
