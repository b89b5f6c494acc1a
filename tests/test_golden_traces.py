"""Golden trace hashes: the batched single-platoon engine reproduces, byte for
byte, the traces of the one-vehicle-at-a-time engine it replaced.

``golden_traces.json`` holds the sha256 of ``Trace.serialize()`` for every
trace of ``sweep_single(4)`` (both scenarios) and for a few direct cases that
reach the remaining code paths: an independent spring-damper head, long
homogeneous chains, a collision on the first tick and a coarser control
period.  The hashes were recorded from the scalar engine before the batched
one replaced it; ``python tests/test_golden_traces.py --record`` rewrites them
from whatever engine is current.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcacc.experiments import baseline_configs, mixed_configs
from mixcacc.scenarios import (
    BRAKING,
    CONTROL_DT,
    SINUSOIDAL,
    SingleScenario,
    run_platoon_batch,
    run_single_platoon,
)

GOLDEN = Path(__file__).with_name("golden_traces.json")

SWEEP_N = 4

# name -> (scenario kind, config, extra SingleScenario fields, control period)
DIRECT = {
    "GGGG-sinusoidal": (SINUSOIDAL, "GGGG", {}, CONTROL_DT),
    "-PLG-sinusoidal": (SINUSOIDAL, "-PLG", {}, CONTROL_DT),
    "-LLLLLLL-sinusoidal": (SINUSOIDAL, "-LLLLLLL", {}, CONTROL_DT),
    "-PPPPPPP-sinusoidal": (SINUSOIDAL, "-PPPPPPP", {}, CONTROL_DT),
    "-AA-braking-overlap": (BRAKING, "-AA", {"initial_gap_offsets": {1: -34.4}}, CONTROL_DT),
    "-PL-sinusoidal-dt0.2": (SINUSOIDAL, "-PL", {}, 0.2),
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_traces.py --record")
    record()
