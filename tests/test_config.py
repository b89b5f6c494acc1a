"""INI parameter files: one schema drives loading, writing and hashing."""

import configparser

import pytest
from hypothesis import given, strategies as st

from mixcacc.config import (
    SCHEMA,
    Config,
    ConfigFileError,
    MobilitySpec,
    config_to_text,
    load_config,
    spec_hash,
)
from mixcacc.controllers import (
    AccParams,
    ControllerSet,
    GsblParams,
    IdmParams,
    PathParams,
    PloegParams,
)
from mixcacc.dynamics import DynamicsParams

SINGLE = {"sweep": "single", "n": 4, "kind": "sinusoidal", "duration": None, "seed": 0}
RING = {"sweep": "ring", "duration": None, "warmup": None, "seed": 0}

EVERY_KEY = """
[dynamics]
powertrain lag = 0.45
dt = 0.005
u_min = -7.5
u_max = 2.0
emergency u_min = -9.5

[acc]
H = 1.1
lambda = 0.2

[ploeg]
H = 0.6
kp = 0.25
kd = 0.65

[path]
C1 = 0.4
xi = 1.2
omega_n = 0.3
dd = 6.0

[gsbl]
k = 0.8
h = 0.6
r = 0.75
r_min = 0.6
r_max = 7.0
d = 6.0
delta_a = -2.5
delta_t = 1.5

[idm]
v0 = 30.0
T = 1.5
a_max = 1.0
b_comf = 1.5
s0 = 2.5
delta = 3.5

[mobility]
lanes = 2
circumference = 8000
desired speeds = 90, 120
speed jitter = 4
densities = 20, 40.5
platoon sizes = 4.0, 6
penetration rates = 0.3, 0.6
duration = 300
warmup = 60
counter window = 10
volatility sample dt = 1.0
"""


def test_default_hashes_are_pinned():
    """Values computed by the hand-written loader the schema replaced."""
    assert spec_hash(Config()) == "c48daacbe3aa95f4"
    assert spec_hash(Config(), SINGLE) == "3e982b5fcca2708c"
    assert spec_hash(Config(), RING) == "98f7f79f0651f54b"


def test_every_key_file_hash_is_pinned():
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(EVERY_KEY)
    assert {(s, k) for s in parser.sections() for k in parser[s]} == {
        (s, k) for s, k, _ in SCHEMA
    }
    cfg = load_config(EVERY_KEY)
    default_lines = config_to_text(Config()).splitlines()
    for line, default in zip(config_to_text(cfg).splitlines(), default_lines):
        assert line != default or " = " not in line   # every value moved
    assert spec_hash(cfg) == "78bb109a093d8321"
    assert spec_hash(cfg, SINGLE) == "f5ff37be70f9cf71"


def test_list_casts():
    mob = load_config(EVERY_KEY).mobility
    assert mob.densities == (20.0, 40.5)
    assert all(type(d) is float for d in mob.densities)
    assert mob.platoon_sizes == (4, 6)
    assert all(type(n) is int for n in mob.platoon_sizes)
    assert mob.lanes == 2 and type(mob.lanes) is int


@pytest.mark.parametrize("text,name", [
    ("[acc]\nlam = 2.0\n", "'lam'"),
    ("[acc]\nlambda = 2.0\n[nosuch]\nx = 1\n", "[nosuch]"),
    ("[nosuch]\n", "[nosuch]"),
    ("[mobility]\ntau = 0.4\n", "'tau'"),
    ("[DEFAULT]\nH = 2.0\n[acc]\nlambda = 0.1\n", "[DEFAULT]"),
])
def test_unknown_section_or_key_is_rejected(text, name):
    with pytest.raises(ConfigFileError) as info:
        load_config(text)
    assert name in str(info.value)


@pytest.mark.parametrize("text", [
    "[dynamics]\ndt = fast\n",
    "[mobility]\nlanes = 2.5\n",
    "[acc]\nH = 0\n",
    "[path]\nC1 = 1.5\n",
])
def test_bad_values_are_config_file_errors(text):
    with pytest.raises(ConfigFileError):
        load_config(text)


@st.composite
def configs(draw):
    def f(lo=-1e6, hi=1e6):
        return draw(st.floats(lo, hi))

    def many(elements):
        return tuple(draw(st.lists(elements, min_size=1, max_size=4)))

    u_min = f(-100.0, -1e-3)
    r_min = f(0.0, 10.0)
    dt = f(1e-4, 1.0)
    return Config(
        dynamics=DynamicsParams(
            tau=dt + f(0.0, 10.0), dt=dt, u_min=u_min, u_max=f(1e-3, 100.0),
            emergency_u_min=u_min - f(0.0, 10.0),
        ),
        controllers=ControllerSet(
            acc=AccParams(H=f(1e-3, 10.0), lam=f()),
            ploeg=PloegParams(H=f(1e-3, 10.0), kp=f(), kd=f()),
            path=PathParams(c1=f(1e-3, 0.999), xi=f(1.0, 10.0), omega_n=f(1e-3, 10.0), dd=f()),
            gsbl=GsblParams(k=f(), h=f(), r_default=f(), r_min=r_min,
                            r_max=r_min + f(0.0, 10.0), d=f(), delta_a=f(), delta_t=f()),
            idm=IdmParams(v0=f(), T=f(), a_max=f(), b_comf=f(), s0=f(), delta=f()),
        ),
        mobility=MobilitySpec(
            lanes=draw(st.integers(1, 6)), circumference=f(),
            speed_classes_kmh=many(st.floats(-1e6, 1e6)), speed_jitter_kmh=f(),
            densities=many(st.floats(-1e6, 1e6)), platoon_sizes=many(st.integers(0, 64)),
            penetration_rates=many(st.floats(-1e6, 1e6)), ring_duration=f(),
            ring_warmup=f(), counter_window=f(), volatility_sample_dt=f(),
        ),
    )


@given(configs())
def test_text_round_trip(cfg):
    again = load_config(config_to_text(cfg))
    assert again == cfg
    assert spec_hash(again) == spec_hash(cfg)
