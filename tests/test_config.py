"""INI parameter files: one schema drives loading, writing and hashing."""

import ast
import configparser
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mixcacc import ring
from mixcacc.config import (
    SCHEMA,
    Config,
    MobilitySpec,
    UsageError,
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
        (s, k) for s, k, _, _ in SCHEMA
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
    with pytest.raises(UsageError) as info:
        load_config(text)
    assert name in str(info.value)


# a value just outside each domain
OUTSIDE = {"positive": "0", "negative": "0", "non-negative": "-1", "at least 1": "0",
           "at least 2": "1", "in (0, 1)": "1", "in [0, 1]": "-1"}


@pytest.mark.parametrize("text", list(dict.fromkeys([
    "[dynamics]\ndt = fast\n",
    "[mobility]\nlanes = 2.5\n",
    "[acc]\nH = 0\n",
    "[path]\nC1 = 1.5\n",
    *(f"[{section}]\n{key} = {OUTSIDE[domain]}\n" for section, key, _, domain in SCHEMA),
])))
def test_bad_values_are_config_file_errors(text):
    """Every row's domain is checked on load, and the error names the key."""
    name = text.replace("]\n", "] ").partition(" = ")[0]
    with pytest.raises(UsageError, match=re.escape(name)):
        load_config(text)


# numbers inside each domain
INSIDE = {
    "positive": st.floats(0.0, 1e6, exclude_min=True),
    "negative": st.floats(-1e6, -0.0, exclude_max=True),
    "non-negative": st.floats(0.0, 1e6),
    "at least 1": st.floats(1.0, 1e6),
    "at least 2": st.floats(2.0, 1e6),
    "in (0, 1)": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "in [0, 1]": st.floats(0.0, 1.0),
}
DOMAIN = {(section, key): domain for section, key, _, domain in SCHEMA}


@st.composite
def configs(draw):
    """A configuration that sets every key, each drawn from its domain; a
    key that a cross-field rule bounds is drawn as an offset from its bound."""
    def f(section, key):
        return draw(INSIDE[DOMAIN[section, key]])

    def whole(section, key):
        return draw(INSIDE[DOMAIN[section, key]].map(math.floor))

    def many(key, one=f):
        return tuple(one("mobility", key) for _ in range(draw(st.integers(1, 4))))

    u_min, r_min, dt = f("dynamics", "u_min"), f("gsbl", "r_min"), f("dynamics", "dt")
    return Config(
        dynamics=DynamicsParams(
            tau=dt + f("dynamics", "powertrain lag"), dt=dt, u_min=u_min,
            u_max=f("dynamics", "u_max"),
            emergency_u_min=u_min + f("dynamics", "emergency u_min"),
        ),
        controllers=ControllerSet(
            acc=AccParams(H=f("acc", "H"), lam=f("acc", "lambda")),
            ploeg=PloegParams(H=dt + f("ploeg", "H"), kp=f("ploeg", "kp"), kd=f("ploeg", "kd")),
            path=PathParams(c1=f("path", "C1"), xi=f("path", "xi"),
                            omega_n=f("path", "omega_n"), dd=f("path", "dd")),
            gsbl=GsblParams(k=f("gsbl", "k"), h=f("gsbl", "h"), r_default=f("gsbl", "r"),
                            r_min=r_min, r_max=r_min + f("gsbl", "r_max"), d=f("gsbl", "d"),
                            delta_a=f("gsbl", "delta_a"), delta_t=f("gsbl", "delta_t")),
            idm=IdmParams(v0=f("idm", "v0"), T=f("idm", "T"), a_max=f("idm", "a_max"),
                          b_comf=f("idm", "b_comf"), s0=f("idm", "s0"),
                          delta=f("idm", "delta")),
        ),
        mobility=MobilitySpec(
            lanes=whole("mobility", "lanes"), circumference=f("mobility", "circumference"),
            speed_classes_kmh=many("desired speeds"),
            speed_jitter_kmh=f("mobility", "speed jitter"), densities=many("densities"),
            platoon_sizes=many("platoon sizes", whole),
            penetration_rates=many("penetration rates"),
            ring_duration=f("mobility", "duration"), ring_warmup=f("mobility", "warmup"),
            counter_window=f("mobility", "counter window"),
            volatility_sample_dt=f("mobility", "volatility sample dt"),
        ),
    )


@given(configs())
def test_text_round_trip(cfg):
    again = load_config(config_to_text(cfg))
    assert again == cfg
    assert spec_hash(again) == spec_hash(cfg)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_table_lists_the_schema():
    """The README's key table is SCHEMA's sections, keys and domains, row for row."""
    readme = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `([^`]+)`[^|]* \| ([^|]+?) \|", readme, re.M)
    assert rows == [(section, key, domain) for section, key, _, domain in SCHEMA]


def test_readme_gap_acceptance_table_lists_the_ring_constants():
    """The README's gap-acceptance table is ``ring``'s constants from
    ``LC_COOLDOWN`` to ``FREE_GAP``, in source order, with their values."""
    rows = re.findall(r"^\| `(\w+)` \| ([\d.]+)(?: \w+)? \|",
                      README.read_text(encoding="utf-8"), re.M)
    body = ast.parse(Path(ring.__file__).read_text(encoding="utf-8")).body
    names = [node.targets[0].id for node in body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)]
    names = names[names.index("LC_COOLDOWN"):names.index("FREE_GAP") + 1]
    assert len(names) == 8
    assert [(name, float(value)) for name, value in rows] == [
        (name, getattr(ring, name)) for name in names]


def test_readme_python_examples_run():
    """Every ``python`` block of the README runs as it stands."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
