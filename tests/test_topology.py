"""Composition parsing, leader election and communication matrices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixcacc.config import UsageError
from mixcacc.topology import (
    EXTERNAL_REF,
    connectivity_matrix,
    elect_ego_leaders,
    extended_connectivity_matrix,
    parse_config,
)

follower_letters = st.sampled_from("APLG")
configs = st.one_of(
    st.tuples(st.just("-"), st.text(follower_letters.map(str), min_size=1, max_size=7)),
    st.tuples(st.sampled_from("APLG"), st.text(follower_letters.map(str), min_size=1, max_size=7)),
).map(lambda t: t[0] + t[1])


def test_parse_roundtrip():
    cfg = parse_config("-PLG")
    assert len(cfg) == 4
    assert tuple(cfg) == ("-", "P", "L", "G")
    assert str(cfg) == "-PLG"


@pytest.mark.parametrize("bad", ["", "-", "P"])
def test_parse_rejects_too_short(bad):
    with pytest.raises(UsageError):
        parse_config(bad)


def test_parse_rejects_unknown_letter_with_position():
    with pytest.raises(UsageError, match="2"):
        parse_config("-PXP")


def test_parse_rejects_misplaced_independent_head():
    with pytest.raises(UsageError):
        parse_config("P-LP")


@given(configs)
def test_parse_format_roundtrip(text):
    assert str(parse_config(text)) == text


# ---------------------------------------------------------------------------
# leader election
# ---------------------------------------------------------------------------

def test_election_mixed_example():
    """Each vehicle elects the first preceding vehicle of a different kind."""
    assert elect_ego_leaders("-PLPP") == {1: 0, 2: 1, 3: 2, 4: 2}


def test_election_independent_head_differs_from_all():
    assert elect_ego_leaders("-PPPP") == {1: 0, 2: 0, 3: 0, 4: 0}


def test_election_homogeneous_head_yields_no_leader():
    leaders = elect_ego_leaders("GGGGG")
    assert all(leaders[i] is EXTERNAL_REF for i in range(1, 5))


def test_election_two_blocks():
    assert elect_ego_leaders("GGPPPL") == {1: EXTERNAL_REF, 2: 1, 3: 1, 4: 1, 5: 4}


@given(configs)
def test_election_matches_backward_scan(text):
    """The election must equal a plain backward scan for a different letter."""
    cfg = parse_config(text)
    leaders = elect_ego_leaders(cfg)
    for i in range(1, len(cfg)):
        expect = EXTERNAL_REF
        for j in range(i - 1, -1, -1):
            # the profile-driven head counts as different from every policy
            if cfg[j] != cfg[i] or cfg[j] == "-":
                expect = j
                break
        assert leaders[i] == expect


# ---------------------------------------------------------------------------
# communication matrices
# ---------------------------------------------------------------------------

def test_matrix_independent_head_with_leader_links():
    m = connectivity_matrix("-PPPP")
    assert m.to_lists() == [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0],
        [1, 0, 1, 1, 0],
        [1, 0, 0, 1, 1],
    ]


def test_matrix_predecessor_following_is_bidiagonal():
    m = connectivity_matrix("-LLLL")
    assert m.to_lists() == [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1],
    ]


def test_matrix_bidirectional_chain():
    m = connectivity_matrix("GGGGG")
    assert m.to_lists() == [
        [1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1],
    ]


def test_extended_matrix_homogeneous_bidirectional():
    m = extended_connectivity_matrix("GGGGG")
    assert m.has_external_ref
    assert m.to_lists() == [
        [1, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 0, 0],
        [1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 1, 1],
        [1, 0, 0, 0, 1, 1],
    ]


def test_extended_matrix_two_block_platoon():
    m = extended_connectivity_matrix("GGPPPL")
    assert m.to_lists() == [
        [1, 1, 1, 0, 0, 0, 0],
        [1, 1, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 0, 0, 1, 1],
    ]


def test_extended_head_guidance_flag():
    plain = extended_connectivity_matrix("-PPPP")
    guided = extended_connectivity_matrix("-PPPP", head_externally_guided=True)
    assert plain.to_lists()[0][0] == 0
    assert guided.to_lists()[0][0] == 1
    # followers are unaffected by how the head is driven
    assert plain.to_lists()[1:] == guided.to_lists()[1:]


@given(configs)
def test_extended_matrix_extends_the_base(text):
    base = connectivity_matrix(text)
    ext = extended_connectivity_matrix(text)
    assert np.array_equal(ext.cells[:, 1:], base.cells)


@given(configs)
def test_row_membership_bounds(text):
    """Every row holds itself plus one to three information sources."""
    cfg = parse_config(text)
    m = connectivity_matrix(cfg)
    sums = m.cells.sum(axis=1)
    for i in range(len(cfg)):
        assert m.cells[i, i] == 1
        assert 1 <= sums[i] <= 4
        if cfg[i] == "L" and i > 0:
            assert sums[i] == 2
        if cfg[i] == "P" and i > 0:
            assert sums[i] in (2, 3)


def test_classification():
    """Forward-only laws give lower-triangular matrices; the successor
    coupling of the spring-damper law breaks that, and the extended matrix
    is not square."""
    def lower(m):
        return not np.triu(m.cells, k=1).any()

    assert lower(connectivity_matrix("-PPPP"))
    assert lower(connectivity_matrix("-LLLL"))
    assert not lower(connectivity_matrix("GGGGG"))
    assert extended_connectivity_matrix("GGGGG").shape == (5, 6)


def test_matrix_text_rendering():
    text = connectivity_matrix("-LL").to_text()
    assert text.splitlines()[0].split() == ["1", "0", "0"]
    ext_text = extended_connectivity_matrix("-LL").to_text()
    assert "|" in ext_text
