"""Exact identity checks: both sides as Fractions, equality or falsification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dombcheck import identities, sequences
from dombcheck.identities import (
    BadIndex,
    EvenN,
    check_b1,
    check_b2,
    check_b10gen,
    check_c2,
    check_d2,
    check_e_full,
    check_e_inner,
    check_rearrangement,
    check_transformation,
)
from dombcheck.checks import CHECKS
from dombcheck.sequences import binomial, catalan, central_binomial, franel

nn = st.integers


TRANSFORMATION_TAGS = ("cz", "sunzh", "ctyz")


def test_tag_catalogs():
    identity_tags = [t for t, c in CHECKS.items() if c.suite == "identities"]
    assert set(TRANSFORMATION_TAGS) <= set(identity_tags)
    assert len(identity_tags) == 14


# ---------------------------------------------------------------- transformations

@pytest.mark.parametrize("tag", TRANSFORMATION_TAGS)
def test_transformations_hold_on_a_range(tag):
    for n in range(31):
        rep = check_transformation(tag, n)
        assert rep.holds
        assert rep.id == tag
        assert rep.params == (n,)
        assert isinstance(rep.lhs, Fraction)


def test_transformation_validation():
    with pytest.raises(ValueError):
        check_transformation("nope", 3)
    with pytest.raises(ValueError):
        check_transformation("cz", -1)


# ---------------------------------------------------------------- inner sums

def test_c2_holds_on_the_full_small_triangle():
    for n in range(1, 26):
        for i in range(n):
            assert check_c2(n, i).holds


def test_c2_rejects_indices_outside_the_triangle():
    with pytest.raises(BadIndex):
        check_c2(5, 5)
    with pytest.raises(BadIndex):
        check_c2(5, -1)
    with pytest.raises(BadIndex):
        check_c2(0, 0)


def test_d2_holds_on_the_full_small_triangle():
    for n in range(1, 26):
        for i in range((n - 1) // 2 + 1):
            assert check_d2(n, i).holds


def test_d2_rejects_indices_outside_the_triangle():
    with pytest.raises(BadIndex):
        check_d2(6, 3)  # 2i = 6 > n-1
    with pytest.raises(BadIndex):
        check_d2(6, -1)


@settings(max_examples=40)
@given(nn(min_value=1, max_value=70), nn(min_value=0, max_value=69))
def test_e_inner_holds_everywhere_sampled(n, i):
    if i >= n:
        i = n - 1
    assert check_e_inner("e_inner_plus", n, i).holds
    assert check_e_inner("e_inner_alt", n, i).holds


def test_e_inner_validation():
    with pytest.raises(ValueError):
        check_e_inner("nope", 3, 1)
    with pytest.raises(BadIndex):
        check_e_inner("e_inner_plus", 3, 3)


# the inner-sum left sides summed afresh for each cell, O(n) terms each: the
# oracle for the running prefixes
DIRECT_LHS = {
    "c2": lambda n, i: sum(
        Fraction(3 * k + 1, (-2) ** k) * binomial(k + 2 * i, 3 * i)
        for k in range(i, n)
    ),
    "d2": lambda n, i: sum(
        (-2) ** k * (3 * k + 2) * binomial(k + i, 3 * i) for k in range(2 * i, n)
    ),
    "e_inner_plus": lambda n, i: sum(
        (2 * k + 1) * binomial(k, i) * binomial(k + i, i) for k in range(i, n)
    ),
    "e_inner_alt": lambda n, i: sum(
        (-1) ** k * (2 * k + 1) * binomial(k, i) * binomial(k + i, i)
        for k in range(i, n)
    ),
}

def _holds(tag, *args):
    """Whether every report row of one registry check at args holds."""
    return all(holds for *_, holds in CHECKS[tag].evaluate(*args))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("tag", sorted(DIRECT_LHS))
def test_inner_prefixes_equal_the_direct_sums(tag, order):
    cells = list(CHECKS[tag].grid(40, []))
    if order == "descending":
        cells.reverse()
    elif order == "shuffled":
        random.Random(3).shuffle(cells)
    for n, i in cells:
        [(_, lhs, _, _, holds)] = CHECKS[tag].evaluate(n, i)
        assert lhs == DIRECT_LHS[tag](n, i), (n, i)
        assert holds


@pytest.mark.parametrize("tag", sorted(DIRECT_LHS))
def test_a_corrupted_prefix_is_caught(tag, monkeypatch):
    assert _holds(tag, 9, 3)
    n, acc = sequences._cursors[(tag, 3)]
    monkeypatch.setitem(sequences._cursors, (tag, 3), (n, acc + 1))
    assert not _holds(tag, 10, 3)


# each mutant perturbs an ingredient that only the right side uses
_bad_central = [central_binomial[i] + (i == 1) for i in range(21)]


def _bad_franel(i):
    return franel(i) + (i == 4)


RHS_MUTANTS = [
    ("e_inner_plus", "catalan", lambda i: catalan(i) + (i == 2)),
    ("c3", "central_binomial", _bad_central),
    ("d3", "central_binomial", _bad_central),
    ("e1", "franel", _bad_franel),
    ("e2", "franel", _bad_franel),
]


@pytest.mark.parametrize("tag, name, mutant", RHS_MUTANTS, ids=[m[0] for m in RHS_MUTANTS])
def test_a_mutated_right_side_is_caught(tag, name, mutant, monkeypatch):
    monkeypatch.setattr(identities, name, mutant)
    assert not all(_holds(tag, *args) for args in CHECKS[tag].grid(20, []))


# ---------------------------------------------------------------- rearrangements

@pytest.mark.parametrize("tag", ["c3", "d3"])
def test_rearrangements_hold_for_odd_n(tag):
    for n in range(1, 42, 2):
        rep = check_rearrangement(tag, n)
        assert rep.holds
        assert rep.params == (n,)


@pytest.mark.parametrize("bad_n", [0, 2, 10, -3])
def test_rearrangements_need_odd_positive_n(bad_n):
    with pytest.raises(EvenN):
        check_rearrangement("c3", bad_n)


def test_rearrangement_unknown_tag():
    with pytest.raises(ValueError):
        check_rearrangement("b1", 3)


# ---------------------------------------------------------------- harmonic-weight sums

def test_b1_frozen_small_case():
    rep = check_b1(1)
    assert rep.lhs == rep.rhs == Fraction(-1)


@settings(max_examples=30)
@given(nn(min_value=0, max_value=80))
def test_b1_holds_everywhere_sampled(n):
    assert check_b1(n).holds


@settings(max_examples=25)
@given(nn(min_value=0, max_value=60))
def test_b2_holds_everywhere_sampled(n):
    assert check_b2(n).holds


def test_b1_b2_validation():
    with pytest.raises(ValueError):
        check_b1(-1)
    with pytest.raises(ValueError):
        check_b2(-1)


def test_b10gen_frozen_small_case():
    rep = check_b10gen(2)
    assert rep.lhs == Fraction(-1, 2)
    assert rep.holds


@given(nn(min_value=0, max_value=400))
def test_b10gen_holds_for_any_m(m):
    assert check_b10gen(m).holds


def test_b10gen_validation():
    with pytest.raises(ValueError):
        check_b10gen(-1)


# ---------------------------------------------------------------- full expansions

@settings(max_examples=25)
@given(nn(min_value=1, max_value=60))
def test_e_full_holds_and_is_integral(n):
    for tag in ("e1", "e2"):
        rep = check_e_full(tag, n)
        assert rep.holds
        assert rep.lhs.denominator == 1  # the 1/n normalization divides exactly


def test_e_full_validation():
    with pytest.raises(ValueError):
        check_e_full("nope", 3)
    with pytest.raises(BadIndex):
        check_e_full("e1", 0)
