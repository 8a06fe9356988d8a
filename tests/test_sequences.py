"""Sequence generators pinned to known prefixes and to their defining sums.

The package fills its Domb table by the three-term recurrence and keeps the
defining sum as a separate route, `domb_by_definition`, which builds one row
by incremental multiplicative updates.  The tests require the two to agree,
and check the definition route in turn against an oracle that goes the
other way and evaluates the defining binomial sum with math.comb from
scratch.  The series partial sums are checked exactly against a running
Fraction sum, and the shared weighted Domb partial sum against a direct sum.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dombcheck
from dombcheck import sequences
from dombcheck.arith import NotPrime, primes_in_range
from dombcheck.checks import CHECKS
from dombcheck.sequences import (
    CCL_LIMIT,
    ROGERS_LIMIT,
    SequenceTable,
    binomial,
    catalan,
    ccl_partial,
    central_binomial,
    domb,
    domb_by_definition,
    domb_partial_sum,
    domb_via_cz,
    domb_via_ctyz,
    domb_via_sunzh,
    euler_number,
    euler_number_mod,
    euler_number_mod_by_secant,
    franel,
    rogers_partial,
)

DOMB_PREFIX = (1, 4, 28, 256, 2716, 31504, 387136)
FRANEL_PREFIX = (1, 2, 10, 56, 346, 2252)
CATALAN_PREFIX = (1, 1, 2, 5, 14, 42, 132, 429)
EULER_PREFIX = (1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765)


def domb_from_comb(n):
    return sum(
        math.comb(n, k) ** 2 * math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k)
        for k in range(n + 1)
    )


# ---------------------------------------------------------------- binomial

def test_binomial_matches_comb_inside_range():
    for n in range(20):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_is_zero_outside_the_triangle():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=300))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# ---------------------------------------------------------------- tables

def test_sequence_table_memoizes_and_exposes_prefix():
    calls = []

    def step(vals):
        calls.append(len(vals))
        return len(vals) ** 2

    tab = SequenceTable("squares", step)
    assert tab.id == "squares"
    assert tab[4] == 16
    assert tab[2] == 4
    assert calls == [0, 1, 2, 3, 4]  # each index computed exactly once
    assert [tab[i] for i in range(5)] == [0, 1, 4, 9, 16]
    assert calls == [0, 1, 2, 3, 4]


def test_sequence_table_rejects_negative_index():
    tab = SequenceTable("squares", lambda vals: len(vals) ** 2)
    with pytest.raises(IndexError):
        tab[-1]


def test_central_binomial_matches_comb():
    for n in range(60):
        assert central_binomial[n] == math.comb(2 * n, n)


# ---------------------------------------------------------------- sequences

def test_domb_prefix():
    assert tuple(domb(n) for n in range(7)) == DOMB_PREFIX


def test_domb_rejects_negative_index():
    with pytest.raises(ValueError):
        domb(-1)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=120))
def test_domb_matches_defining_sum(n):
    assert domb(n) == domb_from_comb(n)
    assert domb_by_definition(n) == domb_from_comb(n)


def test_domb_recurrence_matches_definition_route_to_600():
    assert [domb(n) for n in range(601)] == [domb_by_definition(n) for n in range(601)]


def test_domb_step_rejects_a_corrupted_prefix_under_optimized_mode():
    # python -O strips assert statements; the exactness guard must be a raise
    code = "from dombcheck.sequences import _domb_step; _domb_step([1, 4, 29])"
    src = os.path.dirname(os.path.dirname(dombcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "ArithmeticError: inexact division" in proc.stderr


def test_franel_prefix():
    assert tuple(franel(n) for n in range(6)) == FRANEL_PREFIX


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=150))
def test_franel_matches_cube_sum(n):
    assert franel(n) == sum(math.comb(n, k) ** 3 for k in range(n + 1))


def test_franel_recurrence_matches_cube_sum_to_300():
    assert [franel(n) for n in range(301)] == [
        sum(math.comb(n, k) ** 3 for k in range(n + 1)) for n in range(301)
    ]


def test_franel_step_rejects_a_corrupted_prefix_under_optimized_mode():
    code = "from dombcheck.sequences import _franel_step; _franel_step([1, 2, 11])"
    src = os.path.dirname(os.path.dirname(dombcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "ArithmeticError: inexact division" in proc.stderr


@given(st.integers(min_value=1, max_value=200))
def test_franel_is_even_past_zero(n):
    assert franel(n) % 2 == 0


def test_catalan_prefix_and_integrality():
    assert tuple(catalan(i) for i in range(8)) == CATALAN_PREFIX
    for i in range(40):
        assert math.comb(2 * i, i) % (i + 1) == 0
        assert catalan(i) == math.comb(2 * i, i) // (i + 1)


# ---------------------------------------------------------------- transformations

def test_five_routes_agree_on_a_small_range():
    for n in range(41):
        d = domb(n)
        assert domb_by_definition(n) == d
        assert domb_via_cz(n) == d
        assert domb_via_sunzh(n) == d
        assert domb_via_ctyz(n) == d


@pytest.mark.parametrize(
    "route", [domb_by_definition, domb_via_cz, domb_via_sunzh, domb_via_ctyz]
)
def test_transformations_reject_negative_index(route):
    with pytest.raises(ValueError):
        route(-2)


# ---------------------------------------------------------------- euler numbers

def test_euler_prefix():
    assert tuple(euler_number(n) for n in range(13)) == EULER_PREFIX


def test_euler_recurrence_closes():
    for m in range(1, 13):
        acc = sum(math.comb(2 * m, 2 * j) * euler_number(2 * j) for j in range(m + 1))
        assert acc == 0


def test_euler_number_mod_frozen_examples():
    assert euler_number_mod(2, 5).value == 4
    assert euler_number_mod(4, 7).value == 5
    assert euler_number_mod(3, 11).value == 0


@given(st.integers(min_value=0, max_value=60), st.sampled_from((3, 5, 7, 11, 13, 31, 47)))
def test_euler_number_mod_matches_exact_value(n, p):
    """The in-ring recurrence agrees with the exact one, including n >= p."""
    assert euler_number_mod(n, p).value == euler_number(n) % p


def test_euler_number_mod_rejects_bad_input():
    with pytest.raises(NotPrime):
        euler_number_mod(4, 6)
    with pytest.raises(ValueError):
        euler_number_mod(-1, 5)
    with pytest.raises(ValueError):
        euler_number(-1)


def test_secant_route_equals_the_pascal_route_to_997():
    """E_{p-3} mod p, the residue every congruence right side reads, by the
    secant route against the Pascal-triangle recurrence at every prime."""
    for p in primes_in_range(5, 997):
        assert euler_number_mod_by_secant(p - 3, p) == euler_number_mod(p - 3, p), p


def test_secant_route_equals_the_exact_value():
    for p in primes_in_range(2, 50):
        for n in range(p):
            assert euler_number_mod_by_secant(n, p).value == euler_number(n) % p, (n, p)


def test_secant_route_rejects_bad_input():
    with pytest.raises(NotPrime):
        euler_number_mod_by_secant(4, 9)
    with pytest.raises(ValueError):
        euler_number_mod_by_secant(-2, 5)
    with pytest.raises(ValueError):
        euler_number_mod_by_secant(5, 5)  # 5! is not a unit mod 5


@pytest.mark.parametrize("p", [5, 101, 9973, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1])
def test_kronecker_product_equals_the_schoolbook_product(p):
    """Slots of up to 8 bytes go through native words, wider ones (the
    last two primes) byte string by byte string; both give the product."""
    rng = random.Random(p)
    for la, lb, n in [(1, 1, 1), (1, 3, 4), (5, 17, 20), (17, 17, 9), (40, 33, 80)]:
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        want = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < n:
                    want[i + j] += x * y
        assert sequences._series_mul(a, b, p, n) == [c % p for c in want], (la, lb, n)


# a Newton step whose last new coefficient is off by one
BAD_NEWTON_STEP = """
from dombcheck import sequences
good_step = sequences._newton_step

def bad_step(f, g, p, n):
    out = good_step(f, g, p, n)
    out[-1] = (out[-1] + 1) % p
    return out
"""


def test_a_bad_newton_step_is_caught(monkeypatch):
    ns = {}
    exec(BAD_NEWTON_STEP, ns)
    monkeypatch.setattr(sequences, "_newton_step", ns["bad_step"])
    with pytest.raises(ArithmeticError, match="power-series inverse"):
        euler_number_mod_by_secant(98, 101)


def test_a_bad_newton_step_is_caught_under_optimized_mode():
    # python -O strips assert statements; the inverse's guard must be a raise
    code = BAD_NEWTON_STEP + (
        "sequences._newton_step = bad_step\n"
        "sequences.euler_number_mod_by_secant(98, 101)\n"
    )
    src = os.path.dirname(os.path.dirname(dombcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "ArithmeticError: power-series inverse" in proc.stderr


# ---------------------------------------------------------------- series

def test_series_limits_are_the_expected_floats():
    assert ROGERS_LIMIT == 2.0 / math.pi
    assert CCL_LIMIT == 8.0 / (math.sqrt(3.0) * math.pi)


def test_rogers_partial_frozen_value():
    # (S_1 + S_2)/2 = 305/512, which is exactly representable
    assert rogers_partial(2) == 0.595703125


def test_rogers_partial_converges():
    assert abs(rogers_partial(20) - ROGERS_LIMIT) < 1e-6
    assert abs(rogers_partial(50) - ROGERS_LIMIT) < 1e-12


def test_ccl_partial_frozen_values():
    assert ccl_partial(0) == 1.0
    assert ccl_partial(3) == 1.4658203125


def test_ccl_partial_is_increasing_toward_the_limit():
    vals = [ccl_partial(K) for K in (5, 10, 20, 40)]
    assert vals == sorted(vals)
    assert all(v < CCL_LIMIT for v in vals)
    assert abs(vals[-1] - CCL_LIMIT) < 1e-9


def test_series_match_a_running_fraction_sum(monkeypatch):
    # with the final float conversion switched off, the common-denominator
    # sums must be the exact rationals of the plain term-by-term sum
    monkeypatch.setattr(sequences, "_to_real", lambda q: q)
    rogers = ccl = prev = Fraction(0)
    for K in range(61):
        prev = rogers
        rogers += Fraction((3 * K + 1) * domb(K), (-32) ** K)
        ccl += Fraction((5 * K + 1) * domb(K), 64 ** K)
        if K >= 2:
            assert rogers_partial(K) == (prev + rogers) / 2
        assert ccl_partial(K) == ccl


def test_series_reject_out_of_range_k():
    with pytest.raises(ValueError):
        rogers_partial(1)
    with pytest.raises(ValueError):
        ccl_partial(-1)


# ---------------------------------------------------------------- Domb partial sums

# (a, b, base) of every weighted Domb partial sum the package reads
PARTIAL_SUMS = [(3, 1, -32), (3, 2, -2), (2, 1, 8), (2, 1, -8), (5, 1, 64)]


def direct_partial_sum(n, a, b, base):
    """sum_{k<n} (a k + b) Domb(k) base^(n-1-k), summed afresh: the oracle
    for the running cursor."""
    return sum((a * k + b) * domb(k) * base ** (n - 1 - k) for k in range(n))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("a, b, base", PARTIAL_SUMS)
def test_domb_partial_sum_equals_the_direct_sum(a, b, base, order):
    ns = list(range(61))
    if order == "descending":
        ns.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(ns)
    for n in ns:
        value = domb_partial_sum(n, a, b, base)
        assert value == direct_partial_sum(n, a, b, base), n
        # the cursor holds the latest sum only
        assert sequences._cursors[("domb", a, b, base)] == (n, value)


@pytest.mark.parametrize(
    "key, tag, n, later",
    [
        ((2, 1, 8), "thm3_plus", 9, 10),
        ((2, 1, 8), "e1", 9, 10),
        ((3, 1, -32), "c3", 9, 11),
    ],
    ids=["thm3_plus", "e1", "c3"],
)
def test_a_corrupted_partial_sum_is_caught(key, tag, n, later, monkeypatch):
    def holds(m):
        return all(ok for *_, ok in CHECKS[tag].evaluate(m))

    assert holds(n)
    cursor = ("domb", *key)
    at, acc = sequences._cursors[cursor]
    monkeypatch.setitem(sequences._cursors, cursor, (at, acc + 1))
    assert not holds(later)
