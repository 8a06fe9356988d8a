"""Harmonic sums: exact values, telescoping, and reduction into Z/p^k."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dombcheck.arith import DenominatorDivisibleByP, PrimePowerModulus, residue_of_rational
from dombcheck.harmonic import alt_harmonic, alt_harmonic_weighted, harmonic


# ---------------------------------------------------------------- exact values

def test_frozen_values():
    assert harmonic(0) == 0
    assert harmonic(5) == Fraction(137, 60)
    assert harmonic(4, 2) == Fraction(205, 144)
    assert harmonic(3, 3) == Fraction(251, 216)
    assert alt_harmonic(4) == Fraction(-7, 12)
    assert alt_harmonic(3, 2) == Fraction(-31, 36)
    assert alt_harmonic_weighted(0) == 0
    assert alt_harmonic_weighted(4) == Fraction(-49, 144)


def test_validation():
    with pytest.raises(ValueError):
        harmonic(-1)
    with pytest.raises(ValueError):
        harmonic(3, 0)
    with pytest.raises(ValueError):
        alt_harmonic(3, 3)
    with pytest.raises(ValueError):
        alt_harmonic(-1)
    with pytest.raises(ValueError):
        alt_harmonic_weighted(-1)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=3))
def test_harmonic_telescopes(n, r):
    assert harmonic(n, r) - harmonic(n - 1, r) == Fraction(1, n ** r)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=2))
def test_alt_harmonic_telescopes(n, r):
    step = Fraction((-1) ** n, n ** r)
    assert alt_harmonic(n, r) - alt_harmonic(n - 1, r) == step


@given(st.integers(min_value=1, max_value=300))
def test_weighted_telescopes_through_the_plain_prefix(n):
    step = Fraction((-1) ** n, n) * harmonic(n)
    assert alt_harmonic_weighted(n) - alt_harmonic_weighted(n - 1) == step


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_wolstenholme_shape_of_the_full_prefix(p):
    """H_{p-1} vanishes mod p^2 and H^(2)_{p-1} mod p, a classical cross-check."""
    assert harmonic(p - 1).numerator % p ** 2 == 0
    assert harmonic(p - 1, 2).numerator % p == 0


# ---------------------------------------------------------------- residues

def test_harmonic_residue_frozen_example():
    # H_4 = 25/12 and 25 * 12^(-1) = 47 mod 49
    r = residue_of_rational(harmonic(4), PrimePowerModulus(7, 2))
    assert r.value == 47


def test_harmonic_residue_rejects_index_at_p():
    # from index p on, p divides the denominator and there is no residue
    with pytest.raises(DenominatorDivisibleByP):
        residue_of_rational(harmonic(5), PrimePowerModulus(5, 2))
    with pytest.raises(DenominatorDivisibleByP):
        residue_of_rational(harmonic(9), PrimePowerModulus(7, 1))


@given(
    st.sampled_from((5, 7, 11, 13, 17)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=1, max_value=2),
)
def test_harmonic_residue_matches_termwise_modular_sum(p, k, n, r):
    """Reducing the exact sum equals summing modular inverses term by term."""
    if n >= p:
        n = p - 1
    m = p ** k
    acc = 0
    for j in range(1, n + 1):
        acc = (acc + pow(j ** r, -1, m)) % m
    got = residue_of_rational(harmonic(n, r), PrimePowerModulus(p, k))
    assert got.value == acc


@given(
    st.sampled_from((5, 7, 11, 13, 17)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=16),
)
def test_alternating_residue_matches_termwise_modular_sum(p, k, n):
    if n >= p:
        n = p - 1
    m = p ** k
    acc = 0
    for j in range(1, n + 1):
        acc = (acc + (-1) ** j * pow(j, -1, m)) % m
    got = residue_of_rational(alt_harmonic(n), PrimePowerModulus(p, k))
    assert got.value == acc
