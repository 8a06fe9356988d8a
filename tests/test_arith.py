"""Residue-ring primitives against brute-force and number-theoretic oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dombcheck.arith import (
    BadRange,
    DenominatorDivisibleByP,
    NotPrime,
    PDividesBase,
    PrimePowerModulus,
    Residue,
    fermat_quotient,
    is_prime,
    primes_in_range,
    residue_of_rational,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


# ---------------------------------------------------------------- primes

def test_is_prime_small_cases():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(221)  # 13 * 17


@given(st.integers(min_value=-5, max_value=2000))
def test_is_prime_matches_plain_trial_division(n):
    naive = n >= 2 and all(n % d for d in range(2, n))
    assert is_prime(n) == naive


def test_primes_in_range():
    assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(2, 2) == [2]


@pytest.mark.parametrize("lo,hi", [(1, 10), (0, 5), (10, 5), (-3, 3)])
def test_primes_in_range_rejects_bad_bounds(lo, hi):
    with pytest.raises(BadRange):
        primes_in_range(lo, hi)


# ---------------------------------------------------------------- moduli

def test_modulus_construction():
    mod = PrimePowerModulus(5, 4)
    assert (mod.p, mod.k, mod.m) == (5, 4, 625)


def test_modulus_rejects_bad_input():
    with pytest.raises(NotPrime):
        PrimePowerModulus(6, 2)
    with pytest.raises(ValueError):
        PrimePowerModulus(5, 0)


# ---------------------------------------------------------------- residues

def test_residue_canonicalization():
    mod = PrimePowerModulus(5, 1)
    assert Residue(7, mod).value == 2
    assert Residue(-1, mod).value == 4
    assert int(Residue(12, mod)) == 2
    assert Residue(7, mod) == Residue(12, mod)


# ---------------------------------------------------------------- inverses

def test_mod_inverse_frozen_example():
    # 1/32 mod 5^4, the step of the thm1 sum's (-32)^-k
    assert residue_of_rational(Fraction(1, 32), PrimePowerModulus(5, 4)).value == 293


def test_mod_inverse_rejects_multiples_of_p():
    with pytest.raises(DenominatorDivisibleByP):
        residue_of_rational(Fraction(1, 10), PrimePowerModulus(5, 2))
    with pytest.raises(DenominatorDivisibleByP):
        residue_of_rational(Fraction(1, 7), PrimePowerModulus(7, 1))


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=10 ** 6),
)
def test_mod_inverse_really_inverts(p, k, a):
    if a % p == 0:
        a += 1
    mod = PrimePowerModulus(p, k)
    inv = residue_of_rational(Fraction(1, a), mod)
    assert (a * inv.value) % mod.m == 1


# ---------------------------------------------------------------- rationals

def test_residue_of_rational_examples():
    mod = PrimePowerModulus(7, 2)
    assert residue_of_rational(Fraction(1, 3), mod).value == 33
    assert residue_of_rational(5, mod).value == 5
    assert residue_of_rational(Fraction(-1, 2), mod).value == 24


def test_residue_of_rational_rejects_p_in_denominator():
    with pytest.raises(DenominatorDivisibleByP):
        residue_of_rational(Fraction(3, 10), PrimePowerModulus(5, 2))


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=1, max_value=3),
    st.fractions(max_denominator=200),
    st.fractions(max_denominator=200),
)
def test_residue_of_rational_is_a_ring_map(p, k, q1, q2):
    """Reduction commutes with + and * wherever both sides are defined."""
    if (q1.denominator * q2.denominator) % p == 0:
        return
    mod = PrimePowerModulus(p, k)
    r1 = residue_of_rational(q1, mod).value
    r2 = residue_of_rational(q2, mod).value
    assert residue_of_rational(q1 + q2, mod).value == (r1 + r2) % mod.m
    assert residue_of_rational(q1 * q2, mod).value == (r1 * r2) % mod.m


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=3),
       st.integers(min_value=-10 ** 9, max_value=10 ** 9))
def test_residue_of_rational_agrees_with_plain_reduction_on_ints(p, k, n):
    mod = PrimePowerModulus(p, k)
    assert residue_of_rational(n, mod).value == n % mod.m


# ---------------------------------------------------------------- fermat quotients

def test_fermat_quotient_frozen_examples():
    assert fermat_quotient(2, 5).value == 3   # (2^4 - 1)/5
    assert fermat_quotient(2, 7).value == 2   # 9 reduced mod 7
    assert fermat_quotient(3, 11).value == 0  # 3^5 = 1 mod 121
    assert fermat_quotient(2, 3).value == 1
    assert fermat_quotient(2, 5, 3).value == 3


def test_fermat_quotient_rejects_bad_input():
    with pytest.raises(NotPrime):
        fermat_quotient(3, 4)
    with pytest.raises(NotPrime):
        fermat_quotient(3, 2)
    with pytest.raises(PDividesBase):
        fermat_quotient(10, 5)
    with pytest.raises(ValueError):
        fermat_quotient(2, 5, 0)


@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=1000),
)
def test_fermat_quotient_matches_exact_integer_division(p, k, a):
    if a % p == 0:
        a += 1
    q = (a ** (p - 1) - 1) // p
    assert fermat_quotient(a, p, k).value == q % p ** k


@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=1000),
)
def test_fermat_quotient_towers_are_coherent(p, k, a):
    """The mod p^k value projects onto the mod p^(k-1) value."""
    if a % p == 0:
        a += 1
    fine = fermat_quotient(a, p, k)
    assert fine.value % p ** (k - 1) == fermat_quotient(a, p, k - 1).value
