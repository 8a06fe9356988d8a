"""Congruence checks: frozen residues, full-catalog holds, and the dual-route
comparison between ring evaluation and exact-rational reduction."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dombcheck import congruences
from dombcheck.arith import (
    BadRange,
    NotPrime,
    PrimePowerModulus,
    Residue,
    fermat_quotient,
    primes_in_range,
    residue_of_rational,
)
from dombcheck.checks import CHECKS, sweep
from dombcheck.congruences import (
    LEMMA_TAGS,
    PER_INDEX_TAGS,
    PROOF_STEP_TAGS,
    PTooSmall,
    TAG_POWER,
    exact_lhs,
    verify_lemma,
    verify_proof_step,
    verify_thm1,
    verify_thm2,
)
from dombcheck.sequences import domb, domb_via_ctyz, euler_number

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
CONGRUENCE_TAGS = tuple(t for t, c in CHECKS.items() if c.suite == "congruences")


def ring_results(tag, p):
    """All ring-route results for one tag at one prime, as a list."""
    return CHECKS[tag].verify(p)


@pytest.fixture(autouse=True)
def fresh_domb_memo():
    """Start and leave every test with the per-prime Domb-sum memo empty, so
    a mutated ingredient reaches the tags and no test reads entries that a
    mutant wrote."""
    congruences._domb_sums.cache_clear()
    yield
    congruences._domb_sums.cache_clear()


# ---------------------------------------------------------------- catalog

def test_tag_catalog_is_closed_and_powers_are_as_stated():
    assert set(CONGRUENCE_TAGS) == set(TAG_POWER)
    assert set(LEMMA_TAGS) | set(PROOF_STEP_TAGS) | {"thm1", "thm2"} == set(CONGRUENCE_TAGS)
    assert set(PER_INDEX_TAGS) == {"c5", "d4"}
    assert TAG_POWER["thm1"] == TAG_POWER["thm2"] == 4
    assert TAG_POWER["c10"] == 3
    assert TAG_POWER["c9"] == 1


# ---------------------------------------------------------------- frozen residues

def test_thm1_frozen_residues():
    r5 = verify_thm1(5)
    assert (r5.lhs.value, r5.rhs.value, r5.modulus.m, r5.holds) == (505, 505, 625, True)
    r7 = verify_thm1(7)
    assert (r7.lhs.value, r7.modulus.m, r7.holds) == (1708, 2401, True)


def test_thm2_frozen_residues():
    assert verify_thm2(5).lhs.value == 510
    assert verify_thm2(7).lhs.value == 672
    assert verify_thm2(5).holds and verify_thm2(7).holds


def test_lemma_frozen_residues():
    assert verify_lemma("b3", 5).lhs.value == 3
    assert verify_lemma("b8", 5).lhs.value == 1
    assert verify_lemma("b11", 5).lhs.value == 14


def test_proof_step_frozen_residues():
    [c10] = verify_proof_step("c10", 5)
    assert (c10.lhs.value, c10.modulus.m) == (101, 125)
    assert verify_proof_step("c11", 5)[0].lhs.value == 5
    assert verify_proof_step("c12", 5)[0].lhs.value == 500


# ---------------------------------------------------------------- full holds

@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_every_tag_holds_at_small_primes(p):
    for tag in CONGRUENCE_TAGS:
        for res in ring_results(tag, p):
            assert res.holds, (tag, p, res.index)


def test_per_index_tags_cover_the_half_range():
    for p in (7, 13):
        half = (p - 1) // 2
        for tag in PER_INDEX_TAGS:
            out = verify_proof_step(tag, p)
            assert [r.index for r in out] == list(range(half + 1))


def test_c11_and_c12_partition_the_thm1_sum():
    """The two halves of the rearranged sum add up to the full left side."""
    for p in (5, 7, 11, 13):
        m = p ** 4
        [c11] = verify_proof_step("c11", p)
        [c12] = verify_proof_step("c12", p)
        assert (c11.lhs.value + c12.lhs.value) % m == verify_thm1(p).lhs.value


def c12_tail_input(p: int):
    """The mod p^3 ingredient feeding c12, outside the tag catalog:
    sum_{i=(p+1)/2}^{p-1} 16^-i C(2i,i)^2 == -2 p^2 E_{p-3} (mod p^3)."""
    mod = PrimePowerModulus(p, 3)
    lhs = Residue(sum(congruences._central_terms(p, mod.m, p - 1)[(p + 1) // 2:]), mod)
    rhs = Residue(-2 * p * p * congruences._euler_p3(p), mod)
    return lhs, rhs, lhs == rhs


def test_c12_tail_input_holds_and_is_frozen_at_5():
    lhs, rhs, holds = c12_tail_input(5)
    assert (lhs.value, lhs.modulus.m, holds) == (50, 125, True)
    for p in SMALL_PRIMES:
        assert c12_tail_input(p)[2]


# ---------------------------------------------------------------- dual routes

@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_ring_route_equals_reduced_exact_route(p):
    for tag in CONGRUENCE_TAGS:
        mod = PrimePowerModulus(p, TAG_POWER[tag])
        for res in ring_results(tag, p):
            want = residue_of_rational(exact_lhs(tag, p, res.index), mod)
            assert want == res.lhs, (tag, p, res.index)


@settings(max_examples=40)
@given(st.sampled_from(CONGRUENCE_TAGS), st.sampled_from((17, 19, 23, 29, 31, 37, 41, 43, 47)))
def test_dual_route_agreement_sampled_wider(tag, p):
    mod = PrimePowerModulus(p, TAG_POWER[tag])
    res = ring_results(tag, p)[-1]
    want = residue_of_rational(exact_lhs(tag, p, res.index), mod)
    assert want == res.lhs


def test_table_binomials_equal_comb():
    """C(a, b) mod p^4 from the unit-factorial table, for all b <= a < 3p."""
    for p in primes_in_range(5, 47):
        m = p ** 4
        binom = congruences._binomials_mod(p, m)
        for a in range(3 * p):
            for b in range(a + 1):
                assert binom(a, b) == comb(a, b) % m, (p, a, b)


def domb_sum_by_big_ints(p, base, shift):
    """sum_{k<p} (3k + shift) Domb(k) base^-k mod p^4, from the big-int
    Domb table reduced term by term."""
    m = p ** 4
    return sum((3 * k + shift) * domb(k) * pow(base, -k, m) for k in range(p)) % m


def test_in_ring_domb_sums_equal_a_big_int_oracle():
    for p in primes_in_range(5, 499):
        minus_2 = domb_sum_by_big_ints(p, -2, 2)
        assert verify_thm1(p).lhs.value == domb_sum_by_big_ints(p, -32, 1), p
        assert verify_thm2(p).lhs.value == minus_2, p
        [d5] = verify_proof_step("d5", p)
        assert d5.lhs.value == minus_2, p


def test_exact_lhs_validation():
    with pytest.raises(ValueError):
        exact_lhs("zz", 5)
    with pytest.raises(ValueError):
        exact_lhs("c5", 5)          # per-index tag without an index
    with pytest.raises(ValueError):
        exact_lhs("c5", 5, 3)       # beyond (p-1)/2
    with pytest.raises(ValueError):
        exact_lhs("d4", 5, -1)


def test_exact_lhs_against_a_transformed_domb_route():
    """Replacing the Domb generator by an independent route changes nothing."""
    for p in (5, 7):
        direct = sum(
            Fraction((3 * k + 1) * domb_via_ctyz(k), (-32) ** k) for k in range(p)
        )
        assert direct == exact_lhs("thm1", p)


# ---------------------------------------------------------------- sharpness

@pytest.mark.parametrize("tag", CONGRUENCE_TAGS)
def test_each_claim_is_sharp_and_checked_at_its_full_power(monkeypatch, tag):
    """At every prime p <= 47: the tag's right side lifted to p^(k+1), with
    the exact E_{p-3}, misses the exact left side at some (p, i), so p^k is
    the largest power the claim holds at; and a right side moved by p^(k-1)
    fails every row, so the check compares at p^k and not below."""
    k, formula = congruences._SWEEP[tag]
    primes = primes_in_range(5, 47)
    misses = 0
    for p in primes:
        lift = PrimePowerModulus(p, k + 1)
        E = euler_number(p - 3) % lift.m
        q = fermat_quotient(2, p, k + 1).value
        for i, _, rhs in formula(p, k + 1, lift.m, congruences._sign(p), E, q):
            misses += residue_of_rational(exact_lhs(tag, p, i), lift) != Residue(rhs, lift)
    assert misses > 0, f"{tag} holds at p^{k + 1} at every prime <= 47"

    def moved(p, *args):
        return [(i, lhs, rhs + p ** (k - 1)) for i, lhs, rhs in formula(p, *args)]

    monkeypatch.setitem(congruences._SWEEP, tag, (k, moved))
    for p in primes:
        assert not any(holds for *_, holds in CHECKS[tag].evaluate(p)), p


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("p", [2, 3])
def test_primes_below_five_are_rejected(p):
    with pytest.raises(PTooSmall):
        verify_thm1(p)
    with pytest.raises(PTooSmall):
        verify_lemma("b3", p)


def test_composite_moduli_are_rejected():
    with pytest.raises(NotPrime):
        verify_thm1(9)
    with pytest.raises(NotPrime):
        verify_proof_step("c8", 15)


def test_unknown_tags_are_rejected():
    with pytest.raises(ValueError):
        verify_lemma("c8", 7)       # proof step, not a lemma
    with pytest.raises(ValueError):
        verify_proof_step("b3", 7)  # lemma, not a proof step


# ---------------------------------------------------------------- sweeps

def test_sweep_orders_by_prime_then_catalog_then_index():
    out = sweep(("b3", "thm1", "c5"), 5, 7)
    flat = [(r.p, r.id, r.index) for r in out]
    assert flat == [
        (5, "thm1", None), (5, "b3", None),
        (5, "c5", 0), (5, "c5", 1), (5, "c5", 2),
        (7, "thm1", None), (7, "b3", None),
        (7, "c5", 0), (7, "c5", 1), (7, "c5", 2), (7, "c5", 3),
    ]


def test_sweep_full_catalog_small_range_all_hold():
    out = sweep(CONGRUENCE_TAGS, 5, 13)
    assert out and all(r.holds for r in out)


def test_sweep_validation():
    with pytest.raises(BadRange):
        sweep(("thm1",), 3, 11)
    with pytest.raises(BadRange):
        sweep(("thm1",), 11, 7)
    with pytest.raises(ValueError):
        sweep(("thm1", "zz"), 5, 11)


# ---------------------------------------------------------------- mutations

def _fermat_plus_one(fermat_quotient):
    def mutant(a, p, k=1):
        q = fermat_quotient(a, p, k)
        return Residue(q.value + 1, q.modulus)
    return mutant


def _harm_doubled(harm_mod):
    def mutant(p, k):
        H, H2 = harm_mod(p, k)
        return [2 * h for h in H], H2
    return mutant


def _central_term_1_unscaled(central_terms):
    """The central terms with the 16^-i factor dropped at i = 1."""
    def mutant(p, m, hi):
        terms = central_terms(p, m, hi)
        terms[1] = terms[1] * 16 % m
        return terms
    return mutant


def _unit_inverse_1_doubled(unit_factorials):
    """The unit-factorial table with the inverse of u(1) doubled."""
    def mutant(p, m):
        u, inv = unit_factorials(p, m)
        inv[1] = 2 * inv[1] % m
        return u, inv
    return mutant


def _domb_residue_1_plus_one(domb_residues):
    """The in-ring Domb residues with Domb(1) off by one."""
    def mutant(p, m):
        D = domb_residues(p, m)
        D[1] = (D[1] + 1) % m
        return D
    return mutant


# ingredient -> (its mutant, the exact set of tags that must catch it)
MUTANTS = {
    "_euler_p3": (
        lambda euler_p3: lambda p: euler_p3(p) + 1,
        {"thm1", "thm2", "b3", "b4", "b5", "b8", "b9", "c8", "c9", "c10", "c11", "c12"},
    ),
    "fermat_quotient": (
        _fermat_plus_one,
        {"b4", "b5", "b6", "b9", "b11", "c8", "c9"},
    ),
    "_harm_mod": (
        _harm_doubled,
        {"c8", "c9", "d4", "d5"},
    ),
    "_central_terms": (
        _central_term_1_unscaled,
        {"c5", "c8", "c9", "c10", "c11", "d5"},
    ),
    "_unit_factorials": (
        _unit_inverse_1_doubled,
        {"c11", "c12", "d4"},
    ),
    "_domb_residues": (
        _domb_residue_1_plus_one,
        {"thm1", "thm2", "d5"},
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_registry_catches_each_mutated_ingredient(monkeypatch, name):
    """Every congruence entry runs at p <= 50 on a mutated shared ingredient;
    exactly the tags whose sides use it falsify, and the others still hold."""
    make_mutant, want = MUTANTS[name]
    monkeypatch.setattr(congruences, name, make_mutant(getattr(congruences, name)))
    primes = primes_in_range(5, 50)
    caught = {
        tag
        for tag, check in CHECKS.items()
        if check.suite == "congruences"
        and not all(holds for p in primes for *_, holds in check.evaluate(p))
    }
    assert caught == want


def test_a_corrupted_domb_memo_falsifies_exactly_its_readers(monkeypatch):
    """The memo's first sum feeds thm1 alone; its second feeds thm2 and d5."""
    domb_sums = congruences._domb_sums
    primes = primes_in_range(5, 50)
    for slot, want in ((0, {"thm1"}), (1, {"thm2", "d5"})):
        def corrupted(p, m, slot=slot):
            sums = list(domb_sums(p, m))
            sums[slot] = (sums[slot] + 1) % m
            return tuple(sums)

        monkeypatch.setattr(congruences, "_domb_sums", corrupted)
        caught = {
            tag
            for tag in CONGRUENCE_TAGS
            if not all(holds for p in primes for *_, holds in CHECKS[tag].evaluate(p))
        }
        assert caught == want, slot


@pytest.mark.parametrize("first", ["thm1", "thm2", "d5"])
def test_domb_memo_equals_the_unmemoized_sums_whichever_tag_fills_it(first):
    for p in primes_in_range(5, 499):
        [(_, lhs, *_)] = CHECKS[first].evaluate(p)
        m = p ** 4
        D = congruences._domb_residues(p, m)
        want = (congruences._domb_sum_mod(D, m, -32, 1), congruences._domb_sum_mod(D, m, -2, 2))
        assert congruences._domb_sums(p, m) == want, (first, p)
        assert lhs == want[first != "thm1"], (first, p)
    # the tag filled every entry and the comparison above re-read it
    info = congruences._domb_sums.cache_info()
    assert (info.hits, info.misses) == (93, 93)


def test_central_terms_equal_the_binomial_oracle():
    for p in primes_in_range(5, 97):
        for k in range(1, 5):
            m = p ** k
            want = [comb(2 * i, i) ** 2 * pow(16, -i, m) % m for i in range(p)]
            assert congruences._central_terms(p, m, p - 1) == want, (p, k)
            assert congruences._central_terms(p, m, 3) == want[:4], (p, k)
