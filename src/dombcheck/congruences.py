"""Congruence checks for Domb-type sums mod powers of a prime.

Each tagged check compares two residues in Z/p^k, where k is the power the
claim is stated at.  The table `_SWEEP` is the one definition of the
catalog: for each tag, in catalog order, its power k and its in-ring
formula for both sides.  `_verify` runs every tag from it, and `TAG_POWER`
and the tag groups are read off it.  `_EXACT_LHS` is the oracle table, the
same left sides computed exactly.

The production (sweep) route works inside Z/p^k throughout: powers such as
2^(1-p) or (-32)^(-k) are modular exponentials and inverses, never
rationals; harmonic sums are updated in-ring term by term, and the
central terms 16^-i C(2i,i)^2 come from running products of the odd and
the even factors; Domb(k) for k < p comes from the Domb recurrence run
inside Z/p^4; and C(3i,i), C(p+2i,3i), C(p+i,3i) come from one table of
p-adic unit factorials up to 3p and the valuation v_p(n!) = floor(n/p)
(c11, c12, d4).  A batch of units is inverted with one pow.  The Domb
residues feed two sums, thm1's and thm2's left sides (thm2's is also
d5's); both come from one residue list and are memoized per prime in
`_domb_sums`, as E_{p-3} is in `_euler_p3`, so the three tags build one
list per prime, not one each.  `exact_lhs` provides the deliberately
separate small-p oracle route, which forms the exact Fraction from the
big-int Domb table and math.comb and reduces it at the end; the two must
agree and the test suite checks that they do, and checks the table
binomials against math.comb and the in-ring Domb sums against the big-int
table to p <= 499.

The claims, with the power k of the modulus p^k:

  thm1  4  sum_{k<p} (3k+1) Domb(k)/(-32)^k == (-1)^((p-1)/2) p + p^3 E_{p-3}
  thm2  4  sum_{k<p} (3k+2) Domb(k)/(-2)^k == 2p(-1)^((p-1)/2) + 6 p^3 E_{p-3}
  b3    1  sum_{i<=(p-1)/2} (-1)^i/i^2 == (-1)^((p-1)/2) 2 E_{p-3}
  b4    1  sum (-1)^i H_i/i == q_p(2)^2/2 + (-1)^((p-1)/2) E_{p-3}
  b5    2  sum (-1)^i/i == -q_p(2) + p q_p(2)^2/2 - p (-1)^((p-1)/2) E_{p-3}
  b6    2  sum_{i<=p/4} 1/(p-4i) == 3 q_p(2)/4 - 3 p q_p(2)^2/8
  b8    1  H^(2)_{floor(p/4)} == (-1)^((p-1)/2) 4 E_{p-3}
  b9    2  H_{floor(p/4)} == -3 q_p(2) + 3 p q_p(2)^2/2 - p (-1)^((p-1)/2) E_{p-3}
  b11   2  H_{(p-1)/2} == -2 q_p(2) + p q_p(2)^2
  c5    2  per i: (-1)^i C((p-1)/2,i) C((p-1)/2+i,i) == 16^-i C(2i,i)^2
  c8    2  sum 16^-i C(2i,i)^2 (H_2i - H_i)
             == (-1)^((p+1)/2) (-q_p(2) + p q_p(2)^2/2) + p E_{p-3}
  c9    1  sum 16^-i C(2i,i)^2 ((H_2i-H_i)^2 - H^(2)_2i - H^(2)_i)
             == (-1)^((p-1)/2) q_p(2)^2 + 6 E_{p-3}
  c10   3  sum_{i<=(p-1)/2} 16^-i C(2i,i)^2 == (-1)^((p-1)/2) + p^2 E_{p-3}
  c11   4  half-range part of the rearranged thm1 sum
             == (-1)^((p-1)/2) p + 5 p^3 E_{p-3}
  c12   4  tail part of the same sum == -4 p^3 E_{p-3}
  d4    4  per i: (p-2i) C(3i,i) C(p+i,3i)
             == p - p^2 (H_2i - H_i) + (p^3/2)((H_2i-H_i)^2 - H^(2)_2i - H^(2)_i)
  d5    4  sum_{k<p} (3k+2) Domb(k)/(-2)^k
             == 2^p p sum_{i<=(p-1)/2} 16^-i C(2i,i)^2
                  (1 - p (H_2i-H_i) + (p^2/2)((H_2i-H_i)^2 - H^(2)_2i - H^(2)_i))

E_{p-3} enters every right side only with a factor of at least p^(k-1), so
its residue mod p suffices; it comes from the secant series,
`euler_number_mod_by_secant`, whose oracle is the Pascal-triangle route
`euler_number_mod` (the tests require them to agree for p <= 997).
q_p(2) is the Fermat quotient (2^(p-1) - 1)/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .arith import NotPrime, PrimePowerModulus, Residue, fermat_quotient, is_prime
from .harmonic import alt_harmonic, alt_harmonic_weighted, harmonic
from .sequences import domb, domb_recurrence, euler_number_mod_by_secant

PER_INDEX_TAGS = ("c5", "d4")


class PTooSmall(ValueError):
    """The checks need p >= 5 (denominators 2, 3 and the index p-3 must behave)."""


@dataclass(frozen=True)
class CongruenceResult:
    id: str
    p: int
    index: int | None
    modulus: PrimePowerModulus
    lhs: Residue
    rhs: Residue
    holds: bool


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 5:
        raise PTooSmall(f"need p >= 5, got {p}")


def _result(tag: str, p: int, index, mod: PrimePowerModulus, lhs: int, rhs: int):
    lr = Residue(lhs, mod)
    rr = Residue(rhs, mod)
    return CongruenceResult(tag, p, index, mod, lr, rr, lr == rr)


def _sign(p: int) -> int:
    """(-1)^((p-1)/2): +1 when p = 1 mod 4, -1 when p = 3 mod 4."""
    return 1 if p % 4 == 1 else -1


@lru_cache(maxsize=None)
def _euler_p3(p: int) -> int:
    """E_{p-3} mod p as a plain int, shared by every check at this prime."""
    return euler_number_mod_by_secant(p - 3, p).value


def _inverses(xs, m: int) -> list[int]:
    """The inverses of the units xs inside Z/m with one pow: prefix
    products, then a walk back down them."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % m)
    inv = pow(prefix[-1], -1, m)
    out = [0] * len(xs)
    for j in range(len(xs) - 1, -1, -1):
        out[j] = inv * prefix[j] % m
        inv = inv * xs[j] % m
    return out


def _harm_mod(p: int, k: int):
    """Prefix lists of H_j and H^(2)_j mod p^k for 0 <= j <= p-1."""
    m = p ** k
    H = [0] * p
    H2 = [0] * p
    for j in range(1, p):
        iv = pow(j, -1, m)
        H[j] = (H[j - 1] + iv) % m
        H2[j] = (H2[j - 1] + iv * iv) % m
    return H, H2


def _harm_weight(H, H2, i: int) -> int:
    """(H_2i - H_i)^2 - H^(2)_2i - H^(2)_i from the prefix lists of _harm_mod."""
    dh = H[2 * i] - H[i]
    return dh * dh - H2[2 * i] - H2[i]


def _domb_residues(p: int, m: int) -> list[int]:
    """Domb(k) mod m for 0 <= k < p, by the Domb recurrence inside Z/m:
    its leading coefficient k^3 is a unit for k < p, and all of them are
    inverted at once."""
    coeffs = [domb_recurrence(k) for k in range(2, p)]
    D = [1, 4]
    for (_, a, b), iv in zip(coeffs, _inverses([c for c, _, _ in coeffs], m)):
        D.append((a * D[-1] + b * D[-2]) * iv % m)
    return D


def _domb_sum_mod(D: list[int], m: int, base: int, coeff_shift: int) -> int:
    """sum_k (3k + coeff_shift) D[k] base^(-k) inside Z/m over the Domb
    residues D, by Horner in base^-1 from the top term down."""
    inv_base = pow(base, -1, m)
    acc = 0
    for k in range(len(D) - 1, -1, -1):
        acc = (acc * inv_base + (3 * k + coeff_shift) * D[k]) % m
    return acc


@lru_cache(maxsize=None)
def _domb_sums(p: int, m: int) -> tuple[int, int]:
    """The two Domb sums over k < p inside Z/m, from one list of residues:
    thm1's sum (3k+1) Domb(k)/(-32)^k and thm2's sum (3k+2) Domb(k)/(-2)^k,
    which is also d5's left side.  Whichever of the three tags runs first
    at p fills the entry; it keeps two ints."""
    D = _domb_residues(p, m)
    return _domb_sum_mod(D, m, -32, 1), _domb_sum_mod(D, m, -2, 2)


def _inverse_sum(m: int, n: int, r: int = 1, sign: int = 1) -> int:
    """sum_{j=1}^{n} sign^j / j^r inside Z/m."""
    return sum(sign ** j * pow(j, -r, m) for j in range(1, n + 1)) % m


def _b4_lhs(p: int, m: int) -> int:
    """sum_{i<=(p-1)/2} (-1)^i H_i / i inside Z/m."""
    lhs = h = 0
    for i in range(1, (p - 1) // 2 + 1):
        iv = pow(i, -1, m)
        h = (h + iv) % m
        lhs = (lhs + (-1) ** i * h * iv) % m
    return lhs


def _central_terms(p: int, m: int, hi: int) -> list[int]:
    """16^-i C(2i,i)^2 mod m for 0 <= i <= hi <= p-1, as c_i^2 with
    c_i = (2i-1)!!/(2i)!!: running products of the odd and the even factors,
    one inverse of the last even product, and a walk back down that
    multiplies it by 2i per step (2i is a unit since i < p)."""
    terms = [1]
    odd = even = 1
    for j in range(2, 2 * hi + 1, 2):
        odd = odd * (j - 1) % m
        terms.append(odd)
        even = even * j % m
    inv = pow(even, -1, m)
    for i in range(hi, 0, -1):
        c = terms[i] * inv % m
        terms[i] = c * c % m
        inv = inv * (2 * i) % m
    return terms


def _central_sum(p: int, m: int, weight) -> int:
    """sum_{i<=(p-1)/2} 16^-i C(2i,i)^2 weight(i) inside Z/m."""
    terms = _central_terms(p, m, (p - 1) // 2)
    return sum(t * weight(i) for i, t in enumerate(terms)) % m


def _unit_factorials(p: int, m: int):
    """u(n) = n! with every factor p taken out, mod m, for 0 <= n <= 3p, and
    the list of their inverses.  Up to 3p the multiples of p are p, 2p and
    3p, which leave the units 1, 2 and 3."""
    u = [1] * (3 * p + 1)
    for n in range(1, 3 * p + 1):
        u[n] = u[n - 1] * (n // p if n % p == 0 else n) % m
    return u, _inverses(u, m)


def _binomials_mod(p: int, m: int):
    """C(a, b) mod m for 0 <= b <= a <= 3p, as a function of (a, b), from the
    unit factorials and the valuation v_p(n!) = floor(n/p) (n < p^2)."""
    u, inv = _unit_factorials(p, m)

    def binom(a: int, b: int) -> int:
        v = a // p - b // p - (a - b) // p
        return u[a] * inv[b] % m * inv[a - b] * p ** v % m

    return binom


def _rearranged_sum(p: int, m: int, lo: int, hi: int) -> int:
    """The rearranged thm1 summands
    2^(1-p) (p-i) (-16)^-i C(2i,i)^2 C(3i,i) C(p+2i,3i) for lo <= i <= hi,
    summed inside Z/m; (-16)^-i C(2i,i)^2 is (-1)^i times a central term."""
    terms = _central_terms(p, m, hi)
    binom = _binomials_mod(p, m)
    acc = 0
    for i in range(lo, hi + 1):
        t = (-1) ** i * (p - i) * terms[i] % m
        acc = (acc + t * binom(3 * i, i) % m * binom(p + 2 * i, 3 * i)) % m
    return acc * pow(pow(2, p - 1, m), -1, m) % m  # times 2^(1-p)


def _c5(p, k, m, sg, E, q):
    # factorials up to p-1 are all coprime to p, so they invert mod p^2
    fact = [1] * p
    for j in range(1, p):
        fact[j] = fact[j - 1] * j % m
    inv_fact = [1] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, m)
    for j in range(p - 1, 0, -1):
        inv_fact[j - 1] = inv_fact[j] * j % m

    def binom_mod(a, b):
        return fact[a] * inv_fact[b] % m * inv_fact[a - b] % m

    half = (p - 1) // 2
    return [
        (i, (-1) ** i * binom_mod(half, i) * binom_mod(half + i, i) % m, rhs)
        for i, rhs in enumerate(_central_terms(p, m, half))
    ]


def _c8(p, k, m, sg, E, q):
    H, _ = _harm_mod(p, k)
    lhs = _central_sum(p, m, lambda i: H[2 * i] - H[i])
    return [(None, lhs, -sg * (-q + p * q * q * pow(2, -1, m)) + p * E)]


def _c9(p, k, m, sg, E, q):
    H, H2 = _harm_mod(p, k)
    lhs = _central_sum(p, m, lambda i: _harm_weight(H, H2, i))
    return [(None, lhs, sg * q * q + 6 * E)]


def _d4(p, k, m, sg, E, q):
    H, H2 = _harm_mod(p, k)
    binom = _binomials_mod(p, m)
    inv2 = pow(2, -1, m)
    out = []
    for i in range((p - 1) // 2 + 1):
        lhs = (p - 2 * i) * binom(3 * i, i) % m * binom(p + i, 3 * i) % m
        rhs = p - p * p * (H[2 * i] - H[i]) + p ** 3 * inv2 * _harm_weight(H, H2, i)
        out.append((i, lhs, rhs))
    return out


def _d5(p, k, m, sg, E, q):
    H, H2 = _harm_mod(p, k)
    c = p * p * pow(2, -1, m)
    acc = _central_sum(p, m, lambda i: 1 - p * (H[2 * i] - H[i]) + c * _harm_weight(H, H2, i))
    return [(None, _domb_sums(p, m)[1], pow(2, p, m) * p * acc)]


# The catalog in order, each tag with the power k its claim is stated at and
# its formula (p, k, m = p^k, sg = (-1)^((p-1)/2), E = E_{p-3} mod p,
# q = q_p(2) mod p^k) -> the rows [(i or None, lhs, rhs)] inside Z/m, where i
# is the index of a per-index tag.
_SWEEP = {
    "thm1": (4, lambda p, k, m, sg, E, q: [
        (None, _domb_sums(p, m)[0], sg * p + p ** 3 * E)]),
    "thm2": (4, lambda p, k, m, sg, E, q: [
        (None, _domb_sums(p, m)[1], 2 * p * sg + 6 * p ** 3 * E)]),
    "b3": (1, lambda p, k, m, sg, E, q: [
        (None, _inverse_sum(m, (p - 1) // 2, 2, -1), 2 * sg * E)]),
    "b4": (1, lambda p, k, m, sg, E, q: [
        (None, _b4_lhs(p, m), q * q * pow(2, -1, m) + sg * E)]),
    "b5": (2, lambda p, k, m, sg, E, q: [(
        None,
        _inverse_sum(m, (p - 1) // 2, 1, -1),
        -q + p * q * q * pow(2, -1, m) - p * sg * E,
    )]),
    "b6": (2, lambda p, k, m, sg, E, q: [(
        None,
        sum(pow(p - 4 * i, -1, m) for i in range(1, p // 4 + 1)),
        3 * q * pow(4, -1, m) - 3 * p * q * q * pow(8, -1, m),
    )]),
    "b8": (1, lambda p, k, m, sg, E, q: [(None, _inverse_sum(m, p // 4, 2), 4 * sg * E)]),
    "b9": (2, lambda p, k, m, sg, E, q: [(
        None,
        _inverse_sum(m, p // 4),
        -3 * q + 3 * p * q * q * pow(2, -1, m) - p * sg * E,
    )]),
    "b11": (2, lambda p, k, m, sg, E, q: [
        (None, _inverse_sum(m, (p - 1) // 2), -2 * q + p * q * q)]),
    "c5": (2, _c5),
    "c8": (2, _c8),
    "c9": (1, _c9),
    "c10": (3, lambda p, k, m, sg, E, q: [
        (None, _central_sum(p, m, lambda i: 1), sg + p * p * E)]),
    "c11": (4, lambda p, k, m, sg, E, q: [
        (None, _rearranged_sum(p, m, 0, (p - 1) // 2), sg * p + 5 * p ** 3 * E)]),
    "c12": (4, lambda p, k, m, sg, E, q: [
        (None, _rearranged_sum(p, m, (p + 1) // 2, p - 1), -4 * p ** 3 * E)]),
    "d4": (4, _d4),
    "d5": (4, _d5),
}
TAG_POWER = {tag: k for tag, (k, _) in _SWEEP.items()}
# the paper's lemmas are its b-tags, its proof steps the c- and d-tags
LEMMA_TAGS = tuple(tag for tag in _SWEEP if tag[0] == "b")
PROOF_STEP_TAGS = tuple(tag for tag in _SWEEP if tag[0] in "cd")


def _verify(tag: str, p: int) -> list[CongruenceResult]:
    """Every row of the catalog tag at the prime p, compared mod p^k."""
    _require_prime(p)
    k, formula = _SWEEP[tag]
    mod = PrimePowerModulus(p, k)
    q = fermat_quotient(2, p, k).value
    rows = formula(p, k, mod.m, _sign(p), _euler_p3(p), q)
    return [_result(tag, p, i, mod, lhs, rhs) for i, lhs, rhs in rows]


def verify_thm1(p: int) -> CongruenceResult:
    """sum_{k<p} (3k+1) Domb(k)/(-32)^k mod p^4 against its closed form."""
    return _verify("thm1", p)[0]


def verify_thm2(p: int) -> CongruenceResult:
    """sum_{k<p} (3k+2) Domb(k)/(-2)^k mod p^4 against its closed form."""
    return _verify("thm2", p)[0]


def verify_lemma(tag: str, p: int) -> CongruenceResult:
    """One of the harmonic-sum lemmas b3..b11 at the prime p."""
    if tag not in LEMMA_TAGS:
        raise ValueError(f"unknown lemma tag {tag!r}")
    return _verify(tag, p)[0]


def verify_proof_step(tag: str, p: int) -> list[CongruenceResult]:
    """One of the c5..d5 intermediate steps at the prime p, as a list: one
    result per i in 0..(p-1)/2 for the per-index tags c5 and d4, a single
    result for the others."""
    if tag not in PROOF_STEP_TAGS:
        raise ValueError(f"unknown proof step tag {tag!r}")
    return _verify(tag, p)


def _exact_domb_sum(p: int, base: int, coeff_shift: int) -> Fraction:
    """sum_{k<p} (3k + coeff_shift) Domb(k) / base^k, exactly."""
    return sum(Fraction((3 * k + coeff_shift) * domb(k), base ** k) for k in range(p))


def _exact_central_sum(half: int, weight) -> Fraction:
    """sum_{i<=half} C(2i,i)^2 / 16^i * weight(i), exactly."""
    return sum(Fraction(comb(2 * i, i) ** 2, 16 ** i) * weight(i) for i in range(half + 1))


def _exact_rearranged_sum(p: int, lo: int, hi: int) -> Fraction:
    return sum(
        Fraction(2 * (p - i), 2 ** p)
        * Fraction(1, (-16) ** i)
        * comb(2 * i, i) ** 2
        * comb(3 * i, i)
        * comb(p + 2 * i, 3 * i)
        for i in range(lo, hi + 1)
    )


def _exact_harm_weight(i: int) -> Fraction:
    return (harmonic(2 * i) - harmonic(i)) ** 2 - harmonic(2 * i, 2) - harmonic(i, 2)


# tag -> (p, half = (p-1)/2, index i of a per-index tag) -> the exact left side
_EXACT_LHS = {
    "thm1": lambda p, half, i: _exact_domb_sum(p, -32, 1),
    "thm2": lambda p, half, i: _exact_domb_sum(p, -2, 2),
    "b3": lambda p, half, i: alt_harmonic(half, 2),
    "b4": lambda p, half, i: alt_harmonic_weighted(half),
    "b5": lambda p, half, i: alt_harmonic(half, 1),
    "b6": lambda p, half, i: sum(Fraction(1, p - 4 * j) for j in range(1, p // 4 + 1)),
    "b8": lambda p, half, i: harmonic(p // 4, 2),
    "b9": lambda p, half, i: harmonic(p // 4, 1),
    "b11": lambda p, half, i: harmonic(half, 1),
    "c5": lambda p, half, i: Fraction((-1) ** i * comb(half, i) * comb(half + i, i)),
    "c8": lambda p, half, i: _exact_central_sum(half, lambda j: harmonic(2 * j) - harmonic(j)),
    "c9": lambda p, half, i: _exact_central_sum(half, _exact_harm_weight),
    "c10": lambda p, half, i: _exact_central_sum(half, lambda j: 1),
    "c11": lambda p, half, i: _exact_rearranged_sum(p, 0, half),
    "c12": lambda p, half, i: _exact_rearranged_sum(p, half + 1, p - 1),
    "d4": lambda p, half, i: Fraction((p - 2 * i) * comb(3 * i, i) * comb(p + i, 3 * i)),
    "d5": lambda p, half, i: _exact_domb_sum(p, -2, 2),
}


def exact_lhs(tag: str, p: int, index: int | None = None) -> Fraction:
    """The left side of a tagged check as an exact Fraction.

    This is the oracle route: no modular arithmetic at all, every power and
    inverse is a true rational.  Reducing the result with residue_of_rational
    must reproduce the ring evaluation; intended for small p.
    """
    if tag not in _EXACT_LHS:
        raise ValueError(f"unknown congruence tag {tag!r}")
    _require_prime(p)
    half = (p - 1) // 2
    if tag in PER_INDEX_TAGS:
        if index is None or not 0 <= index <= half:
            raise ValueError(f"{tag} needs an index i in [0, {half}]")
    return _EXACT_LHS[tag](p, half, index)
