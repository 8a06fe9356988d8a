"""Exact combinatorial identities, each checked by evaluating both sides.

Every check returns an IdentityReport whose `holds` flag means exact
equality of two Fractions computed by disjoint code paths; the only shared
ingredients are the binomial, sequence and harmonic primitives.  A False
here is a falsification event, not a soft failure.

Every left side that is a sum along n is a `sequences.running_sum` cursor
(n, sum): one per (tag, i) column for the inner sums c2, d2, e_inner_plus
and e_inner_alt, and the weighted Domb partial sum for c3, d3, e1 and e2.
A check adds only the summands between the cursor and its n, so a sweep in
ascending n costs O(1) big-int operations per record, not an O(n) sum.
For c2 the prefix is the left side times (-2)^(n-1), an integer; c2, c3
and d3 compare integer numerators over one power of two.  A left side is
built from the summands alone, never from a closed form, so the two sides
stay independent routes.

Check catalog (ids as used throughout the tool):

  cz, sunzh, ctyz   Domb(n) by its defining sum against its three
                      transformed summations
  c2                inner sum  sum_{k=i}^{n-1} (3k+1)(-2)^-k C(k+2i,3i)
                      = (n-i) C(n+2i,3i) (-2)^(1-n)
  d2                inner sum  sum_{k=2i}^{n-1} (-2)^k (3k+2) C(k+i,3i)
                      = (-1)^(n-1) (n-2i) C(n+i,3i) 2^n
  c3                sum_{k<n} (3k+1) Domb(k)/(-32)^k rearranged over
                      2^(1-n) (n-i) (-16)^-i C(2i,i)^2 C(3i,i) C(n+2i,3i),
                      odd n only
  d3                sum_{k<n} (3k+2) Domb(k)/(-2)^k rearranged over
                      2^n (n-2i) 16^-i C(2i,i)^2 C(3i,i) C(n+i,3i),
                      odd n only
  b1                sum_i (-1)^i C(n,i) C(n+i,i) (H_2i - H_i)
                      = (-1)^(n+1) sum_{i=1}^{n} (-1)^i/i
  b2                same weights against (H_2i - H_i)^2 - H_2i^(2) - H_i^(2)
                      = 2 (-1)^n (sum (-1)^i/i^2 + sum (-1)^i H_i/i)
  b10gen            sum_{i=1}^{m} (-1)^i/i = H_floor(m/2) - H_m
  e_inner_plus      sum_{k=i}^{n-1} (2k+1) C(k,i) C(k+i,i)
                      = n(n-i)/(i+1) C(2i,i) C(n+i,2i)
  e_inner_alt       sum_{k=i}^{n-1} (-1)^k (2k+1) C(k,i) C(k+i,i)
                      = (-1)^(n-1) n C(n-1,i) C(n+i,i)
  e1                (1/n) sum_{k<n} (2k+1) Domb(k) 8^(n-1-k)
                      = sum_i (-1)^i 8^(n-1-i) (n-i)/(i+1) C(2i,i) C(n+i,2i) f_i
  e2                (1/n) sum_{k<n} (2k+1) Domb(k) (-8)^(n-1-k)
                      = sum_i (-1)^i 8^(n-1-i) C(n-1,i) C(n+i,i) f_i
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .harmonic import alt_harmonic, alt_harmonic_weighted, harmonic
from .sequences import (
    binomial,
    catalan,
    central_binomial,
    domb_by_definition,
    domb_partial_sum,
    domb_via_cz,
    domb_via_ctyz,
    domb_via_sunzh,
    franel,
    running_sum,
)

class BadIndex(ValueError):
    """An inner-sum identity was asked outside its index triangle."""


class EvenN(ValueError):
    """A rearrangement identity that needs odd n was given an even one."""


@dataclass(frozen=True)
class IdentityReport:
    id: str
    params: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _report(tag, params, lhs, rhs) -> IdentityReport:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    return IdentityReport(tag, tuple(params), lhs, rhs, lhs == rhs)


def _report_over(tag, params, lhs: int, rhs: int, den: int) -> IdentityReport:
    """Both sides given as integer numerators over one common denominator."""
    return IdentityReport(
        tag, tuple(params), Fraction(lhs, den), Fraction(rhs, den), lhs == rhs
    )


def check_transformation(tag: str, n: int) -> IdentityReport:
    """Domb(n) by definition against one of its transformed summations."""
    routes = {"cz": domb_via_cz, "sunzh": domb_via_sunzh, "ctyz": domb_via_ctyz}
    if tag not in routes:
        raise ValueError(f"unknown transformation {tag!r}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _report(tag, (n,), domb_by_definition(n), routes[tag](n))


# summands of the inner sums, as term(i, k); each column (tag, i) is a
# running sum over k
def _c2_term(i, k):
    return (3 * k + 1) * binomial(k + 2 * i, 3 * i)


def _d2_term(i, k):
    return (-2) ** k * (3 * k + 2) * binomial(k + i, 3 * i)


def _e_plus_term(i, k):
    return (2 * k + 1) * binomial(k, i) * binomial(k + i, i)


def _e_alt_term(i, k):
    return (-1) ** k * _e_plus_term(i, k)


def check_c2(n: int, i: int) -> IdentityReport:
    if not 0 <= i <= n - 1:
        raise BadIndex(f"need 0 <= i <= n-1, got n={n} i={i}")
    # both sides times (-2)^(n-1): the left side is then the integer
    # sum_{k=i}^{n-1} (3k+1) (-2)^(n-1-k) C(k+2i,3i)
    lhs = running_sum(("c2", i), n, i, -2, partial(_c2_term, i))
    rhs = (n - i) * binomial(n + 2 * i, 3 * i)
    return _report_over("c2", (n, i), lhs, rhs, (-2) ** (n - 1))


def check_d2(n: int, i: int) -> IdentityReport:
    if not (0 <= i and 2 * i <= n - 1):
        raise BadIndex(f"need 0 <= 2i <= n-1, got n={n} i={i}")
    lhs = running_sum(("d2", i), n, 2 * i, 1, partial(_d2_term, i))
    rhs = (-1) ** (n - 1) * (n - 2 * i) * binomial(n + i, 3 * i) * 2 ** n
    return _report("d2", (n, i), lhs, rhs)


def check_rearrangement(tag: str, n: int) -> IdentityReport:
    """The full Domb sum versus its inner-sum rearrangement (c3 or d3)."""
    if tag not in ("c3", "d3"):
        raise ValueError(f"unknown rearrangement {tag!r}")
    if n < 1 or n % 2 == 0:
        raise EvenN(f"rearrangement {tag} needs odd n >= 1, got {n}")
    # both sides times (-32)^(n-1) (c3) or (-2)^(n-1) (d3), both positive
    # powers of two since n is odd; each side is then a Horner sum in integers
    if tag == "c3":
        lhs = domb_partial_sum(n, 3, 1, -32)
        rhs = 0  # sum_i (n-i) C(2i,i)^2 C(3i,i) C(n+2i,3i) (-16)^(n-1-i)
        for i in range(n):
            rhs = -16 * rhs + (
                (n - i)
                * central_binomial[i] ** 2
                * binomial(3 * i, i)
                * binomial(n + 2 * i, 3 * i)
            )
        den = (-32) ** (n - 1)
    else:
        lhs = domb_partial_sum(n, 3, 2, -2)
        rhs = 0  # 2 sum_i (n-2i) C(2i,i)^2 C(3i,i) C(n+i,3i) 16^((n-1)/2-i)
        for i in range((n - 1) // 2 + 1):
            rhs = 16 * rhs + (
                (n - 2 * i)
                * central_binomial[i] ** 2
                * binomial(3 * i, i)
                * binomial(n + i, 3 * i)
            )
        rhs *= 2
        den = (-2) ** (n - 1)
    return _report_over(tag, (n,), lhs, rhs, den)


def check_b1(n: int) -> IdentityReport:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    lhs = sum(
        (-1) ** i
        * binomial(n, i)
        * binomial(n + i, i)
        * (harmonic(2 * i) - harmonic(i))
        for i in range(n + 1)
    )
    rhs = (-1) ** (n + 1) * alt_harmonic(n, 1)
    return _report("b1", (n,), lhs, rhs)


def check_b2(n: int) -> IdentityReport:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    lhs = sum(
        (-1) ** i
        * binomial(n, i)
        * binomial(n + i, i)
        * (
            (harmonic(2 * i) - harmonic(i)) ** 2
            - harmonic(2 * i, 2)
            - harmonic(i, 2)
        )
        for i in range(n + 1)
    )
    rhs = 2 * (-1) ** n * (alt_harmonic(n, 2) + alt_harmonic_weighted(n))
    return _report("b2", (n,), lhs, rhs)


def check_b10gen(m: int) -> IdentityReport:
    """The exact splitting sum_{i<=m} (-1)^i/i = H_floor(m/2) - H_m, any m >= 0."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    lhs = alt_harmonic(m, 1)
    rhs = harmonic(m // 2) - harmonic(m)
    return _report("b10gen", (m,), lhs, rhs)


def check_e_inner(tag: str, n: int, i: int) -> IdentityReport:
    if tag not in ("e_inner_plus", "e_inner_alt"):
        raise ValueError(f"unknown inner identity {tag!r}")
    if not 0 <= i <= n - 1:
        raise BadIndex(f"need 0 <= i <= n-1, got n={n} i={i}")
    if tag == "e_inner_plus":
        lhs = running_sum((tag, i), n, i, 1, partial(_e_plus_term, i))
        rhs = n * (n - i) * catalan(i) * binomial(n + i, 2 * i)
    else:
        lhs = running_sum((tag, i), n, i, 1, partial(_e_alt_term, i))
        rhs = (-1) ** (n - 1) * n * binomial(n - 1, i) * binomial(n + i, i)
    return _report(tag, (n, i), lhs, rhs)


def check_e_full(tag: str, n: int) -> IdentityReport:
    """The two normalized Domb partial sums against their Franel expansions.

    The left side is (1/n) sum_{k<n} (2k+1) Domb(k) base^(n-1-k) with base
    +8 (e1) or -8 (e2); it is kept as an exact Fraction, so a divisibility
    failure would surface as holds = False rather than a rounded value.
    """
    if tag not in ("e1", "e2"):
        raise ValueError(f"unknown full identity {tag!r}")
    if n < 1:
        raise BadIndex(f"need n >= 1, got {n}")
    base = 8 if tag == "e1" else -8
    lhs = Fraction(domb_partial_sum(n, 2, 1, base), n)
    return _report(tag, (n,), lhs, franel_expansion(n, base))


def franel_expansion(n: int, base: int) -> int:
    """The right side of e1 (base +8) or e2 (base -8): the normalized Domb
    partial sum expanded over Franel numbers.

      e1:  sum_i (-1)^i 8^(n-1-i) (n-i)/(i+1) C(2i,i) C(n+i,2i) f_i
      e2:  sum_i (-1)^i 8^(n-1-i) C(n-1,i) C(n+i,i) f_i
    """
    if base == 8:
        return sum(
            (-1) ** i
            * 8 ** (n - 1 - i)
            * (n - i)
            * catalan(i)
            * binomial(n + i, 2 * i)
            * franel(i)
            for i in range(n)
        )
    return sum(
        (-1) ** i
        * 8 ** (n - 1 - i)
        * binomial(n - 1, i)
        * binomial(n + i, i)
        * franel(i)
        for i in range(n)
    )
