"""Integrality and positivity of the normalized Domb partial sums.

The claim under test: for every n >= 1 and either base +8 or -8,

    (1/n) sum_{k=0}^{n-1} (2k+1) Domb(k) base^(n-1-k)

is a positive integer.  A non-integer or non-positive value would falsify
it, so thm3_value raises in that case instead of returning something
rounded; check_thm3 reports the same condition as a record and also
cross-checks the value against the independent Franel-number expansion.
Supporting growth facts (ratio monotonicity, the ratio bound 8, the
positivity of the alternating sums) are checked with cross-multiplied
integer comparisons only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .identities import franel_expansion
from .sequences import domb, domb_partial_sum


class NotInteger(ArithmeticError):
    """The normalized sum failed to be an integer (falsification)."""


class NotPositive(ArithmeticError):
    """The normalized sum failed to be positive (falsification)."""


def thm3_value(n: int, base: int) -> int:
    """The integer (1/n) sum_{k<n} (2k+1) Domb(k) base^(n-1-k), base in {8, -8}.

    Raises NotInteger or NotPositive if the claim fails at this n; both
    would be falsification events.
    """
    if base not in (8, -8):
        raise ValueError(f"base must be +8 or -8, got {base}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = domb_partial_sum(n, 2, 1, base)
    q, r = divmod(s, n)
    if r != 0:
        raise NotInteger(f"sum {s} is not divisible by n={n} (base {base})")
    if q <= 0:
        raise NotPositive(f"normalized sum {q} is not positive (n={n}, base {base})")
    return q


@dataclass(frozen=True)
class Thm3Record:
    n: int
    base: int
    value: Fraction          # exact, denominator 1 iff integral
    franel_route: int        # the same quantity via the Franel expansion
    holds: bool


def check_thm3(n: int, base: int) -> Thm3Record:
    """Non-raising form: holds means integral, positive, and equal to the
    independent Franel-expansion evaluation of the same quantity."""
    if base not in (8, -8):
        raise ValueError(f"base must be +8 or -8, got {base}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    value = Fraction(domb_partial_sum(n, 2, 1, base), n)
    other = franel_expansion(n, base)
    holds = value.denominator == 1 and value > 0 and value == other
    return Thm3Record(n, base, value, other, holds)


def check_ratio_monotone(N: int):
    """Growth facts about r_k = Domb(k+1)/Domb(k) up to k = N-1.

    Checks, all by cross-multiplied integer comparisons:
      r_k strictly increasing on 0 <= k <= N-1,
      r_k > 8 for 2 <= k <= N-1,
      a_k = (2k+1) Domb(k)/8^k strictly increasing on 0 <= k <= N-1.
    Returns (True, None) or (False, first failing k).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    d = [domb(k) for k in range(N + 1)]
    for k in range(N - 1):
        if not d[k + 2] * d[k] > d[k + 1] ** 2:
            return False, k
    for k in range(2, N):
        if not d[k + 1] > 8 * d[k]:
            return False, k
    for k in range(N):
        if not (2 * k + 3) * d[k + 1] > 8 * (2 * k + 1) * d[k]:
            return False, k
    return True, None


def check_alternating_positivity(n: int):
    """Is sum_{k<n} (2k+1) Domb(k) (-8)^(n-1-k) strictly positive?
    Returns (flag, the exact integer sum)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = domb_partial_sum(n, 2, 1, -8)
    return s > 0, s
