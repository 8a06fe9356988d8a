"""Generalized harmonic numbers, plain and alternating, exact.

H_n^(r) = sum_{j=1}^{n} 1/j^r, the alternating variant replaces 1/j^r by
(-1)^j/j^r, and the weighted alternating variant sums (-1)^i H_i / i.
All three are memoized prefixes of exact Fractions in `SequenceTable`s;
the weighted table reads the plain one, so every extension is O(1)
rational operations per index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .sequences import SequenceTable


def _plain_step(r, vals):
    j = len(vals)
    return vals[-1] + Fraction(1, j ** r) if j else Fraction(0)


def _alternating_step(r, vals):
    j = len(vals)
    return vals[-1] + Fraction((-1) ** j, j ** r) if j else Fraction(0)


@lru_cache(maxsize=None)
def _table(step, r: int) -> SequenceTable:
    """The prefix table of the plain or alternating variant at exponent r,
    made on first use."""
    return SequenceTable(f"{step.__name__}{r}", partial(step, r))


def _weighted_step(vals):
    i = len(vals)
    return vals[-1] + Fraction((-1) ** i, i) * _table(_plain_step, 1)[i] if i else Fraction(0)


_weighted = SequenceTable("alt_harmonic_weighted", _weighted_step)


def harmonic(n: int, r: int = 1) -> Fraction:
    """H_n^(r) = sum_{j=1}^{n} 1/j^r, exactly; H_0 = 0."""
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={n} r={r}")
    return _table(_plain_step, r)[n]


def alt_harmonic(n: int, r: int = 1) -> Fraction:
    """sum_{j=1}^{n} (-1)^j / j^r, exactly; only r in {1, 2} is supported."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if r not in (1, 2):
        raise ValueError(f"alternating variant defined for r in {{1, 2}}, got {r}")
    return _table(_alternating_step, r)[n]


def alt_harmonic_weighted(n: int) -> Fraction:
    """sum_{i=1}^{n} (-1)^i H_i / i, exactly."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _weighted[n]
