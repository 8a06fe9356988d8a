"""Generalized harmonic numbers, plain and alternating, exact.

H_n^(r) = sum_{j=1}^{n} 1/j^r, the alternating variant replaces 1/j^r by
(-1)^j/j^r, and the weighted alternating variant sums (-1)^i H_i / i.
All three are memoized as growing prefix lists of exact Fractions; the
weighted loop reuses the plain prefix, so every extension is O(1) rational
operations per index.
"""

from __future__ import annotations

import threading
from fractions import Fraction

_lock = threading.Lock()
_plain: dict[int, list[Fraction]] = {}
_alternating: dict[int, list[Fraction]] = {}
_weighted: list[Fraction] = [Fraction(0)]


def _extend_plain(r: int, n: int) -> list[Fraction]:
    with _lock:
        tab = _plain.setdefault(r, [Fraction(0)])
        while len(tab) <= n:
            j = len(tab)
            tab.append(tab[-1] + Fraction(1, j ** r))
    return tab


def _extend_alternating(r: int, n: int) -> list[Fraction]:
    with _lock:
        tab = _alternating.setdefault(r, [Fraction(0)])
        while len(tab) <= n:
            j = len(tab)
            tab.append(tab[-1] + Fraction((-1) ** j, j ** r))
    return tab


def harmonic(n: int, r: int = 1) -> Fraction:
    """H_n^(r) = sum_{j=1}^{n} 1/j^r, exactly; H_0 = 0."""
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={n} r={r}")
    return _extend_plain(r, n)[n]


def alt_harmonic(n: int, r: int = 1) -> Fraction:
    """sum_{j=1}^{n} (-1)^j / j^r, exactly; only r in {1, 2} is supported."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if r not in (1, 2):
        raise ValueError(f"alternating variant defined for r in {{1, 2}}, got {r}")
    return _extend_alternating(r, n)[n]


def alt_harmonic_weighted(n: int) -> Fraction:
    """sum_{i=1}^{n} (-1)^i H_i / i, exactly."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    plain = _extend_plain(1, n)
    with _lock:
        while len(_weighted) <= n:
            i = len(_weighted)
            _weighted.append(_weighted[-1] + Fraction((-1) ** i, i) * plain[i])
    return _weighted[n]
