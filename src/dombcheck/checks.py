"""The check catalog: one entry per tag, driving the CLI, `sweep` and the tests.

An entry names its suite, its grid and its evaluator.  The grid maps
(n_max, primes) to the argument tuples the tag runs at; the evaluator runs
the check at one argument tuple and returns a list of report rows
(params, lhs, rhs, modulus, holds).  Congruence entries also keep `verify`,
which returns the CongruenceResults behind those rows.  Adding an identity
or divisibility check takes one entry here and no edit anywhere else.  A
congruence check is defined by its `_SWEEP` and `_EXACT_LHS` entries in
`congruences`; the entries of its lemma (b) and proof-step (c, d) tags here
follow from `_SWEEP`.

Evaluators call the check functions through their modules at call time
(`identities.check_c2(...)`), never through a stored function object, so
anything that rebinds a module attribute, such as a tracer or a test's
monkeypatch, sees every call.  The CLI's tasks are flat (tag, *args) tuples
and workers look the entry up by tag, so no entry is ever pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import congruences, divisibility, identities
from .arith import BadRange, primes_in_range
from .congruences import CongruenceResult


@dataclass(frozen=True)
class Check:
    tag: str
    suite: str
    grid: Callable[[int, list[int]], Iterable[tuple]]
    evaluate: Callable[..., list[tuple]]
    verify: Callable[[int], list[CongruenceResult]] | None = None


# ---------------------------------------------------------------- grids

def _n_from_0(n_max, primes):
    return ((n,) for n in range(n_max + 1))


def _n_from_1(n_max, primes):
    return ((n,) for n in range(1, n_max + 1))


def _odd_n(n_max, primes):
    return ((n,) for n in range(1, n_max + 1, 2))


def _i_below_n(n_max, primes):
    return ((n, i) for n in range(1, n_max + 1) for i in range(n))


def _2i_below_n(n_max, primes):
    return ((n, i) for n in range(1, n_max + 1) for i in range((n - 1) // 2 + 1))


def _per_prime(n_max, primes):
    return ((p,) for p in primes)


def _whole_range(n_max, primes):
    return ((n_max,),) if n_max >= 1 else ()


# ---------------------------------------------------------------- rows

def _row(params, rep):
    """The one row of an identity check's IdentityReport."""
    return [(params, rep.lhs, rep.rhs, "", rep.holds)]


def _thm3_row(rec):
    return [({"n": rec.n}, rec.value, rec.franel_route, "", rec.holds)]


def _alt_positivity(n):
    ok, value = divisibility.check_alternating_positivity(n)
    return [({"n": n}, value, "0", "", ok)]


def _ratio_monotone(n):
    ok, where = divisibility.check_ratio_monotone(n)
    return [({"n": n}, -1 if where is None else where, "-1", "", ok)]


def _congruence(tag, verify):
    """A congruence entry, run at every prime; verify(p) gives its results."""

    def evaluate(p):
        return [
            ({"p": r.p} if r.index is None else {"p": r.p, "i": r.index},
             r.lhs.value, r.rhs.value, str(r.modulus.m), r.holds)
            for r in verify(p)
        ]

    return Check(tag, "congruences", _per_prime, evaluate, verify)


_ENTRIES = [
    *(Check(t, "identities", _n_from_0,
            lambda n, t=t: _row({"n": n}, identities.check_transformation(t, n)))
      for t in ("cz", "sunzh", "ctyz")),
    Check("c2", "identities", _i_below_n,
          lambda n, i: _row({"n": n, "i": i}, identities.check_c2(n, i))),
    Check("d2", "identities", _2i_below_n,
          lambda n, i: _row({"n": n, "i": i}, identities.check_d2(n, i))),
    *(Check(t, "identities", _odd_n,
            lambda n, t=t: _row({"n": n}, identities.check_rearrangement(t, n)))
      for t in ("c3", "d3")),
    Check("b1", "identities", _n_from_0, lambda n: _row({"n": n}, identities.check_b1(n))),
    Check("b2", "identities", _n_from_0, lambda n: _row({"n": n}, identities.check_b2(n))),
    Check("b10gen", "identities", _n_from_0,
          lambda m: _row({"m": m}, identities.check_b10gen(m))),
    *(Check(t, "identities", _i_below_n,
            lambda n, i, t=t: _row({"n": n, "i": i}, identities.check_e_inner(t, n, i)))
      for t in ("e_inner_plus", "e_inner_alt")),
    *(Check(t, "identities", _n_from_1,
            lambda n, t=t: _row({"n": n}, identities.check_e_full(t, n)))
      for t in ("e1", "e2")),
    _congruence("thm1", lambda p: [congruences.verify_thm1(p)]),
    _congruence("thm2", lambda p: [congruences.verify_thm2(p)]),
    *(_congruence(t, lambda p, t=t: [congruences.verify_lemma(t, p)])
      for t in congruences.LEMMA_TAGS),
    *(_congruence(t, lambda p, t=t: congruences.verify_proof_step(t, p))
      for t in congruences.PROOF_STEP_TAGS),
    Check("thm3_plus", "divisibility", _n_from_1,
          lambda n: _thm3_row(divisibility.check_thm3(n, 8))),
    Check("thm3_minus", "divisibility", _n_from_1,
          lambda n: _thm3_row(divisibility.check_thm3(n, -8))),
    Check("ratio_monotone", "divisibility", _whole_range, _ratio_monotone),
    Check("alt_positivity", "divisibility", _n_from_1, _alt_positivity),
]

CHECKS: dict[str, Check] = {c.tag: c for c in _ENTRIES}
SUITES = tuple(dict.fromkeys(c.suite for c in _ENTRIES))


def sweep(ids, p_lo: int, p_hi: int) -> list[CongruenceResult]:
    """Run the given congruence tags over every prime in [p_lo, p_hi].

    Results come back ordered by prime ascending, then by tag in catalog
    order (per-index tags additionally by i ascending).
    """
    ids = list(ids)
    for tag in ids:
        if tag not in CHECKS or CHECKS[tag].verify is None:
            raise ValueError(f"unknown congruence tag {tag!r}")
    if not 5 <= p_lo <= p_hi:
        raise BadRange(f"need 5 <= p_lo <= p_hi, got [{p_lo}, {p_hi}]")
    verifiers = [c.verify for t, c in CHECKS.items() if t in ids]
    return [r for p in primes_in_range(p_lo, p_hi) for verify in verifiers for r in verify(p)]
