"""Exact arithmetic over prime-power residue rings.

Plain Python ints carry all exact integer work and fractions.Fraction all
exact rational work; both are arbitrary precision.  What this module adds
is the ring layer on top: canonical residues mod p^k, reduction of
p-integral rationals, Fermat quotients and prime generation.
Everything here is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class DenominatorDivisibleByP(ValueError):
    """A rational has no residue mod p^k because p divides its denominator."""


class PDividesBase(ValueError):
    """fermat_quotient was asked about a base divisible by p."""


class BadRange(ValueError):
    """An invalid or empty-by-construction integer range was requested."""


class NotPrime(ValueError):
    """A value that must be prime is not."""


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if lo < 2 or lo > hi:
        raise BadRange(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    return [n for n in range(lo, hi + 1) if is_prime(n)]


@dataclass(frozen=True)
class PrimePowerModulus:
    """The ring Z/p^k for an odd-or-even prime p and exponent k >= 1."""

    p: int
    k: int
    m: int = field(init=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"exponent must be >= 1, got {self.k}")
        object.__setattr__(self, "m", self.p ** self.k)


@dataclass(frozen=True)
class Residue:
    """A canonical residue in Z/p^k; value is always kept in [0, m)."""

    value: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus.m)

    def __int__(self) -> int:
        return self.value


def residue_of_rational(q, modulus: PrimePowerModulus) -> Residue:
    """Reduce an exact rational mod p^k.

    Defined whenever the denominator is coprime to p; the result is
    numerator * denominator^(-1) as a canonical residue.  Ints are
    accepted and treated as rationals with denominator 1.
    """
    q = Fraction(q)
    den = q.denominator
    if den % modulus.p == 0:
        raise DenominatorDivisibleByP(
            f"denominator {den} is divisible by {modulus.p}"
        )
    inv = pow(den, -1, modulus.m)
    return Residue(q.numerator * inv, modulus)


def fermat_quotient(a: int, p: int, k: int = 1) -> Residue:
    """The Fermat quotient (a^(p-1) - 1)/p as a residue mod p^k.

    Computed from a^(p-1) mod p^(k+1) followed by exact division by p,
    so the full integer power is never formed.
    """
    if not is_prime(p) or p == 2:
        raise NotPrime(f"need an odd prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if a % p == 0:
        raise PDividesBase(f"{a} is divisible by {p}")
    t = pow(a, p - 1, p ** (k + 1))
    num = t - 1
    if num % p:
        raise ArithmeticError("Fermat's little theorem violated, internal error")
    return Residue(num // p, PrimePowerModulus(p, k))
