"""Integer sequence generators: Domb, Franel, Euler, Catalan, central binomials.

All values are exact.  The Domb table is filled by the three-term recurrence
of Chan, Chan & Liu (Adv. Math. 186, 2004)

    n^3 D(n) = 2(2n-1)(5n^2-5n+2) D(n-1) - 64 (n-1)^3 D(n-2),

seeded with D(0) = 1 and D(1) = 4, and the Franel table by Franel's

    (n+1)^2 f(n+1) = (7n^2+7n+2) f(n) + 8n^2 f(n-1),

seeded with f(0) = 1 and f(1) = 2.  The defining sum

    Domb(n) = sum_{k=0}^{n} C(n,k)^2 C(2k,k) C(2n-2k,n-k)

stays available as its own route, `domb_by_definition`, which evaluates one
row from scratch and shares nothing with the table.  Three transformed
summations cross-validate both.  Every exact division in these generators
is checked and raises ArithmeticError on a remainder, so the guards survive
`python -O`.  Running sums along n live in one place, `running_sum`, which
keeps one cursor (n, sum) per key; the weighted Domb partial sum
S(n; a, b, base) = sum_{k<n} (a k + b) Domb(k) base^(n-1-k) is one such
cursor.  It is the numerator of both 1/pi-type series over a power-of-two
denominator, turned into one exact rational and only then into a float.

E_n mod p has two routes.  `euler_number_mod` runs the Euler recurrence
sum_j C(2m,2j) E_2j = 0 inside Z/p with a Pascal triangle, for any n, in
O(n^2) steps.  `euler_number_mod_by_secant`, for n < p, inverts the cosine
series over Z/p by Newton iteration (Brent & Kung, JACM 1978), each product
one big-int multiply by Kronecker substitution, and reads E_n off sec x.
The congruence checks use the secant route; the Pascal route is its oracle.
"""

from __future__ import annotations

import math
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

from .arith import NotPrime, PrimePowerModulus, Residue, is_prime


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with the usual convention 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class SequenceTable:
    """A memoized sequence prefix.

    Extension appends only; existing entries are never mutated.  A lock
    confines extension to one writer at a time, so concurrent readers of
    already-filled indices are safe.
    """

    def __init__(self, sid: str, step):
        self.id = sid
        self._vals: list[int] = []
        self._lock = threading.Lock()
        self._step = step

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError(f"negative index {i}")
        if i >= len(self._vals):
            with self._lock:
                while len(self._vals) <= i:
                    self._vals.append(self._step(self._vals))
        return self._vals[i]


# Running sums: key -> (n, acc), only the latest value.  Entries are replaced
# whole, never mutated, so a reader sees a consistent pair without a lock.
_cursors: dict[tuple, tuple[int, int]] = {}


def running_sum(key, n: int, start: int, ratio: int, term) -> int:
    """acc(n) for the sum named by key: acc(start) = 0 and
    acc(k+1) = ratio * acc(k) + term(k).  The cursor moves on from the last
    call's n, or restarts at `start` for a smaller n, so visiting a key in
    ascending n costs O(1) terms per call."""
    k, acc = _cursors.get(key, (start, 0))
    if k > n:
        k, acc = start, 0
    while k < n:
        acc = ratio * acc + term(k)
        k += 1
    _cursors[key] = (n, acc)
    return acc


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division by {den}, internal error")
    return q


def _central_step(vals):
    n = len(vals)
    if n == 0:
        return 1
    return _exact_div(vals[n - 1] * (4 * n - 2), n)


central_binomial = SequenceTable("central_binomial", _central_step)


def domb_recurrence(n: int) -> tuple[int, int, int]:
    """The coefficients (c, a, b) of the Domb recurrence at n >= 2:
    c D(n) = a D(n-1) + b D(n-2) with c = n^3."""
    return n ** 3, 2 * (2 * n - 1) * (5 * n * n - 5 * n + 2), -64 * (n - 1) ** 3


def _domb_step(vals):
    n = len(vals)
    if n < 2:
        return (1, 4)[n]
    c, a, b = domb_recurrence(n)
    return _exact_div(a * vals[n - 1] + b * vals[n - 2], c)


_domb_table = SequenceTable("domb", _domb_step)


def domb(n: int) -> int:
    """The n-th Domb number, sum_k C(n,k)^2 C(2k,k) C(2n-2k,n-k), read from
    the table that the three-term recurrence fills."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _domb_table[n]


def domb_partial_sum(n: int, a: int, b: int, base: int) -> int:
    """S(n) = sum_{k<n} (a k + b) Domb(k) base^(n-1-k); S(0) = 0."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return running_sum(("domb", a, b, base), n, 0, base, lambda k: (a * k + b) * domb(k))


def domb_by_definition(n: int) -> int:
    """Domb(n) by its defining sum, one row from scratch and without a table.

    The terms are generated by exact multiplicative updates from C(2n, n),
    and the row is folded by the k <-> n-k symmetry.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    t = binomial(2 * n, n)  # the k = 0 term
    total = 0
    for k in range(n // 2 + 1):
        total += t if 2 * k == n else 2 * t
        if k < n // 2:
            num = t * ((n - k) ** 3 * (2 * k + 1))
            t = _exact_div(num, (k + 1) ** 3 * (2 * (n - k) - 1))
    return total


def _franel_step(vals):
    n = len(vals)
    if n < 2:
        return (1, 2)[n]
    m = n - 1  # n^2 f(n) = (7m^2 + 7m + 2) f(m) + 8 m^2 f(m-1)
    return _exact_div((7 * m * m + 7 * m + 2) * vals[m] + 8 * m * m * vals[m - 1], n * n)


_franel_table = SequenceTable("franel", _franel_step)


def franel(n: int) -> int:
    """The n-th Franel number, sum_k C(n,k)^3, read from the table that
    Franel's recurrence fills."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _franel_table[n]


def catalan(i: int) -> int:
    """The i-th Catalan number C(2i,i)/(i+1); the division is exact."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    return _exact_div(central_binomial[i], i + 1)


def domb_via_cz(n: int) -> int:
    """Domb(n) by the alternating 16^(n-k) transformation:
    sum_k (-1)^k C(n+2k,3k) C(2k,k)^2 C(3k,k) 16^(n-k)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(
        (-1) ** k
        * binomial(n + 2 * k, 3 * k)
        * central_binomial[k] ** 2
        * binomial(3 * k, k)
        * 16 ** (n - k)
        for k in range(n + 1)
    )


def domb_via_sunzh(n: int) -> int:
    """Domb(n) by the half-range 4^(n-2k) transformation:
    sum_{k<=n/2} C(2k,k)^2 C(3k,k) C(n+k,3k) 4^(n-2k)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(
        central_binomial[k] ** 2
        * binomial(3 * k, k)
        * binomial(n + k, 3 * k)
        * 4 ** (n - 2 * k)
        for k in range(n // 2 + 1)
    )


def domb_via_ctyz(n: int) -> int:
    """Domb(n) from Franel numbers:
    (-1)^n sum_k C(n,k) C(n+k,k) (-8)^(n-k) f_k."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    s = sum(
        binomial(n, k) * binomial(n + k, k) * (-8) ** (n - k) * franel(k)
        for k in range(n + 1)
    )
    return (-1) ** n * s


def euler_number(n: int) -> int:
    """The n-th Euler number (secant-number convention: E_0 = 1, odd ones 0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return euler_numbers(n)[n] if n % 2 == 0 else 0


def euler_numbers(n_max: int) -> list[int]:
    """E_0, ..., E_{n_max} in one pass; even indices come from the
    recurrence sum_{j=0}^{m} C(2m,2j) E_{2j} = 0."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    e = [0] * (n_max + 1)
    e[0] = 1
    for m in range(1, n_max // 2 + 1):
        e[2 * m] = -sum(math.comb(2 * m, 2 * j) * e[2 * j] for j in range(m))
    return e


def euler_number_mod(n: int, p: int) -> Residue:
    """E_n mod p by running the same recurrence inside Z/p.

    Binomial coefficients are generated by a Pascal triangle mod p, so no
    inverses are needed and any n is fine, including n >= p.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    mod = PrimePowerModulus(p, 1)
    if n % 2 == 1:
        return Residue(0, mod)
    e = [0] * (n + 1)
    e[0] = 1
    row = [1]
    for r in range(1, n + 1):
        row.append(1)
        for j in range(r - 1, 0, -1):
            row[j] = (row[j] + row[j - 1]) % p
        if r % 2 == 0:
            m = r // 2
            acc = 0
            for j in range(m):
                acc += row[2 * j] * e[2 * j]
            e[r] = (-acc) % p
    return Residue(e[n], mod)


def _series_mul(a: list[int], b: list[int], p: int, n: int) -> list[int]:
    """The first n coefficients of the product a*b over Z/p, by Kronecker
    substitution: each factor is packed into one int with a fixed-width
    slot per coefficient, the two ints are multiplied once, and the slots
    are read back.  A slot is wide enough for any coefficient of the
    integer product, so no carry crosses into the next one."""
    a, b = a[:n], b[:n]
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1

    def pack(c):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in c), "little")

    raw = (pack(a) * pack(b)).to_bytes(width * (len(a) + len(b)), "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") % p for i in range(n)]


def _newton_step(f: list[int], g: list[int], p: int, n: int) -> list[int]:
    """g (2 - f g) mod y^n over Z/p, for g = 1/f mod y^k and k < n <= 2k: the
    inverse to precision n.  With f g = 1 + y^k e, this is g - y^k g e, so
    only the top n - k coefficients are new."""
    k = len(g)
    e = _series_mul(f, g, p, n)[k:]
    return g + [-c % p for c in _series_mul(g, e, p, n - k)]


def _series_inverse_mod(f: list[int], p: int) -> list[int]:
    """1/f mod y^len(f) over Z/p by Newton iteration (Brent & Kung 1978),
    for f[0] a unit; the result is checked against f before it is returned."""
    n = len(f)
    g = [pow(f[0], -1, p)]
    while len(g) < n:
        g = _newton_step(f, g, p, min(2 * len(g), n))
    if _series_mul(f, g, p, n) != [1] + [0] * (n - 1):
        raise ArithmeticError("power-series inverse is not one, internal error")
    return g


def euler_number_mod_by_secant(n: int, p: int) -> Residue:
    """E_n mod p for 0 <= n < p from sec x = 1/cos x.

    In y = x^2, cos x = sum_j (-1)^j y^j / (2j)!; its inverse over Z/p, by
    Newton iteration with Kronecker-substituted products, is
    sec x = sum_j (-1)^j E_2j y^j / (2j)!, so E_2j = (-1)^j (2j)! [y^j] sec.
    Every (2j)! with 2j < p is a unit.  A second route to the residues of
    `euler_number_mod`, sharing no code with it and using no harmonic or
    power sums.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not 0 <= n < p:
        raise ValueError(f"need 0 <= n < p, got n = {n}, p = {p}")
    mod = PrimePowerModulus(p, 1)
    if n % 2 == 1:
        return Residue(0, mod)
    fact = [1] * (n + 1)
    for j in range(1, n + 1):
        fact[j] = fact[j - 1] * j % p
    inv_fact = [1] * (n + 1)
    inv_fact[n] = pow(fact[n], -1, p)
    for j in range(n, 0, -1):
        inv_fact[j - 1] = inv_fact[j] * j % p
    h = n // 2
    cos = [(-1) ** j * inv_fact[2 * j] % p for j in range(h + 1)]
    sec = _series_inverse_mod(cos, p)
    return Residue((-1) ** h * fact[n] * sec[h], mod)


# analytic limits of the two series, as ordinary floats
ROGERS_LIMIT = 2.0 / math.pi
CCL_LIMIT = 8.0 / (math.sqrt(3.0) * math.pi)


def _to_real(q: Fraction) -> float:
    # exact-rational to decimal division at 30 significant digits, then float
    with localcontext() as ctx:
        ctx.prec = 30
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return float(d)


def rogers_partial(K: int) -> float:
    """Mean of the K-1-st and K-th partial sums of sum (3k+1) Domb(k)/(-32)^k.

    The raw partial sums straddle the limit 2/pi because the terms
    alternate; averaging two consecutive ones gives a usable estimate.
    Needs K >= 2.
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    # over the common denominator: the K-th partial sum is S(K+1) / (-32)^K,
    # and the K-1-st is -32 S(K) / (-32)^K
    prev = domb_partial_sum(K, 3, 1, -32)
    num = domb_partial_sum(K + 1, 3, 1, -32)
    return _to_real(Fraction(num - 32 * prev, 2 * (-32) ** K))


def ccl_partial(K: int) -> float:
    """The K-th partial sum of sum (5k+1) Domb(k)/64^k, which increases to
    its limit 8/(sqrt(3) pi).  Needs K >= 0."""
    if K < 0:
        raise ValueError(f"need K >= 0, got {K}")
    # over the common denominator: the K-th partial sum is S(K+1) / 64^K
    return _to_real(Fraction(domb_partial_sum(K + 1, 5, 1, 64), 64 ** K))
