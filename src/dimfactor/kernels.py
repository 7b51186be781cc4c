"""Sieve kernels over contiguous level ranges.

Everything here works in 64-bit integers on values scaled by 12, which
keeps the arithmetic exact for every range a sweep accepts: the largest
intermediate is about (k - 1) * hi, which the sweeps keep below 2^62
(levels up to ``sweeps.MAX_SWEEP_HI`` = 10^7).

One blocked sieve (:func:`_multiplicative_rows`) fills both table
families over any window lo..hi, by multiplying the local factors of
:mod:`~dimfactor.multfuncs` along each level's prime factors:

* the star tables (:func:`build_star_tables`): the four starred
  functions and the Mobius function, the five entries of
  :func:`~dimfactor.multfuncs.star_local`.
* the sharp tables (:func:`build_sharp_tables`): the four sharp
  functions f# of :func:`~dimfactor.multfuncs.sharp_local` (the Mobius
  inverses of the starred ones), mu, and primality.  No Mobius inversion
  runs on any sweep; :func:`mobius_invert` stays as the reference the
  tests check the sharp sieve against.

G, A and B are each :func:`~dimfactor.multfuncs.twelve_combination`,
the one closed form the exact path evaluates too, applied to whole
arrays: G at (N, 1, (-4|N), (-3|N)), A at the star tables, B at the
sharp tables plus 12 * delta2 * mu.

The exact-rational code paths elsewhere in the package do not depend on
this module; cross-validation of the two lives in the test suite.
Importing it does not load numpy: that happens on the first sieve or
table call, so the single-level commands never pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .arith import primes_below
from .dimensions import level_one_newform_dim
from .multfuncs import sharp_local, star_local, twelve_combination

if TYPE_CHECKING:
    import numpy as np

_KRON4 = (0, 1, 0, -1)  # (-4|N), indexed by N mod 4
_KRON3 = (0, 1, -1)  # (-3|N), indexed by N mod 3


def _kron(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-4|N) and (-3|N) for an array of levels, as int8: twelve_G holds
    both arrays while the combination runs."""
    import numpy as np

    return np.array(_KRON4, np.int8)[levels % 4], np.array(_KRON3, np.int8)[levels % 3]


# --- the sieve -----------------------------------------------------------

SIEVE_BLOCK = 1 << 16  # levels per block of the sieve


def _star_at_primes(q: np.ndarray) -> np.ndarray:
    """star_local(q, 1) for an array of primes q, one column each."""
    import numpy as np

    return np.stack((q, np.ones_like(q), *_kron(q), np.full_like(q, -1)))


def _sharp_at_primes(q: np.ndarray) -> np.ndarray:
    """sharp_local(q, 1) for an array of primes q, one column each: it is
    star_local(q, 1) - star_local(q, 0), with the same mu."""
    out = _star_at_primes(q)
    out[:4] -= 1
    return out


def _multiplicative_rows(lo: int, hi: int, local, at_primes):
    """Five multiplicative functions over levels lo..hi, given by their
    local factors ``local(p, e)`` (a 5-tuple, e >= 1) and, for an array of
    primes q, ``at_primes(q)`` = the columns local(q, 1); also the
    primality of each level.  Level 0 reads 0 in every row.

    Each block of SIEVE_BLOCK levels walks the primes p <= sqrt(hi) in
    increasing order: the exact power of p in every multiple is read off
    the strided multiples of p, p^2, ..., divided out, and its local
    factor multiplied in from a table built once per prime power.  What
    is left above 1 is the one prime factor above sqrt(hi).
    """
    import numpy as np

    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    small = primes_below(math.isqrt(hi) + 1)
    factors = []  # ([p^0, p^1, ...], the same as an array, local factor rows by exponent)
    for p in small:
        pows = [1]
        while pows[-1] * p <= hi:
            pows.append(pows[-1] * p)
        rows = [(1,) * 5] + [local(p, e) for e in range(1, len(pows))]
        factors.append((pows, np.array(pows, dtype=np.int64), np.array(rows, dtype=np.int64)))
    out = np.ones((5, hi - lo + 1), dtype=np.int64)
    prime = np.zeros(hi - lo + 1, dtype=bool)
    if lo == 0:
        out[:, 0] = 0
    exps = np.empty(SIEVE_BLOCK, dtype=np.int64)
    for a in range(max(lo, 1), hi + 1, SIEVE_BLOCK):
        size = min(SIEVE_BLOCK, hi + 1 - a)
        levels = np.arange(a, a + size, dtype=np.int64)
        rem = levels.copy()
        acc = out[:, a - lo : a - lo + size]
        for pows, pow_arr, rows in factors:
            p = pows[1]
            first = -a % p
            if first >= size:
                continue
            for e in range(1, len(pows)):
                start = -a % pows[e]
                if start >= size:
                    break
                exps[start : size : pows[e]] = e
            e_at = exps[first:size:p]
            rem[first::p] //= pow_arr[e_at]
            acc[:, first::p] *= rows[e_at].T
        rest = np.flatnonzero(rem > 1)
        acc[:, rest] *= at_primes(rem[rest])
        prime[a - lo : a - lo + size] = (rem == levels) & (levels >= 2)
    for p in small:
        if lo <= p <= hi:
            prime[p - lo] = True
    return out, prime


@dataclass(frozen=True)
class SharpTables:
    """Sharp sieve output over levels lo..hi (index i is level lo + i):
    the integer N*s0#(N), the three other sharp values, the Mobius
    function, and whether each level is prime."""

    lo: int
    hi: int
    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    prime: np.ndarray


def build_sharp_tables(lo: int, hi: int) -> SharpTables:
    """Sieve the sharp functions over levels lo..hi, in blocks, without
    touching any level below lo."""
    rows, prime = _multiplicative_rows(lo, hi, sharp_local, _sharp_at_primes)
    x, w, y, z, mu = rows
    return SharpTables(lo=lo, hi=hi, x=x, w=w, y=y, z=z, mu=mu, prime=prime)


@dataclass(frozen=True)
class StarTables:
    """Star sieve output over levels lo..hi (index i is level lo + i):
    the integer N*s0*(N), the three other starred values, and the Mobius
    function.  ``sharp`` holds the sharp tables over the same levels,
    sieved on first use."""

    lo: int
    hi: int
    ns0: np.ndarray
    nu_inf: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray
    mu: np.ndarray

    @cached_property
    def sharp(self) -> SharpTables:
        return build_sharp_tables(self.lo, self.hi)


def build_star_tables(lo: int, hi: int) -> StarTables:
    """Sieve the starred functions and mu over levels lo..hi, in blocks,
    without touching any level below lo."""
    rows, _ = _multiplicative_rows(lo, hi, star_local, _star_at_primes)
    ns0, nu_inf, nu2, nu3, mu = rows
    return StarTables(lo=lo, hi=hi, ns0=ns0, nu_inf=nu_inf, nu2=nu2, nu3=nu3, mu=mu)


@lru_cache(maxsize=4)
def star_tables(limit: int) -> StarTables:
    """Cached star tables over levels 0..limit."""
    return build_star_tables(0, limit)


def mobius_invert(values: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """out[n] = sum over d | n of mu(n/d) * values[d], for all n at once,
    with both tables indexed from level 0.

    No sweep uses it: it is the reference the sharp sieve is tested
    against."""
    import numpy as np

    limit = len(values) - 1
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        v = int(values[d])
        if v == 0:
            continue
        out[d::d] += v * mu[1 : limit // d + 1]
    return out


def twelve_G(k: int, levels: np.ndarray) -> np.ndarray:
    """12 * G(k, N) for every level in ``levels``: the closed form at
    (N, 1, (-4|N), (-3|N))."""
    return twelve_combination(k, levels, 1, *_kron(levels))


def check_covers(tables: StarTables | SharpTables, lo: int, hi: int) -> None:
    """Refuse tables that do not hold every level of [lo, hi]."""
    if not tables.lo <= lo <= hi <= tables.hi:
        raise ValueError(
            f"tables cover levels [{tables.lo}, {tables.hi}], not the window [{lo}, {hi}]"
        )


def twelve_A(k: int, tables: StarTables, lo: int, hi: int) -> np.ndarray:
    """12 * A(k, N) for levels lo..hi inside the star tables' range: the
    closed form at the starred tables.  It holds from level 2 on (level 1
    lacks the delta2 term that :func:`dimension_tables` adds).  A window
    the tables do not cover raises ValueError."""
    check_covers(tables, lo, hi)
    sl = slice(lo - tables.lo, hi - tables.lo + 1)
    return twelve_combination(k, tables.ns0[sl], tables.nu_inf[sl], tables.nu2[sl], tables.nu3[sl])


def twelve_B(k: int, sharp: SharpTables, lo: int, hi: int) -> np.ndarray:
    """12 * B(k, N) for levels lo..hi inside the sharp tables' range: the
    closed form at the sharp tables plus 12 * delta2 * mu (0 at level 0,
    where every sharp table reads 0).  A window the tables do not cover
    raises ValueError."""
    check_covers(sharp, lo, hi)
    sl = slice(lo - sharp.lo, hi - sharp.lo + 1)
    out = twelve_combination(k, sharp.x[sl], sharp.w[sl], sharp.y[sl], sharp.z[sl])
    if k == 2:
        out += 12 * sharp.mu[sl]
    return out


@dataclass(frozen=True)
class DimensionTables:
    """12 times the four dimension quantities at one weight, for every
    level up to the limit.  Scaling by 12 keeps everything in int64."""

    k: int
    limit: int
    G12: np.ndarray
    A12: np.ndarray
    B12: np.ndarray
    H12: np.ndarray


def dimension_tables(k: int, tables: StarTables) -> DimensionTables:
    """All four dimension quantities (times 12) at weight k from star
    tables over 0..limit and their sharp tables.  Index 1 of A12/B12
    carries the level-one dimension so the divisor-sum identity holds
    across the whole range.
    """
    import numpy as np

    b1_12 = 12 * level_one_newform_dim(k)  # checks the weight
    if tables.lo != 0 or tables.hi < 1:
        raise ValueError(f"dimension tables need levels 0..limit, got [{tables.lo}, {tables.hi}]")
    limit = tables.hi
    G12 = twelve_G(k, np.arange(limit + 1, dtype=np.int64))
    A12 = twelve_A(k, tables, 0, limit)
    A12[1] = b1_12
    B12 = twelve_B(k, tables.sharp, 0, limit)
    H12 = G12 - b1_12
    G12[0] = A12[0] = H12[0] = 0
    return DimensionTables(k=k, limit=limit, G12=G12, A12=A12, B12=B12, H12=H12)
