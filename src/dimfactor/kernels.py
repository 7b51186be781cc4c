"""Sieve kernels over contiguous level ranges.

Everything here works in 64-bit integers on values scaled by 12, which
keeps the arithmetic exact for every range a sweep accepts: the largest
intermediate is about (k - 1) * hi, which the sweeps keep below 2^62
(levels up to ``sweeps.MAX_SWEEP_HI`` = 10^7).

One sieve (:func:`_sieve`) multiplies the local factors of
:mod:`~dimfactor.multfuncs` along each level's prime factors over any
window lo..hi and yields the result block by block, so a sweep holds one
block at a time.  Its strides are the multiples of p^min_e for each prime
p <= sqrt(hi), less p itself.  The same sieve in pure Python
(:func:`_small_sieve`, through :func:`small_star_block` and
:func:`small_sharp_block`) returns a window as one block of lists; the
sweeps use it on windows of at most ``sweeps.SMALL_WINDOW`` = 2^15
levels, where importing numpy would cost a fresh process more than the
whole pure-Python sweep (measured crossover: about 2^15 levels in prime
mode, about 2^16 in squarefree mode).  A caller that has numpy loaded
already pays the pure-Python cost on those windows too.

* the sharp blocks (:func:`sharp_blocks`, min_e = 1): the four sharp
  functions f# of :func:`~dimfactor.multfuncs.sharp_local` (the Mobius
  inverses of the starred ones) and mu; the levels no stride touches are
  the primes.  No Mobius inversion runs on any sweep; :func:`mobius_invert`
  stays as the reference the tests check the sharp sieve against.
* the star blocks (:func:`star_blocks`, min_e = 2): the four starred
  functions of :func:`~dimfactor.multfuncs.star_local`, from the strides
  of p^2 alone and the squarefree rest; the levels no stride touches are
  the squarefree ones.

:func:`build_sharp_tables` and :func:`build_star_tables` fill whole
tables from the same blocks.  G, A and B are each
:func:`~dimfactor.multfuncs.twelve_combination`, the one closed form the
exact path evaluates too, applied to arrays: G at (N, 1, (-4|N), (-3|N)),
A at the star rows, B at the sharp rows plus 12 * delta2 * mu.

The exact-rational code paths elsewhere in the package do not depend on
this module; cross-validation of the two lives in the test suite.
Importing it does not load numpy: that happens on the first numpy sieve
or table call, so the single-level commands and the small-window sweeps
never pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .arith import primes_below
from .dimensions import level_one_newform_dim
from .multfuncs import sharp_local, star_local, twelve_combination

if TYPE_CHECKING:
    import numpy as np

_KRON12 = ((0, 1, 0, -1) * 3, (0, 1, -1) * 4)  # (-4|N) and (-3|N), indexed by N mod 12


def _kron(levels: np.ndarray) -> np.ndarray:
    """(-4|N) and (-3|N) for an array of levels, as two int8 rows: twelve_G
    holds both while the combination runs."""
    import numpy as np

    return np.take(np.array(_KRON12, np.int8), levels % 12, axis=1)


# --- the sieve -----------------------------------------------------------

SIEVE_BLOCK = 1 << 16  # levels per block of the sieve


def _sharp_rest(acc: np.ndarray, q: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Multiply in sharp_local(q, 1) = (q - 1, 0, (-4|q) - 1, (-3|q) - 1, -1)
    where the rest q is a prime, and 1 where it is 1; return the primality
    mask.  Subtracting ``big`` (q > 1) in place of 1 does both, since both
    Kronecker symbols read 1 at q = 1."""
    big = q > 1
    acc[0] *= q - big
    acc[1] *= ~big
    acc[2:4] *= _kron(q) - big
    acc[4] *= 1 - 2 * big
    return big & (q == levels)


def _star_rest(acc: np.ndarray, m: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Multiply in the starred values (m, 1, (-4|m), (-3|m)) of the
    squarefree rest m; return the squarefree mask.  Row 4 is left as the
    strides made it, 1 on squarefree levels and 0 elsewhere."""
    acc[0] *= m
    acc[2:4] *= _kron(m)
    return m == levels


def _prime_powers(hi: int, local):
    """For each prime p <= sqrt(hi): p, its powers [p^0, p^1, ...] up to
    hi, and the local factor rows ``local(p, e)`` at each exponent, all 1
    at e = 0.  Both forms of the sieve read their strides from here."""
    for p in primes_below(math.isqrt(hi) + 1):
        pows = [1]
        while pows[-1] * p <= hi:
            pows.append(pows[-1] * p)
        yield p, pows, [(1,) * 5] + [local(p, e) for e in range(1, len(pows))]


def _sieve(lo: int, hi: int, local, min_e: int, rest):
    """Yield, for each block of SIEVE_BLOCK levels in lo..hi (level 0
    excluded), (levels, rows, mask): five multiplicative functions with
    local factors ``local(p, e)``, as rows of shape (5, len(levels)).

    The local-factor rows are tabled once per prime power, before the
    first block.  Each block walks the primes p <= sqrt(hi) in increasing
    order: the exact power p^e, e >= min_e, of every multiple of p^min_e
    other than p itself is read off the strided multiples of p^min_e,
    p^(min_e+1), ..., divided out, and its local factor multiplied in.
    ``rest(rows, r, levels)`` multiplies in the factors of what is left,
    r, and returns the mask: the levels no stride touched.
    """
    import numpy as np

    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    factors = [  # (powers, the same as an array, local factor rows by exponent)
        (pows, np.array(pows, dtype=np.int64), np.array(rows, dtype=np.int64))
        for _, pows, rows in _prime_powers(hi, local)
    ]
    exps = np.empty(SIEVE_BLOCK, dtype=np.int64)
    for a in range(max(lo, 1), hi + 1, SIEVE_BLOCK):
        size = min(SIEVE_BLOCK, hi + 1 - a)
        levels = np.arange(a, a + size, dtype=np.int64)
        rem = levels.copy()
        acc = np.ones((5, size), dtype=np.int64)
        for pows, pow_arr, rows in factors:
            step = pows[min_e]
            first = max(-a % step, 2 * pows[1] - a)
            if first >= size:
                continue
            for e in range(min_e, len(pows)):
                start = -a % pows[e]
                if start >= size:
                    break
                exps[start : size : pows[e]] = e
            e_at = exps[first:size:step]
            rem[first::step] //= pow_arr[e_at]
            acc[:, first::step] *= rows[e_at].T
        yield levels, acc, rest(acc, rem, levels)


# --- the same sieve in pure Python, for small windows --------------------


def _small_sieve(lo: int, hi: int, local, min_e: int, rest):
    """:func:`_sieve` over levels lo..hi (level 0 excluded) in pure Python,
    as one block of lists: (levels, rows, mask), levels a range.  Same
    strides, same local factors, same rest step; no numpy."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    a = max(lo, 1)
    levels = range(a, hi + 1)
    size = len(levels)
    rem = list(levels)
    acc = [[1] * size for _ in range(5)]
    exps = [0] * size
    for p, pows, rows in _prime_powers(hi, local):
        step = pows[min_e]
        first = max(-a % step, 2 * p - a)
        if first >= size:
            continue
        for e in range(min_e, len(pows)):
            start = -a % pows[e]
            if start >= size:
                break
            exps[start::pows[e]] = [e] * len(range(start, size, pows[e]))
        e_at = exps[first::step]
        rem[first::step] = [r // pows[e] for r, e in zip(rem[first::step], e_at)]
        for row, col in zip(acc, zip(*rows)):
            row[first::step] = [v * col[e] for v, e in zip(row[first::step], e_at)]
    return levels, acc, rest(acc, rem, levels)


def _small_sharp_rest(acc, q, levels):
    """:func:`_sharp_rest` on lists."""
    big = [r > 1 for r in q]
    k4, k3 = _KRON12
    x, w, y, z, mu = acc
    acc[0] = [v * (r - b) for v, r, b in zip(x, q, big)]
    acc[1] = [v * (not b) for v, b in zip(w, big)]
    acc[2] = [v * (k4[r % 12] - b) for v, r, b in zip(y, q, big)]
    acc[3] = [v * (k3[r % 12] - b) for v, r, b in zip(z, q, big)]
    acc[4] = [v * (1 - 2 * b) for v, b in zip(mu, big)]
    return [b and r == n for b, r, n in zip(big, q, levels)]


def _small_star_rest(acc, m, levels):
    """:func:`_star_rest` on lists."""
    k4, k3 = _KRON12
    acc[0] = [v * r for v, r in zip(acc[0], m)]
    acc[2] = [v * k4[r % 12] for v, r in zip(acc[2], m)]
    acc[3] = [v * k3[r % 12] for v, r in zip(acc[3], m)]
    return [r == n for r, n in zip(m, levels)]


def small_sharp_block(lo: int, hi: int):
    """:func:`sharp_blocks` over lo..hi as one block of lists, sieved in
    pure Python."""
    return _small_sieve(lo, hi, sharp_local, 1, _small_sharp_rest)


def small_star_block(lo: int, hi: int):
    """:func:`star_blocks` over lo..hi as one block of lists, sieved in
    pure Python."""
    return _small_sieve(lo, hi, star_local, 2, _small_star_rest)


def small_minus_G_rows(levels, rows) -> tuple[list, ...]:
    """:func:`minus_G_rows` on lists."""
    k4, k3 = _KRON12
    return (
        [n - v for n, v in zip(levels, rows[0])],
        [1 - v for v in rows[1]],
        [k4[n % 12] - v for n, v in zip(levels, rows[2])],
        [k3[n % 12] - v for n, v in zip(levels, rows[3])],
    )


def sharp_blocks(lo: int, hi: int):
    """The sharp sieve over levels lo..hi, block by block: rows N*s0#,
    nu_inf#, nu2#, nu3#, mu, and primality as the mask.  The strides of p
    skip p itself, so a prime is left whole to the rest step."""
    return _sieve(lo, hi, sharp_local, 1, _sharp_rest)


def star_blocks(lo: int, hi: int):
    """The star sieve over levels lo..hi, block by block: rows N*s0*,
    nu_inf*, nu2*, nu3*, |mu|, and squarefreeness as the mask.  At p || N
    the starred local factor is (p, 1, (-4|p), (-3|p)), so with N = L*m,
    L the squarefull part, the rows are those of L, from the strides of
    p^2, times those of the squarefree rest m."""
    return _sieve(lo, hi, star_local, 2, _star_rest)


def _fill(lo: int, hi: int, blocks):
    """Whole-range rows and mask over lo..hi from a sieve's blocks; level 0
    reads 0 in every row."""
    import numpy as np

    rows = np.zeros((5, hi - lo + 1), dtype=np.int64)
    mask = np.zeros(hi - lo + 1, dtype=bool)
    for levels, acc, m in blocks:
        i = int(levels[0]) - lo
        rows[:, i : i + len(m)] = acc
        mask[i : i + len(m)] = m
    return (*rows, mask)


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
    return SharpTables(lo, hi, *_fill(lo, hi, sharp_blocks(lo, hi)))


@dataclass(frozen=True)
class StarTables:
    """Star sieve output over levels lo..hi (index i is level lo + i):
    the integer N*s0*(N), the three other starred values, and whether each
    level is squarefree.  ``sharp`` holds the sharp tables over the same
    levels, sieved on first use; the signed Mobius function is there."""

    lo: int
    hi: int
    ns0: np.ndarray
    nu_inf: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray
    squarefree: np.ndarray

    @cached_property
    def sharp(self) -> SharpTables:
        return build_sharp_tables(self.lo, self.hi)


def build_star_tables(lo: int, hi: int) -> StarTables:
    """Sieve the starred functions and squarefreeness over levels lo..hi,
    in blocks, without touching any level below lo."""
    ns0, nu_inf, nu2, nu3, _, squarefree = _fill(lo, hi, star_blocks(lo, hi))
    return StarTables(lo, hi, ns0, nu_inf, nu2, nu3, squarefree)


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


def minus_G_rows(levels: np.ndarray, rows) -> tuple[np.ndarray, ...]:
    """(N, 1, (-4|N), (-3|N)) minus the first four ``rows`` at each level N.
    twelve_combination is linear, so at any weight it maps these to 12 * G
    minus the closed form at the rows: the Kronecker rows are read once
    for every weight."""
    k4, k3 = _kron(levels)
    return levels - rows[0], 1 - rows[1], k4 - rows[2], k3 - rows[3]


def table_block(tables: StarTables | SharpTables, lo: int, hi: int):
    """Levels lo..hi of whole-range tables as one block, in the form the
    sieve yields: (levels, rows, mask).  A window the tables do not cover
    raises ValueError."""
    import numpy as np

    check_covers(tables, lo, hi)
    sl = slice(lo - tables.lo, hi - tables.lo + 1)
    *rows, mask = (getattr(tables, f.name)[sl] for f in fields(tables)[2:])
    return np.arange(lo, hi + 1, dtype=np.int64), rows, mask


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
