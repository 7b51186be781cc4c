"""Sieve kernels over contiguous level ranges.

Everything here works in 64-bit integers on values scaled by 12, which
keeps the arithmetic exact for every range a sweep accepts: the largest
intermediate is about (k - 1) * hi, which the sweeps keep below 2^62
(levels up to ``arith.MAX_SWEEP_HI`` = 10^7).

One sieve (:func:`_sieve`) multiplies the local factors of
:mod:`~dimfactor.multfuncs` along each level's prime factors over any
window lo..hi and yields the result block by block, so a sweep holds one
block at a time.  It allocates its buffers once per window and refills
them for each block: a block's arrays are views of those buffers, valid
until the next block is drawn.  :func:`_fill` copies each block into
whole tables, and the sweeps compare each block before they draw the
next, turning its first four rows into the gap rows in place
(:func:`minus_G_rows`, which reads both Kronecker symbols of consecutive
levels as a view of one cached 12-periodic tile of ``arith.KRON12``).
The sieve reaches each prime p <= sqrt(hi) through its multiples of
p^min_e, less p itself: the primes up to ``STRIDE_BOUND`` = 16 one at a
time, as strides, and all the larger ones at once, in one scatter per
block.  The sieve in pure Python (:func:`_small_sieve`, through
:func:`small_star_block` and :func:`small_sharp_block`) takes every
prime by strides and returns a window as one block of lists.  The sweeps
use it on windows of at most ``sweeps.SMALL_WINDOW`` = 2^15 levels,
where importing numpy would cost a fresh process more than the whole
pure-Python sweep (measured crossover: about 2^15 levels in prime mode,
about 2^16 in squarefree mode).  A caller with numpy loaded pays the
pure-Python cost there too.  All three paths read one table,
:func:`_prime_powers`, of the local factors at p^e, e >= min_e.

* the sharp blocks (:func:`sharp_blocks`, min_e = 1): the four sharp
  functions f# of :func:`~dimfactor.multfuncs.sharp_local` (the Mobius
  inverses of the starred ones) and mu; the levels no stride touches are
  the primes.  No Mobius inversion runs on any sweep; :func:`mobius_invert`
  stays as the reference the tests check the sharp sieve against.
* the star blocks (:func:`star_blocks`, min_e = 2): the four starred
  functions of :func:`~dimfactor.multfuncs.star_local`, from the strides
  of p^2 alone and the squarefree rest; the levels no stride touches are
  the squarefree ones.

:func:`build_star_tables` fills whole star tables from the star blocks,
and :func:`dimension_tables` combines them, per weight, with the sharp
rows it fills itself over the same levels.  Whole tables are plain
namespaces (``types.SimpleNamespace``) of arrays, the format of the
tests' own whole tables.  No sweep reads them: the sweeps stream their
window, and the tables serve only as the tests' references and the
benchmark's span targets.  G and A are
:func:`~dimfactor.multfuncs.twelve_combination`, the one closed form the
exact path evaluates too, applied to arrays: G at (N, 1, (-4|N), (-3|N)),
A at the star rows; B is :func:`~dimfactor.multfuncs.twelve_newform` at
the sharp rows and mu.

The exact-rational code paths elsewhere in the package do not depend on
this module; cross-validation of the two lives in the test suite.
Importing it does not load numpy: that happens on the first numpy sieve
or table call, so the single-level commands and the small-window sweeps
never pay for it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .arith import KRON12, _brief, primes_below
from .dimensions import level_one_newform_dim
from .multfuncs import sharp_local, star_local, twelve_combination, twelve_newform

if TYPE_CHECKING:
    import numpy as np

@lru_cache(maxsize=1)
def _kron_tile(block: int) -> np.ndarray:
    """``arith.KRON12`` repeated: (-4|N) and (-3|N) for N = 0, 1, ..., at
    least block + 11, as two int8 rows.  :func:`minus_G_rows` reads a block
    of consecutive levels a, a+1, ... as the view ``tile[:, a % 12 :]``,
    :func:`_kron` any levels off the first 12 columns."""
    import numpy as np

    tile = np.tile(np.array(KRON12, np.int8), block // 12 + 2)
    tile.flags.writeable = False  # every caller shares it
    return tile


def _kron(levels: np.ndarray) -> np.ndarray:
    """(-4|N) and (-3|N) for an array of levels, as two int8 rows:
    :func:`dimension_tables` holds both while it combines G."""
    import numpy as np

    return np.take(_kron_tile(SIEVE_BLOCK)[:, :12], levels % 12, axis=1)


# --- the sieve -----------------------------------------------------------

SIEVE_BLOCK = 1 << 14  # levels per block of the sieve

# Primes up to STRIDE_BOUND go into a block by strides, one prime at a
# time.  Each larger prime has at most SIEVE_BLOCK / 17 multiples in a
# block, too few to pay for the dozen numpy calls of a stride, so they
# all go in together, in one scatter per block (:func:`_scatter`).
STRIDE_BOUND = 16


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


def _prime_powers(hi: int, local, min_e: int):
    """The one table both forms of the sieve read, as two lists: for each
    prime p <= sqrt(hi) the triple (p, p^min_e, its first column), and a
    column (p^e, *local(p, e)) for each e >= min_e with p^e <= hi, a
    prime's columns in order of e.  ``local`` is never called below min_e."""
    primes, columns = [], []
    for p in primes_below(math.isqrt(hi) + 1):
        pe, e = p**min_e, min_e
        primes.append((p, pe, len(columns)))
        while pe <= hi:
            columns.append((pe, *local(p, e)))
            pe, e = pe * p, e + 1
    return primes, columns


def _sieve(lo: int, hi: int, local, min_e: int, rest):
    """Yield, for each block of SIEVE_BLOCK levels in lo..hi (level 0
    excluded), (levels, rows, mask): five multiplicative functions with
    local factors ``local(p, e)``, as rows of shape (5, len(levels)).

    The columns of :func:`_prime_powers` become one int64 table, rows p^e
    and the five local factors.  The block's buffers (levels, the rest,
    the rows, the column indices) are allocated once and refilled for
    each block, so ``levels`` and ``rows`` are views valid until the next
    block is drawn: a caller that keeps a block past that copies it.  In
    each block the exact power p^e, e >= min_e, of every prime p <=
    sqrt(hi) is divided out of each multiple of p^min_e other than p, and
    its local factor multiplied in, both read from p^e's column.  The
    primes p <= STRIDE_BOUND write p^e's column index over the strided
    multiples of each p^e and gather row by row; the larger ones go in all
    at once, in :func:`_scatter`.  ``rest(rows, r, levels)`` multiplies in
    the factors of what is left, r, and returns the mask: the levels no
    prime touched."""
    import numpy as np

    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{_brief(lo)}, {_brief(hi)}]")
    a0 = max(lo, 1)
    primes, columns = _prime_powers(hi, local, min_e)
    strided = [t for t in primes if t[0] <= STRIDE_BOUND]
    scattered = np.array(primes[len(strided):], dtype=np.int64).reshape(-1, 3).T
    table = np.array(columns, dtype=np.int64).reshape(-1, 6).T.copy()
    pows, *factors = table
    size = min(SIEVE_BLOCK, hi + 1 - a0)
    levels = np.arange(a0, a0 + size, dtype=np.int64)
    rem, cols = np.empty_like(levels), np.empty_like(levels)
    acc = np.empty((5, size), dtype=np.int64)
    for a in range(a0, hi + 1, SIEVE_BLOCK):
        size = min(SIEVE_BLOCK, hi + 1 - a)
        if size < len(levels):  # the last block, shorter
            levels, rem, acc, cols = levels[:size], rem[:size], acc[:, :size], cols[:size]
        levels += a - int(levels[0])
        rem[:] = levels
        acc.fill(1)
        for p, step, col in strided:
            first = max(-a % step, 2 * p - a)
            if first >= size:
                continue
            pe = step
            while (start := -a % pe) < size:  # none once p^e > hi
                cols[start:size:pe] = col
                pe, col = pe * p, col + 1
            at = cols[first:size:step]
            rem[first::step] //= pows[at]
            for row, factor in zip(acc, factors):
                row[first::step] *= factor[at]
        if scattered.shape[1]:
            _scatter(a, size, scattered, table, rem, acc)
        yield levels, acc, rest(acc, rem, levels)


def _scatter(a: int, size: int, primes: np.ndarray, table: np.ndarray,
             rem: np.ndarray, acc: np.ndarray) -> None:
    """Divide out of the rest ``rem`` of the block of levels a, a+1, ...,
    a+size-1 the exact power p^e of each scattered prime p at each of its
    multiples of p^min_e other than p, and multiply its local factors
    into ``acc``.  ``primes`` and ``table`` are the triples (p, p^min_e,
    first column) and the columns of :func:`_prime_powers`, as int64 rows.
    The entries are built prime by prime, in chunks of about half a block,
    so their temporaries stay small; two primes can divide one level, so
    ``rem`` and ``acc`` take them through ``ufunc.at``."""
    import numpy as np

    p_all, step_all, col_all = primes
    first_all = np.maximum(-a % step_all, 2 * p_all - a)  # a multiple, never p itself
    counts = np.maximum((size - 1 - first_all) // step_all + 1, 0)
    quot_all = (a + first_all) // step_all  # that multiple over p^min_e
    ends = np.cumsum(counts)
    half = SIEVE_BLOCK // 2
    cuts = np.searchsorted(ends, np.arange(half, int(ends[-1]), half)).tolist()
    for i, j in zip([0, *cuts], [*cuts, len(p_all)]):
        n = counts[i:j]
        at = np.repeat(np.arange(i, j), n)  # the prime of each entry
        k = np.arange(len(at)) - np.repeat(np.cumsum(n) - n, n)  # its kth multiple
        idx = first_all[at] + step_all[at] * k
        quot, p, col = quot_all[at] + k, p_all[at], col_all[at]
        del at, k
        live = np.flatnonzero(quot % p == 0)  # the entries with e > min_e
        quot, p = quot[live] // p[live], p[live]
        while len(live):
            col[live] += 1
            more = quot % p == 0
            live, quot, p = live[more], quot[more] // p[more], p[more]
        np.floor_divide.at(rem, idx, table[0, col])
        for row, factor in zip(acc, table[1:]):
            np.multiply.at(row, idx, factor[col])


# --- the same sieve in pure Python, for small windows --------------------


def _small_sieve(lo: int, hi: int, local, min_e: int, rest):
    """:func:`_sieve` over levels lo..hi (level 0 excluded) in pure Python,
    as one block of lists: (levels, rows, mask), levels a range.  Every
    prime goes in by strides, from the same table, each prime's columns
    read as short rows indexed by e - min_e.  No numpy."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{_brief(lo)}, {_brief(hi)}]")
    a = max(lo, 1)
    levels = range(a, hi + 1)
    size = len(levels)
    rem = list(levels)
    acc = [[1] * size for _ in range(5)]
    ix = [0] * size  # e - min_e of the exact power p^e at each multiple of p^min_e
    primes, columns = _prime_powers(hi, local, min_e)
    for (p, step, col), end in zip(primes, [c for *_, c in primes[1:]] + [len(columns)]):
        first = max(-a % step, 2 * p - a)
        if first >= size:
            continue
        pows, *rows = zip(*columns[col:end])
        for i, pe in enumerate(pows):
            start = -a % pe
            if start >= size:
                break
            ix[start::pe] = [i] * len(range(start, size, pe))
        at = ix[first::step]
        rem[first::step] = [r // pows[i] for r, i in zip(rem[first::step], at)]
        for row, factor in zip(acc, rows):
            row[first::step] = [v * factor[i] for v, i in zip(row[first::step], at)]
    return levels, acc, rest(acc, rem, levels)


def _small_sharp_rest(acc, q, levels):
    """:func:`_sharp_rest` on lists."""
    big = [r > 1 for r in q]
    k4, k3 = KRON12
    x, w, y, z, mu = acc
    acc[0] = [v * (r - b) for v, r, b in zip(x, q, big)]
    acc[1] = [v * (not b) for v, b in zip(w, big)]
    acc[2] = [v * (k4[r % 12] - b) for v, r, b in zip(y, q, big)]
    acc[3] = [v * (k3[r % 12] - b) for v, r, b in zip(z, q, big)]
    acc[4] = [v * (1 - 2 * b) for v, b in zip(mu, big)]
    return [b and r == n for b, r, n in zip(big, q, levels)]


def _small_star_rest(acc, m, levels):
    """:func:`_star_rest` on lists."""
    k4, k3 = KRON12
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


def sharp_blocks(lo: int, hi: int):
    """The sharp sieve over levels lo..hi, block by block: rows N*s0#,
    nu_inf#, nu2#, nu3#, mu, and primality as the mask.  The strides of p
    skip p itself, so a prime is left whole to the rest step.  The levels
    and rows are views of buffers the next block refills."""
    return _sieve(lo, hi, sharp_local, 1, _sharp_rest)


def star_blocks(lo: int, hi: int):
    """The star sieve over levels lo..hi, block by block: rows N*s0*,
    nu_inf*, nu2*, nu3*, |mu|, and squarefreeness as the mask.  At p || N
    the starred local factor is (p, 1, (-4|p), (-3|p)), so with N = L*m,
    L the squarefull part, the rows are those of L, from the strides of
    p^2, times those of the squarefree rest m.  The levels and rows are
    views of buffers the next block refills."""
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


def build_star_tables(lo: int, hi: int) -> SimpleNamespace:
    """Sieve the starred functions and squarefreeness over levels lo..hi,
    in blocks, without touching any level below lo, as a namespace of
    lo, hi and int64 rows ns0 (the integer N*s0*(N)), nu_inf, nu2, nu3
    and the bool row squarefree; index i is level lo + i."""
    ns0, nu_inf, nu2, nu3, _, squarefree = _fill(lo, hi, star_blocks(lo, hi))
    return SimpleNamespace(lo=lo, hi=hi, ns0=ns0, nu_inf=nu_inf, nu2=nu2, nu3=nu3,
                           squarefree=squarefree)


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


def minus_G_rows(levels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Overwrite the first four ``rows`` with (N, 1, (-4|N), (-3|N)) minus
    them at each level N, for consecutive levels (at most SIEVE_BLOCK),
    and return those four.  twelve_combination is linear, so at any
    weight it maps these to 12 * G minus the closed form at the rows: the
    Kronecker rows are read once for every weight, as a view of the
    cached tile (:func:`_kron_tile`).  Row 4 is left as it is."""
    import numpy as np

    i = int(levels[0]) % 12
    k4, k3 = _kron_tile(SIEVE_BLOCK)[:, i : i + len(levels)]
    np.subtract(levels, rows[0], out=rows[0])
    np.subtract(1, rows[1], out=rows[1])
    np.subtract(k4, rows[2], out=rows[2])
    np.subtract(k3, rows[3], out=rows[3])
    return rows[:4]


def dimension_tables(k: int, tables: SimpleNamespace) -> SimpleNamespace:
    """12 times the four dimension quantities at weight k, as a namespace
    of k, limit and int64 rows G12, A12, B12, H12 indexed by level
    0..limit (scaling by 12 keeps them exact), from
    :func:`build_star_tables` over 0..limit.  G is the closed form at
    (N, 1, (-4|N), (-3|N)), A the closed form at the star rows, and B
    ``twelve_newform`` at the sharp rows and mu, filled here from
    :func:`sharp_blocks` over the same levels (0 at level 0, where every
    row reads 0).  Index 1 of A12/B12 carries the level-one dimension so
    the divisor-sum identity holds across the whole range."""
    import numpy as np

    b1_12 = 12 * level_one_newform_dim(k)  # checks the weight
    if tables.lo != 0 or tables.hi < 1:
        raise ValueError(f"dimension tables need levels 0..limit, got [{tables.lo}, {tables.hi}]")
    limit = tables.hi
    levels = np.arange(limit + 1, dtype=np.int64)
    G12 = twelve_combination(k, levels, 1, *_kron(levels))
    A12 = twelve_combination(k, tables.ns0, tables.nu_inf, tables.nu2, tables.nu3)
    A12[1] = b1_12
    x, w, y, z, mu, _ = _fill(0, limit, sharp_blocks(0, limit))
    B12 = twelve_newform(k, x, w, y, z, mu)
    H12 = G12 - b1_12
    G12[0] = A12[0] = H12[0] = 0
    return SimpleNamespace(k=k, limit=limit, G12=G12, A12=A12, B12=B12, H12=H12)
