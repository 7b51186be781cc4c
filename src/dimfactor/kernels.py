"""Sieve kernels over contiguous level ranges.

Everything here works in 64-bit integers on values scaled by 12, which
keeps the arithmetic exact for every range a sweep accepts: the largest
intermediate is about (k - 1) * hi, which the sweeps keep below 2^62
(levels up to ``sweeps.MAX_SWEEP_HI`` = 10^7).

Two sieves feed the tables:

* the star sieve (:func:`build_star_tables`) gives the smallest prime
  factor, the four starred functions and the Mobius function over
  0..limit, from which the representation count A is one linear
  combination per weight.  It has a numba-jitted and a pure-numpy
  implementation; the environment variable DIMFACTOR_KERNELS ("numba" or
  "numpy") chooses, otherwise numba is used when importable.
* the sharp sieve (:func:`build_sharp_tables`) gives the four sharp
  functions f# (the Mobius inverses of the starred ones) and mu over any
  window lo..hi, in blocks, by multiplying the local factors of
  :func:`~dimfactor.multfuncs.sharp_local` along each level's prime
  factors.  The newform count B is the same linear combination of them,
  so no Mobius inversion runs on any sweep; :func:`mobius_invert` stays
  as the reference the tests check the sharp sieve against.

The exact-rational code paths elsewhere in the package do not depend on
this module; cross-validation of the two lives in the test suite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .multfuncs import sharp_local

_ENV_CHOICE = os.environ.get("DIMFACTOR_KERNELS", "auto").strip().lower()

HAVE_NUMBA = False
if _ENV_CHOICE != "numpy":
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        if _ENV_CHOICE == "numba":
            raise

USING_NUMBA = HAVE_NUMBA

_KRON4 = np.array([0, 1, 0, -1], dtype=np.int64)
_KRON3 = np.array([0, 1, -1], dtype=np.int64)


# --- numba path ---------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _spf_sieve_nb(limit):
        spf = np.zeros(limit + 1, dtype=np.int64)
        for i in range(2, limit + 1):
            if spf[i] == 0:
                for j in range(i, limit + 1, i):
                    if spf[j] == 0:
                        spf[j] = i
        return spf

    @njit(cache=True)
    def _star_tables_nb(limit):
        spf = _spf_sieve_nb(limit)
        ns0 = np.zeros(limit + 1, dtype=np.int64)
        nu_inf = np.zeros(limit + 1, dtype=np.int64)
        nu2 = np.zeros(limit + 1, dtype=np.int64)
        nu3 = np.zeros(limit + 1, dtype=np.int64)
        mu = np.zeros(limit + 1, dtype=np.int64)
        if limit >= 1:
            ns0[1] = 1
            nu_inf[1] = 1
            mu[1] = 1
            nu2[1] = 1
            nu3[1] = 1
        for n in range(2, limit + 1):
            m = n
            ns0_v = np.int64(1)
            nuinf_v = np.int64(1)
            omega = 0
            squarefree = True
            while m > 1:
                p = spf[m]
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                omega += 1
                pe = np.int64(1)
                for _ in range(e):
                    pe *= p
                if e >= 2:
                    squarefree = False
                    ns0_v *= pe - pe // (p * p)
                    t = np.int64(p - 1)
                    for _ in range((e - 2) // 2):
                        t *= p
                    nuinf_v *= t
                else:
                    ns0_v *= pe
            ns0[n] = ns0_v
            nu_inf[n] = nuinf_v
            if squarefree:
                mu[n] = 1 if omega % 2 == 0 else -1
                r4 = n % 4
                nu2[n] = 1 if r4 == 1 else (-1 if r4 == 3 else 0)
                r3 = n % 3
                nu3[n] = 1 if r3 == 1 else (-1 if r3 == 2 else 0)
        # twisted values at non-squarefree levels
        for n in range(4, limit + 1, 4):
            if mu[n] == 0 and mu[n // 4] != 0:
                q = n // 4
                r4 = q % 4
                nu2[n] = -(1 if r4 == 1 else (-1 if r4 == 3 else 0))
        for n in range(9, limit + 1, 9):
            if mu[n] == 0 and mu[n // 9] != 0:
                q = n // 9
                r3 = q % 3
                nu3[n] = -(1 if r3 == 1 else (-1 if r3 == 2 else 0))
        return spf, ns0, nu_inf, nu2, nu3, mu

    @njit(cache=True)
    def _mobius_invert_nb(values, mu):
        limit = len(values) - 1
        out = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            v = values[d]
            if v == 0:
                continue
            j = 1
            for m in range(d, limit + 1, d):
                if mu[j] != 0:
                    out[m] += mu[j] * v
                j += 1
        return out


# --- numpy fallback ------------------------------------------------------


def _spf_sieve_np(limit: int) -> np.ndarray:
    spf = np.arange(limit + 1, dtype=np.int64)
    for i in range(2, int(limit**0.5) + 1):
        if spf[i] == i:
            sl = spf[i * i :: i]
            np.minimum(sl, i, out=sl)
    if limit >= 0:
        spf[0] = 0
    if limit >= 1:
        spf[1] = 0
    return spf


def _star_tables_np(limit: int):
    spf = _spf_sieve_np(limit)
    idx = np.arange(limit + 1, dtype=np.int64)
    ns0 = idx.copy()
    nu_inf = np.ones(limit + 1, dtype=np.int64)
    mu = np.ones(limit + 1, dtype=np.int64)
    if limit >= 0:
        nu_inf[0] = 0
        mu[0] = 0

    primes = np.flatnonzero((spf == idx) & (idx >= 2))
    for p in primes:
        p = int(p)
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p :: p * p] = 0

    for p in primes:
        p = int(p)
        if p * p > limit:
            break
        e, pe = 2, p * p
        while pe <= limit:
            # levels with p-exponent exactly e
            hits = np.arange(pe, limit + 1, pe, dtype=np.int64)
            hits = hits[(hits // pe) % p != 0]
            ns0[hits] = ns0[hits] // pe * (pe - pe // (p * p))
            nu_inf[hits] *= (p - 1) * p ** ((e - 2) // 2)
            e += 1
            pe *= p

    squarefree = mu != 0
    nu2 = np.where(squarefree, _KRON4[idx % 4], 0)
    nu3 = np.where(squarefree, _KRON3[idx % 3], 0)
    if limit >= 4:
        m4 = np.arange(4, limit + 1, 4, dtype=np.int64)
        q = m4 // 4
        nu2[m4] = np.where(squarefree[q], -_KRON4[q % 4], 0)
    if limit >= 9:
        m9 = np.arange(9, limit + 1, 9, dtype=np.int64)
        q = m9 // 9
        nu3[m9] = np.where(squarefree[q], -_KRON3[q % 3], 0)
    if limit >= 1:
        nu2[1] = 1
        nu3[1] = 1
    return spf, ns0, nu_inf, nu2, nu3, mu


def _mobius_invert_np(values: np.ndarray, mu: np.ndarray) -> np.ndarray:
    limit = len(values) - 1
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        v = int(values[d])
        if v == 0:
            continue
        out[d::d] += v * mu[1 : limit // d + 1]
    return out


# --- sharp sieve ---------------------------------------------------------

SIEVE_BLOCK = 1 << 16  # levels per block of the sharp sieve


def _primes_upto(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


def _sharp_at_primes(q: np.ndarray) -> np.ndarray:
    """sharp_local(q, 1) for an array of primes q, one column each."""
    return np.stack(
        (q - 1, np.zeros_like(q), _KRON4[q % 4] - 1, _KRON3[q % 3] - 1, np.full_like(q, -1))
    )


def _sharp_products(lo: int, hi: int):
    """Rows N*s0#, nu_inf#, nu2#, nu3#, mu over levels lo..hi, and the
    primality of each level.

    Each block of SIEVE_BLOCK levels walks the primes p <= sqrt(hi) in
    increasing order: the exact power of p in every multiple is read off
    the strided multiples of p, p^2, ..., divided out, and its local
    factor multiplied in from a table built once per prime power.  What
    is left above 1 is the one prime factor above sqrt(hi).
    """
    small = _primes_upto(math.isqrt(hi)).tolist()
    factors = []  # ([p^0, p^1, ...], the same as an array, local factor rows by exponent)
    for p in small:
        pows = [1]
        while pows[-1] * p <= hi:
            pows.append(pows[-1] * p)
        rows = [(1,) * 5] + [sharp_local(p, e) for e in range(1, len(pows))]
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
        acc[:, rest] *= _sharp_at_primes(rem[rest])
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
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    rows, prime = _sharp_products(lo, hi)
    x, w, y, z, mu = rows
    return SharpTables(lo=lo, hi=hi, x=x, w=w, y=y, z=z, mu=mu, prime=prime)


# --- public surface -------------------------------------------------------


@dataclass(frozen=True)
class StarTables:
    """Sieve output over levels 0..limit: smallest prime factors, the
    integer N*s0*(N), the three other starred values, and the Mobius
    function.  ``sharp`` holds the sharp tables over the same levels,
    sieved on first use."""

    limit: int
    spf: np.ndarray
    ns0: np.ndarray
    nu_inf: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray
    mu: np.ndarray

    @cached_property
    def sharp(self) -> SharpTables:
        return build_sharp_tables(0, self.limit)


def build_star_tables(limit: int, force: str | None = None) -> StarTables:
    """Sieve all multiplicative data up to ``limit``.

    ``force`` overrides the module-level path selection ("numba" or
    "numpy"); tests and the benchmark use it to compare both.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    use_numba = USING_NUMBA if force is None else force == "numba"
    if use_numba and not HAVE_NUMBA:
        raise RuntimeError("numba path requested but numba is unavailable")
    fn = _star_tables_nb if use_numba else _star_tables_np
    spf, ns0, nu_inf, nu2, nu3, mu = fn(limit)
    return StarTables(limit=limit, spf=spf, ns0=ns0, nu_inf=nu_inf, nu2=nu2, nu3=nu3, mu=mu)


@lru_cache(maxsize=4)
def star_tables(limit: int) -> StarTables:
    """Cached :func:`build_star_tables` on the default path."""
    return build_star_tables(limit)


def mobius_invert(values: np.ndarray, mu: np.ndarray, force: str | None = None) -> np.ndarray:
    """out[n] = sum over d | n of mu(n/d) * values[d], for all n at once.

    No sweep uses it: it is the reference the sharp sieve is tested
    against."""
    use_numba = USING_NUMBA if force is None else force == "numba"
    if use_numba and not HAVE_NUMBA:
        raise RuntimeError("numba path requested but numba is unavailable")
    if use_numba:
        return _mobius_invert_nb(
            np.ascontiguousarray(values, dtype=np.int64),
            np.ascontiguousarray(mu, dtype=np.int64),
        )
    return _mobius_invert_np(values, mu)


def _twelve_c2(k: int) -> int:
    return 3 if k % 4 == 0 else -3


def _twelve_c3(k: int) -> int:
    r = k % 3
    return 4 if r == 0 else (0 if r == 1 else -4)


def _combine(k: int, s0, nu_inf, nu2, nu3) -> np.ndarray:
    """12 * ((k-1)/12 * s0 - nu_inf/2 + c2 * nu2 + c3 * nu3): the linear
    combination that gives A from the starred tables and B (up to the
    delta2 term) from the sharp ones."""
    return (k - 1) * s0 - 6 * nu_inf + _twelve_c2(k) * nu2 + _twelve_c3(k) * nu3


def level_one_twelve(k: int) -> int:
    """12 * B(k, 1), the level-one newform dimension scaled by 12."""
    return (k - 7) + _twelve_c2(k) + _twelve_c3(k) + (12 if k == 2 else 0)


def twelve_G(k: int, levels: np.ndarray) -> np.ndarray:
    """12 * G(k, N) for every level in ``levels``."""
    return (
        (k - 1) * levels - 6
        + _twelve_c2(k) * _KRON4[levels % 4]
        + _twelve_c3(k) * _KRON3[levels % 3]
    )


def twelve_A(k: int, tables: StarTables, lo: int, hi: int) -> np.ndarray:
    """12 * A(k, N) for levels lo..hi from the starred tables.  The
    closed formula holds from level 2 on (level 1 lacks the delta2 term
    that :func:`dimension_tables` adds)."""
    sl = slice(lo, hi + 1)
    return _combine(k, tables.ns0[sl], tables.nu_inf[sl], tables.nu2[sl], tables.nu3[sl])


def twelve_B(k: int, sharp: SharpTables, lo: int, hi: int) -> np.ndarray:
    """12 * B(k, N) for levels lo..hi inside the sharp tables' range: one
    linear combination of the sharp tables plus 12 * delta2 * mu (0 at
    level 0, where every sharp table reads 0)."""
    sl = slice(lo - sharp.lo, hi - sharp.lo + 1)
    out = _combine(k, sharp.x[sl], sharp.w[sl], sharp.y[sl], sharp.z[sl])
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


def dimension_tables(k: int, tables: StarTables, force: str | None = None) -> DimensionTables:
    """All four dimension quantities (times 12) at weight k from the
    sieved star tables and their sharp tables.  Index 1 of A12/B12
    carries the level-one dimension so the divisor-sum identity holds
    across the whole range.

    ``force`` has no effect: the star tables are already sieved, and the
    sharp sieve has a single implementation.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    limit = tables.limit
    b1_12 = level_one_twelve(k)
    G12 = twelve_G(k, np.arange(limit + 1, dtype=np.int64))
    A12 = twelve_A(k, tables, 0, limit)
    A12[1] = b1_12
    B12 = twelve_B(k, tables.sharp, 0, limit)
    H12 = G12 - b1_12
    G12[0] = A12[0] = H12[0] = 0
    return DimensionTables(k=k, limit=limit, G12=G12, A12=A12, B12=B12, H12=H12)
