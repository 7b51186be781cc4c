"""Exact arithmetic primitives shared by the whole package.

Big integers are plain Python ints, exact rationals are
``fractions.Fraction``, and the only randomness is an explicitly passed
``random.Random``.  The trial/rho factorizer at the bottom is ground-truth
plumbing for tests and the default dimension oracle; the reduction
algorithms never call it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidWeightError

_KRON_M4 = (0, 1, 0, -1)  # indexed by n mod 4
_KRON_M3 = (0, 1, -1)     # indexed by n mod 3
_TWELVE_C3 = (4, 0, -4)   # 12 * c3(k), indexed by k mod 3


def kronecker_m4(n: int) -> int:
    """Kronecker symbol at discriminant -4: +1 if n ≡ 1 (mod 4), -1 if
    n ≡ 3 (mod 4), 0 if n is even."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _KRON_M4[n % 4]


def kronecker_m3(n: int) -> int:
    """Kronecker symbol at discriminant -3: +1 if n ≡ 1 (mod 3), -1 if
    n ≡ 2 (mod 3), 0 if 3 divides n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _KRON_M3[n % 3]


def twelve_weight_coefficients(k: int) -> tuple[int, int]:
    """(12 * c2(k), 12 * c3(k)) for a positive even weight k: 12 * c2 is
    +3 or -3 as 4 divides k or not, 12 * c3 is 4, 0 or -4 as k is 0, 1 or
    2 mod 3.  The one definition of the weight coefficients of the closed
    dimension formulas; it raises InvalidWeightError for any other k."""
    if k < 2 or k % 2 != 0:
        raise InvalidWeightError(f"weight must be a positive even integer, got {k}")
    return (3 if k % 4 == 0 else -3), _TWELVE_C3[k % 3]


@dataclass(frozen=True)
class WeightClass:
    """Weight-dependent coefficients of the closed dimension formulas.

    ``c2`` is +-1/4 according to k mod 4, ``c3`` is 1/3, 0 or -1/3
    according to k mod 3, and ``delta2`` flags the special weight k = 2.
    Everything is periodic in k with period 12 except the delta2 flag.
    """

    k: int
    c2: Fraction
    c3: Fraction
    delta2: int


def weight_class(k: int) -> WeightClass:
    """Coefficients (c2, c3, delta2) for a positive even weight k, as
    exact rationals read from :func:`twelve_weight_coefficients`."""
    t2, t3 = twelve_weight_coefficients(k)
    return WeightClass(k=k, c2=Fraction(t2, 12), c3=Fraction(t3, 12), delta2=1 if k == 2 else 0)


# --- primality ---------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The twelve bases above are a deterministic Miller-Rabin witness set for
# every n below this bound (Sorenson-Webster).
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _mr_composite_witness(n: int, a: int) -> bool:
    """True iff base a proves odd n > 2 composite."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rng: random.Random | None = None, rounds: int = 64) -> bool:
    """Miller-Rabin primality test.

    Exact for n below ~3.3e24 thanks to a fixed witness set; above that,
    ``rounds`` random bases push the error probability for composites
    below 4**-rounds.  With ``rng=None`` the bases are drawn from a
    generator seeded by n itself, so the answer is reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_BOUND:
        return not any(_mr_composite_witness(n, a) for a in _SMALL_PRIMES)
    if rng is None:
        rng = random.Random(n)
    return not any(
        _mr_composite_witness(n, rng.randrange(2, n - 1)) for _ in range(rounds)
    )


# --- factorizations ----------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """A positive integer as an ordered tuple of (prime, exponent) pairs.

    The empty tuple represents 1.  Primes must be strictly increasing and
    pass :func:`is_probable_prime`; exponents are >= 1.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple((int(p), int(e)) for p, e in self.factors)
        object.__setattr__(self, "factors", pairs)
        last = 1
        for p, e in pairs:
            if p <= last:
                raise ValueError("primes must be distinct and strictly increasing")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def is_squarefull(self) -> bool:
        return all(e >= 2 for _, e in self.factors)

    def mobius(self) -> int:
        """Mobius function of the represented integer."""
        if not self.is_squarefree():
            return 0
        return -1 if len(self.factors) % 2 else 1

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors)


def euler_phi(f: Factorization) -> int:
    """Euler totient from a factorization."""
    phi = 1
    for p, e in f:
        phi *= (p - 1) * p ** (e - 1)
    return phi


# --- ground-truth factorizer -------------------------------------------

_TRIAL_BOUND = 65536  # anything below 10^6 is fully resolved by trial division
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite non-prime n (Brent's cycle
    variant of Pollard rho)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _rho_factor_into(n: int, counts: dict[int, int], rng: random.Random) -> None:
    if n == 1:
        return
    if is_probable_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    d = _brent_rho(n, rng)
    _rho_factor_into(d, counts, rng)
    _rho_factor_into(n // d, counts, rng)


def factor_trial(n: int) -> Factorization:
    """Exact prime factorization by trial division, with a Pollard rho
    assist once the remaining cofactor outgrows the trial bound.

    Intended for desk-scale inputs (roughly n <= 10^14).  This is test
    and oracle plumbing; reduction algorithms must not call it.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    d, i = 7, 0
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += _WHEEL[i]
        i = (i + 1) & 7
    if n > 1:
        if d * d > n:
            counts[n] = counts.get(n, 0) + 1
        else:
            _rho_factor_into(n, counts, random.Random(n))
    return Factorization(tuple(sorted(counts.items())))
