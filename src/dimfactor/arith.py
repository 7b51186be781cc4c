"""Exact arithmetic primitives shared by the whole package.

Big integers are plain Python ints and exact rationals are
``fractions.Fraction``.  All randomness comes from ``random.Random``
generators seeded by the input itself, so every answer here depends only
on its arguments.

Primality is Miller-Rabin with graded deterministic bases: below psi_t,
the least strong pseudoprime to the first t prime bases, the first t
primes decide it exactly (seven bases below 2^48, thirteen, 2..41, below
psi_13 ~ 3.3e24).  From psi_13 on it is the Baillie-PSW test, base 2
plus a strong Lucas test, which no known composite passes.  Each base
walks :func:`sqrt1_chain` along n - 1, the chain on which the reductions
split a number from a multiple of its totient.  The factorizer at the
bottom trial-divides by the primes below 2^10 and hands any larger
cofactor to Pollard-Brent rho, within a fixed step budget.  It is
ground-truth plumbing for tests and the default dimension oracle; the
reduction algorithms never call it.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from .errors import DomainError, InvalidWeightError

# (-4|n) and (-3|n), indexed by n mod 12: the one table of both symbols,
# for the exact path and both forms of the sieve
KRON12 = ((0, 1, 0, -1) * 3, (0, 1, -1) * 4)
_TWELVE_C3 = (4, 0, -4)   # 12 * c3(k), indexed by k mod 3


def kronecker_m4(n: int) -> int:
    """Kronecker symbol at discriminant -4: +1 if n ≡ 1 (mod 4), -1 if
    n ≡ 3 (mod 4), 0 if n is even."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return KRON12[0][n % 12]


def kronecker_m3(n: int) -> int:
    """Kronecker symbol at discriminant -3: +1 if n ≡ 1 (mod 3), -1 if
    n ≡ 2 (mod 3), 0 if 3 divides n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return KRON12[1][n % 12]


@lru_cache(maxsize=128, typed=True)
def twelve_weight_coefficients(k: int) -> tuple[int, int]:
    """(12 * c2(k), 12 * c3(k)) for a positive even weight k: 12 * c2 is
    +3 or -3 as 4 divides k or not, 12 * c3 is 4, 0 or -4 as k is 0, 1 or
    2 mod 3.  The one definition of the weight coefficients of the closed
    dimension formulas; it raises InvalidWeightError for any other k.
    The last 128 answers are memoized; a raised call is not cached.  The
    key is the weight with its type: with an untyped key, 12.0 and
    Fraction(12), which raise, would be answered from the entry of
    numpy.int64(12)."""
    if k < 2 or k % 2 != 0:
        raise InvalidWeightError(f"weight must be a positive even integer, got {_brief(k)}")
    return (3 if k % 4 == 0 else -3), _TWELVE_C3[k % 3]


# Largest level a sweep accepts: the range the kernels' int64 exactness
# note covers.  A sweep streams its window, so its memory is one block.
# It lives here rather than in ``sweeps`` so that the CLI states it in
# its help without loading the sweep layers.
MAX_SWEEP_HI = 10**7


# --- primality ---------------------------------------------------------

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_PRODUCT = math.prod(_BASES)  # 304250263527210
# (psi_t, t): psi_t is the least strong pseudoprime to all of the first t
# prime bases (Jaeschke, Math. Comp. 61 (1993); Sorenson-Webster, Math.
# Comp. 86 (2017) for psi_12 and psi_13), so below psi_t those t bases
# decide primality exactly.  t = 8, 10 and 11 have no row: psi_8 = psi_7
# and psi_10 = psi_11 = psi_9, so below those bounds 7 and 9 bases suffice.
_PSI = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def sqrt1_chain(a: int, m: int, c: int) -> int | None:
    """a**m mod odd c > 1 along the 2-power chain of m: None when
    a**m != 1 (mod c), else a factor of c, 1 unless the chain met a
    nontrivial square root of 1.

    With m = 2^s t, t odd, x = a^t mod c is squared at most s times.
    When x**2 = 1 with x != +-1, c divides (x - 1)(x + 1) but neither
    factor, so 1 < gcd(x - 1, c) < c splits c and proves it composite.
    At m = c - 1 it returns 1 exactly when c is a strong probable prime
    to base a: a^t = 1, or a^(2^r t) = -1 for some r < s.
    """
    s = (m & -m).bit_length() - 1
    x = pow(a, m >> s, c)
    if x == 1:
        return 1
    for _ in range(s):
        y = x * x % c
        if y == 1:
            return 1 if x == c - 1 else math.gcd(x - 1, c)
        x = y
    return None


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    j = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                j = -j
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Whether the odd n > 1 is a strong Lucas probable prime with
    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = 2^s d, d odd, it
    passes when U_d = 0 or V_(2^r d) = 0 (mod n) for some r < s.  A D
    sharing a factor with n below n proves n composite, and so does a
    square n, for which no D has (D/n) = -1.  Its composites below 10^5
    are the twelve of OEIS A217255, 5459 to 97439.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, Q % n  # U_1, V_1 and Q^1
    for bit in bin((n + 1) >> s)[3:]:
        # index i to 2i: U_2i = U_i V_i, V_2i = V_i^2 - 2 Q^i
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # index i to i + 1: U = (U_i + V_i) / 2, V = (D U_i + V_i) / 2
            u, v, qk = (u + v) % n, (D * u + v) % n, qk * Q % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@lru_cache(maxsize=1024)
def is_probable_prime(n: int) -> bool:
    """Primality test, exact below psi_13 ~ 3.3e24 and Baillie-PSW above.

    A gcd with the product of the primes 2..41 settles every n with a
    factor among them.  Below psi_t, the least strong pseudoprime to the
    first t prime bases, the test runs Miller-Rabin at those t bases and
    its answer is exact: one base (2) below 2047, ..., seven (2..17)
    below psi_7 ~ 3.4e14, which covers every n < 2^48, nine below psi_9
    ~ 3.8e18, twelve below psi_12 ~ 3.2e23 and thirteen (2..41) below
    psi_13.  From psi_13 on it is Baillie-PSW (Baillie and Wagstaff,
    Math. Comp. 35 (1980)): a strong test at base 2, then a strong Lucas
    test with Selfridge's parameters.  No composite is known to pass it,
    though none is proved impossible; the answer depends only on n.

    The last 1024 answers are memoized: a prime that a reduction
    certifies, builds into a Factorization and merges into its result is
    tested once, and the memo's size does not grow with the number of
    calls.
    """
    if n <= _BASES[-1]:
        return n in _BASES
    if math.gcd(n, _BASES_PRODUCT) != 1:
        return False
    for psi, t in _PSI:
        if n < psi:
            return all(sqrt1_chain(a, n - 1, n) == 1 for a in _BASES[:t])
    return sqrt1_chain(2, n - 1, n) == 1 and _strong_lucas(n)


# --- records -----------------------------------------------------------


class Record:
    """Base of the package's records.  A subclass names its fields, in
    order, in ``__slots__``.  Records compare field by field (a record of
    another class is never equal), print as ``Name(field=value, ...)``,
    and are not hashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` whose ``__init__`` sets each field once, through
    ``object.__setattr__``; after that its fields can be neither assigned
    nor deleted.  It is hashable, and it pickles by calling its
    constructor on its fields again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


# --- factorizations ----------------------------------------------------


class Factorization(FrozenRecord):
    """A positive integer as an ordered tuple of (prime, exponent) pairs.

    The empty tuple represents 1.  Primes must be strictly increasing and
    pass :func:`is_probable_prime`; exponents are >= 1.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...] = ()):
        pairs = tuple((int(p), int(e)) for p, e in factors)
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

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors)


# --- ground-truth factorizer -------------------------------------------


@lru_cache(maxsize=128)
def primes_below(limit: int) -> tuple[int, ...]:
    """The primes p < limit, by the sieve of Eratosthenes (limit >= 1)."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return tuple(p for p in range(limit) if flags[p])


_TRIAL_PRIMES = primes_below(1 << 10)

# Most steps y -> y^2 + c that rho takes on one cofactor, over all its
# restarts, not counting the at most 128 it replays to back-track: about
# 2 s on a 160-bit cofactor.  Rho needs about sqrt(p) steps to find a
# prime factor p: a few thousand for every level below 2^48, 841,086 for
# psi_12 = 399165290221 * 798330580441.
RHO_STEPS = 1 << 21


# log10(2) * 10^38, rounded: (b - 1) * log10(2) is nowhere near an integer
# for any bit length b an int in memory can have, so this floors it exactly.
_LOG10_2 = 30102999566398119521373889472449302677


def _brief(n: int) -> str:
    """n in full up to 50 characters; past that, its digit count and the first
    five characters and last five digits of its decimal form, so that an
    error line stays one short line.  Past 50 characters no decimal string
    is made: the count comes from the bit length and the ends by division,
    so that it works past Python's limit on converting an int to a
    string."""
    if -10**49 < n < 10**50:
        return str(n)
    m = abs(n)
    digits = (m.bit_length() - 1) * _LOG10_2 // 10**38 + 1  # those of 2^(b - 1)
    digits += m >= 10**digits
    sign, lead = ("-", 4) if n < 0 else ("", 5)
    return f"a {digits}-digit number {sign}{m // 10**(digits - lead)}...{m % 10**5:05d}"


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite non-prime n (Brent's cycle
    variant of Pollard rho).  Raises DomainError rather than pass
    :data:`RHO_STEPS` steps."""
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            # a round takes at most 2r steps
            if steps + 2 * r > RHO_STEPS:
                raise DomainError(
                    f"factoring {_brief(n)} takes more than {RHO_STEPS} Pollard-rho steps"
                )
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
            steps += r + min(k, r)
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
    """Exact prime factorization: trial division by the primes below 2^10,
    stopping as soon as p^2 exceeds what is left, then Pollard-Brent rho
    on any cofactor that is neither 1 nor shown prime that way.

    Every prime it returns passes :func:`is_probable_prime`, so the
    result is exact for every n whose prime factors lie below psi_13 ~
    3.3e24.  Rho's work grows as the square root of the second-largest
    prime factor, which keeps this to desk-scale inputs: past
    :data:`RHO_STEPS` steps on one cofactor it raises DomainError.  This
    is test and oracle plumbing; reduction algorithms must not call it.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            if n > 1:  # no prime below p divides it, so it is prime
                counts[n] = 1
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    else:
        _rho_factor_into(n, counts, random.Random(n))
    return Factorization(tuple(sorted(counts.items())))
