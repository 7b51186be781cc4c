"""Localization of square divisors from a single oracle value.

From one representation count the scaled gap T is an exact integer,
T0 = (k-1)N - 12a; the slowly growing factor, the arccos angle and the two
trigonometric Cardano roots are floating point.  Containment of an
integer candidate is always decidable exactly: the float value of the
slowly growing factor is itself a rational number, so the cubic sign
test at an integer is a Fraction computation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import Record, twelve_weight_coefficients
from .errors import DomainError, InternalInconsistencyError

EULER_GAMMA = 0.5772156649015329
_EXP_GAMMA = math.exp(EULER_GAMMA)

INTERVAL = "INTERVAL"
NO_LARGE_SQUARE_DIVISOR = "NO_LARGE_SQUARE_DIVISOR"


def compute_T(k: int, N: int, a_value: int) -> tuple[int, int]:
    """The scaled gap T0 = 12(Delta + 1/2 - c2(-4|N) - c3(-3|N)) and its
    shift T, both exact integers.

    With Delta = dim_G(k, N) - a_value the Kronecker terms of G cancel,
    so T0 = (k-1)N - 12a and no factorization of N is needed.  The shift
    |12 c2| + |12 c3| is the smallest constant that dominates the twisted
    Kronecker terms hiding in T0, namely 3 when the weight's coefficient
    at -3 vanishes (k ≡ 1 mod 3) and 3 + 4 = 7 otherwise; this is what makes
    T >= (k-1)N(1 - s0*) + 6 nu_inf* hold for every truthful oracle
    value."""
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    if a_value < 0:
        raise ValueError("oracle values are nonnegative")
    twelve_c2, twelve_c3 = twelve_weight_coefficients(k)
    t0 = (k - 1) * N - 12 * a_value
    return t0, t0 + abs(twelve_c2) + abs(twelve_c3)


def curly_L(N: int) -> float:
    """The Rosser-Schoenfeld comparison factor
    e^gamma * loglog(sqrt(N)) + 2.50637 / loglog(sqrt(N)).

    Raises DomainError when loglog(sqrt(N)) <= 0 (i.e. N <= e^2), where
    the expression is meaningless.  e^gamma is the module constant
    ``_EXP_GAMMA``, formed once at import from :data:`EULER_GAMMA`."""
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    half_log = 0.5 * math.log(N)
    if half_log <= 1.0:
        raise DomainError(f"loglog(sqrt({N})) <= 0; comparison factor undefined")
    ll = math.log(half_log)
    return _EXP_GAMMA * ll + 2.50637 / ll


class BoundsReport(Record):
    """Square-divisor localization data for one (k, N, A-value) triple.

    With certificate INTERVAL, every integer d >= 27 with d^2 | N lies
    strictly between x1 and x0.  With NO_LARGE_SQUARE_DIVISOR no such d
    can exist (the cubic has no positive values at all).  A plain
    record: its fields can be reassigned, and it is not hashable."""

    __slots__ = ("k", "n", "T0", "T", "curly_L", "certificate", "theta", "x1", "x0")

    def __init__(self, k: int, n: int, T0: int, T: int, curly_L: float, certificate: str,
                 theta: float | None = None, x1: float | None = None, x0: float | None = None):
        self.k, self.n, self.T0, self.T, self.curly_L = k, n, T0, T, curly_L
        self.certificate, self.theta, self.x1, self.x0 = certificate, theta, x1, x0


def cubic_margin(k: int, N: int, T: int, L: float, x) -> Fraction:
    """Exact value of -(6/L) x^3 + T x^2 - (k-1) N, treating the float L
    (and a float x, if one is passed) as the exact binary rational it is."""
    Lf = Fraction(L)
    xf = Fraction(x)
    return -6 * xf**3 / Lf + T * xf * xf - (k - 1) * N


def cubic_positive(k: int, N: int, T: int, L: float, d: int) -> bool:
    """Exact sign test: does the localization cubic take a positive value
    at the integer d?  True for every d >= 27 whose square divides N."""
    return cubic_margin(k, N, T, L, d) > 0


def square_divisor_bounds(k: int, N: int, a_value: int) -> BoundsReport:
    """Bounds (x1, x0) such that every integer d >= 27 with d^2 | N has
    x1 < d < x0, from the single oracle value a_value = A(k, N).

    When the arccos argument falls below -1 the cubic is nonpositive on
    the whole positive axis, which certifies that no such d exists; an
    argument above +1 cannot happen for truthful oracle values and is
    reported as an internal inconsistency.  The roots are floats, so
    past T = 2^1000 they cannot be formed and DomainError is raised.
    """
    if N < 729:
        raise DomainError(f"level must be >= 27^2 = 729, got {N}")
    t0, t = compute_T(k, N, a_value)
    if t <= 0:
        raise InternalInconsistencyError(
            f"nonpositive T = {t} cannot occur for truthful oracle values"
        )
    L = curly_L(N)
    # depth of the arccos argument below 1; forming 1 - depth directly
    # would round away the small-angle information.  The ratio N / t^3 is
    # divided exactly, since t^3 leaves float range long before N does;
    # a ratio past float range is far above 2.
    try:
        depth = 486 * (k - 1) * N / t**3 / (L * L)
    except OverflowError:
        depth = math.inf
    if depth > 2.0:
        return BoundsReport(k, N, t0, t, L, NO_LARGE_SQUARE_DIVISOR)
    # x0 < L*t/6, so for t below 2^1000 every root is a finite float
    if t.bit_length() > 1000:
        raise DomainError("T is past float range; the interval roots cannot be formed")
    # acos(1 - depth) without cancellation.  sqrt(depth / 2) is formed from
    # N / t, since the depth itself underflows from N ~ 10^155 on; the min
    # absorbs a last-bit rounding difference at depth = 2.
    half = math.sqrt(243 * (k - 1) * N / t) / (L * float(t))
    theta = 2.0 * math.asin(min(1.0, half))
    scale = L * float(t) / 9.0
    shift = L * float(t) / 18.0
    # x1 = scale*cos(theta/3 - 2pi/3) + scale/2, rewritten as a sum of
    # positive terms so small roots keep full relative precision
    s6 = math.sin(theta / 6.0)
    x1 = scale * (s6 * s6 + math.sin(theta / 3.0) * math.sqrt(3.0) / 2.0)
    x0 = scale * math.cos(theta / 3.0) + shift
    return BoundsReport(k, N, t0, t, L, INTERVAL, theta, x1, x0)
