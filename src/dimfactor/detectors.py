"""Oracle-consuming classifiers: squarefreeness from one representation
count, primality from one newform dimension.

Both tests compare a closed-form quantity (computable from the level's
residues alone) against a single oracle value.  They never see the
factorization of the level; for the handful of small levels where the
characterizations do not apply, constant lookup tables give the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import twelve_weight_coefficients
from .dimensions import dim_G, level_one_newform_dim, twelve_G
from .errors import InvalidWeightError

MAX_WEIGHT = 1 << 20  # public-API cap; keeps G polynomial in the input length

# relation constants
EQUAL = "EQUAL"
G_GREATER = "G_GREATER"
G_LESS = "G_LESS"
H_GREATER = "H_GREATER"
H_LESS = "H_LESS"

# conclusion constants
SQUAREFREE = "SQUAREFREE"
NOT_SQUAREFREE = "NOT_SQUAREFREE"
PRIME = "PRIME"
COMPOSITE = "COMPOSITE"
EXCEPTION = "EXCEPTION"

# The two weight/level pairs where the squarefree trichotomy degenerates.
SQUAREFREE_EXCEPTIONS = {(2, 4): "k2n4-reversed", (2, 9): "k2n9-equal"}
_SQUAREFREE_SMALL = {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False, 9: False}

# Composite levels at which the primality comparison reads as equality.
PRIMALITY_EQUALITY_EXCEPTIONS = {(4, 6)} | {
    (2, n) for n in (6, 9, 10, 14, 15, 21, 26, 35, 39, 65, 91)
}
PRIMALITY_REVERSED_EXCEPTIONS = {(2, 4)}
_PRIMES_BELOW_92 = frozenset(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)
)


def _check_weight(k: int, max_k: int) -> None:
    twelve_weight_coefficients(k)  # raises unless k is a positive even weight
    if k > max_k:
        raise InvalidWeightError(f"weight {k} exceeds the cap {max_k}")


@dataclass(frozen=True)
class TrichotomyVerdict:
    relation: str  # EQUAL / G_GREATER / G_LESS
    conclusion: str  # SQUAREFREE / NOT_SQUAREFREE / EXCEPTION
    exception_tag: str | None = None
    suspicious: str | None = None


def squarefree_test(N: int, k: int, a_value: int, max_k: int = MAX_WEIGHT) -> TrichotomyVerdict:
    """Decide squarefreeness of N from the oracle value a_value = A(k, N).

    For N >= 10 the verdict is SQUAREFREE exactly when the closed form
    matches the oracle value.  For 2 <= N <= 9 a lookup table answers,
    with the two catalogued exception pairs tagged.  A comparison sign
    the trichotomy forbids is reported as a suspicious-oracle warning,
    not a hard failure.
    """
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    if a_value < 0:
        raise ValueError("oracle values are nonnegative")
    _check_weight(k, max_k)
    g12 = twelve_G(k, N)
    diff = g12 - 12 * a_value
    relation = EQUAL if diff == 0 else (G_GREATER if diff > 0 else G_LESS)

    tag = SQUAREFREE_EXCEPTIONS.get((k, N))
    if tag is not None:
        expected = G_LESS if N == 4 else EQUAL
        suspicious = None
        if relation != expected:
            suspicious = f"oracle value inconsistent at exception pair (k={k}, N={N})"
        return TrichotomyVerdict(relation, EXCEPTION, tag, suspicious)

    if N < 10:
        sf = _SQUAREFREE_SMALL[N]
        expected = EQUAL if sf else G_GREATER
        suspicious = None
        if relation != expected:
            suspicious = (
                f"oracle value for (k={k}, N={N}) contradicts the known comparison"
            )
        return TrichotomyVerdict(relation, SQUAREFREE if sf else NOT_SQUAREFREE, None, suspicious)

    suspicious = None
    if relation == G_LESS:
        suspicious = f"A({k},{N}) > G({k},{N}) is impossible for a truthful oracle"
    conclusion = SQUAREFREE if relation == EQUAL else NOT_SQUAREFREE
    return TrichotomyVerdict(relation, conclusion, None, suspicious)


@dataclass(frozen=True)
class PrimalityVerdict:
    relation: str  # EQUAL / H_GREATER / H_LESS
    conclusion: str  # PRIME / COMPOSITE / EXCEPTION
    exception_tag: str | None = None
    suspicious: str | None = None


def primality_test(N: int, k: int, b_value: int, max_k: int = MAX_WEIGHT) -> PrimalityVerdict:
    """Decide primality of N from the oracle value b_value = B(k, N).

    For N >= 92 the verdict is PRIME exactly when dim_H(k, N) equals the
    oracle value.  Below 92 a lookup answers, with the catalogued
    equality-at-composite pairs (and the reversed pair (2, 4)) tagged as
    exceptions.
    """
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    if b_value < 0:
        raise ValueError("oracle values are nonnegative")
    _check_weight(k, max_k)
    h12 = twelve_G(k, N) - 12 * level_one_newform_dim(k)
    diff = h12 - 12 * b_value
    relation = EQUAL if diff == 0 else (H_GREATER if diff > 0 else H_LESS)

    if (k, N) in PRIMALITY_EQUALITY_EXCEPTIONS:
        suspicious = None
        if relation != EQUAL:
            suspicious = f"oracle value inconsistent at exception pair (k={k}, N={N})"
        return PrimalityVerdict(relation, EXCEPTION, f"k{k}n{N}-equal", suspicious)
    if (k, N) in PRIMALITY_REVERSED_EXCEPTIONS:
        suspicious = None
        if relation != H_LESS:
            suspicious = f"oracle value inconsistent at exception pair (k={k}, N={N})"
        return PrimalityVerdict(relation, EXCEPTION, f"k{k}n{N}-reversed", suspicious)

    if N < 92:
        is_prime = N in _PRIMES_BELOW_92
        expected = EQUAL if is_prime else H_GREATER
        suspicious = None
        if relation != expected:
            suspicious = (
                f"oracle value for (k={k}, N={N}) contradicts the known comparison"
            )
        return PrimalityVerdict(relation, PRIME if is_prime else COMPOSITE, None, suspicious)

    suspicious = None
    if relation == H_LESS:
        suspicious = f"B({k},{N}) > H({k},{N}) is impossible for a truthful oracle"
    conclusion = PRIME if relation == EQUAL else COMPOSITE
    return PrimalityVerdict(relation, conclusion, None, suspicious)


@dataclass(frozen=True)
class DeltaSignReport:
    k: int
    n: int
    delta: Fraction
    sign: int  # sign of G - a_value
    bullet: str  # which trichotomy case the sign lands in
    exception_pair: bool
    suspicious: str | None = None


def delta_sign_classifier(N: int, k: int, a_value: int, max_k: int = MAX_WEIGHT) -> DeltaSignReport:
    """Report the sign of G - a_value and the trichotomy case it matches.

    Zero lands in the equality case (squarefree levels, plus the one
    catalogued equal pair), negative in the single reversed pair, and
    positive in the strict-gap case.  A negative sign anywhere but the
    reversed pair is flagged suspicious.
    """
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    _check_weight(k, max_k)
    delta = dim_G(k, N) - a_value
    sign = (delta > 0) - (delta < 0)
    exception_pair = (k, N) in SQUAREFREE_EXCEPTIONS
    if sign == 0:
        bullet = "equality"
    elif sign < 0:
        bullet = "reversed"
    else:
        bullet = "strict-gap"
    suspicious = None
    if sign < 0 and (k, N) != (2, 4):
        suspicious = "negative gap outside (k=2, N=4) is impossible for a truthful oracle"
    return DeltaSignReport(
        k=k, n=N, delta=delta, sign=sign, bullet=bullet,
        exception_pair=exception_pair, suspicious=suspicious,
    )
