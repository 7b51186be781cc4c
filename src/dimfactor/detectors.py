"""Oracle-consuming classifiers: squarefreeness from one representation
count, primality from one newform dimension.

Both tests compare a closed-form quantity (computable from the level's
residues alone) against a single oracle value and return a
:class:`Verdict`.  They never see the factorization of the level; for
the handful of small levels where the characterizations do not apply,
constant lookup tables give the answer.  Each characterization has one
exception catalogue, a dict from (k, N) to the sign of the gap there,
which the tags and the range sweeps read as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import primes_below
from .dimensions import level_one_newform_dim, twelve_G

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

# The exception catalogues: each maps a (k, N) pair where a
# characterization does not apply to the sign the gap takes there for a
# truthful oracle value, 0 (equal although N is not squarefree, or not
# prime) or -1 (reversed).  Detectors and sweeps both read them.
SQUAREFREE_EXCEPTIONS = {(2, 4): -1, (2, 9): 0}
PRIMALITY_EXCEPTIONS = {(2, 4): -1, (4, 6): 0} | {
    (2, n): 0 for n in (6, 9, 10, 14, 15, 21, 26, 35, 39, 65, 91)
}

# Levels below each characterization's threshold, answered by lookup.
_SQUAREFREE_SMALL = {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False, 9: False}
_PRIME_SMALL = dict.fromkeys(range(2, 92), False) | dict.fromkeys(primes_below(92), True)


@dataclass(slots=True)
class Verdict:
    """A detector's answer; a plain record, so it is not hashable."""

    relation: str  # EQUAL, G_GREATER / G_LESS, or H_GREATER / H_LESS
    conclusion: str  # SQUAREFREE / NOT_SQUAREFREE, PRIME / COMPOSITE, or EXCEPTION
    exception_tag: str | None = None
    suspicious: str | None = None


def _verdict(k, N, gap12, relations, conclusions, catalogue, small, names) -> Verdict:
    """The verdict from the 12-scaled gap between the closed form and the
    oracle value.  ``relations`` names the gap signs 0, +1 and -1,
    ``conclusions`` the outcomes of a zero and a positive gap, and
    ``names`` the oracle value and the closed form in messages.  A
    catalogued pair is an EXCEPTION whose gap must take the catalogued
    sign; a level in ``small`` is answered from that table; above it the
    characterization decides, and only a negative gap is impossible."""
    sign = (gap12 > 0) - (gap12 < 0)
    relation = relations[sign]
    expected = catalogue.get((k, N))
    if expected is not None:
        tag = f"k{k}n{N}-{'equal' if expected == 0 else 'reversed'}"
        suspicious = None
        if sign != expected:
            suspicious = f"oracle value inconsistent at exception pair (k={k}, N={N})"
        return Verdict(relation, EXCEPTION, tag, suspicious)
    holds = small.get(N)
    if holds is not None:
        suspicious = None
        if sign != (0 if holds else 1):
            suspicious = f"oracle value for (k={k}, N={N}) contradicts the known comparison"
        return Verdict(relation, conclusions[not holds], None, suspicious)
    suspicious = None
    if sign < 0:
        value, closed = names
        suspicious = f"{value}({k},{N}) > {closed}({k},{N}) is impossible for a truthful oracle"
    return Verdict(relation, conclusions[sign != 0], None, suspicious)


def squarefree_test(N: int, k: int, a_value: int) -> Verdict:
    """Decide squarefreeness of N from the oracle value a_value = A(k, N).

    For N >= 10 the verdict is SQUAREFREE exactly when the closed form
    matches the oracle value.  For 2 <= N <= 9 a lookup table answers,
    with the two pairs of SQUAREFREE_EXCEPTIONS tagged.  A comparison
    sign the trichotomy forbids is reported as a suspicious-oracle
    warning, not a hard failure.
    """
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    if a_value < 0:
        raise ValueError("oracle values are nonnegative")
    return _verdict(  # twelve_G checks the weight
        k, N, twelve_G(k, N) - 12 * a_value,
        (EQUAL, G_GREATER, G_LESS), (SQUAREFREE, NOT_SQUAREFREE),
        SQUAREFREE_EXCEPTIONS, _SQUAREFREE_SMALL, ("A", "G"),
    )


def primality_test(N: int, k: int, b_value: int) -> Verdict:
    """Decide primality of N from the oracle value b_value = B(k, N).

    For N >= 92 the verdict is PRIME exactly when dim_H(k, N) equals the
    oracle value.  Below 92 a lookup answers, with the pairs of
    PRIMALITY_EXCEPTIONS (equality at a composite level, and the reversed
    pair (2, 4)) tagged as exceptions.
    """
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    if b_value < 0:
        raise ValueError("oracle values are nonnegative")
    return _verdict(  # twelve_G checks the weight
        k, N, twelve_G(k, N) - 12 * level_one_newform_dim(k) - 12 * b_value,
        (EQUAL, H_GREATER, H_LESS), (PRIME, COMPOSITE),
        PRIMALITY_EXCEPTIONS, _PRIME_SMALL, ("B", "H"),
    )
