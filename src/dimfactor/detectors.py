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

from .arith import Record, primes_below
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

# Levels below each characterization's threshold, answered by lookup;
# every level of the catalogue above is one of them.
_SQUAREFREE_SMALL = {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False, 9: False}
_PRIME_SMALL = dict.fromkeys(range(2, 92), False) | dict.fromkeys(primes_below(92), True)


class Verdict(Record):
    """A detector's answer; a plain record, so it is not hashable."""

    __slots__ = ("relation", "conclusion", "exception_tag", "suspicious")

    def __init__(self, relation: str, conclusion: str,
                 exception_tag: str | None = None, suspicious: str | None = None):
        self.relation = relation  # EQUAL, G_GREATER / G_LESS, or H_GREATER / H_LESS
        self.conclusion = conclusion  # SQUAREFREE / NOT_SQUAREFREE, PRIME / COMPOSITE, or EXCEPTION
        self.exception_tag = exception_tag
        self.suspicious = suspicious


def _verdict(k, N, gap12, relations, conclusions, catalogue, small, names) -> Verdict:
    """The verdict from the 12-scaled gap between the closed form and the
    oracle value.  ``relations`` names the gap signs 0, +1 and -1,
    ``conclusions`` the outcomes of a zero and a positive gap, and
    ``names`` the oracle value and the closed form in messages.  Above
    the levels of ``small`` the characterization decides, and only a
    negative gap is impossible; that is the common case, so it is tried
    first.  Every catalogued level is a level of ``small``: at one, a
    catalogued pair is an EXCEPTION whose gap must take the catalogued
    sign, and any other pair is answered from the table."""
    sign = (gap12 > 0) - (gap12 < 0)
    relation = relations[sign]
    holds = small.get(N)
    if holds is None:
        suspicious = None
        if sign < 0:
            value, closed = names
            suspicious = f"{value}({k},{N}) > {closed}({k},{N}) is impossible for a truthful oracle"
        return Verdict(relation, conclusions[sign != 0], None, suspicious)
    expected = catalogue.get((k, N))
    if expected is not None:
        tag = f"k{k}n{N}-{'equal' if expected == 0 else 'reversed'}"
        suspicious = None
        if sign != expected:
            suspicious = f"oracle value inconsistent at exception pair (k={k}, N={N})"
        return Verdict(relation, EXCEPTION, tag, suspicious)
    suspicious = None
    if sign != (0 if holds else 1):
        suspicious = f"oracle value for (k={k}, N={N}) contradicts the known comparison"
    return Verdict(relation, conclusions[not holds], None, suspicious)


def squarefree_test(N: int, k: int, a_value: int) -> Verdict:
    """Decide squarefreeness of N from the oracle value a_value = A(k, N).

    For N >= 10 the verdict is SQUAREFREE exactly when the closed form
    matches the oracle value.  For 2 <= N <= 9 a lookup table answers,
    with the two pairs of SQUAREFREE_EXCEPTIONS tagged.  A comparison
    sign the trichotomy forbids is reported as a suspicious-oracle
    warning, not a hard failure.

    So is a positive gap below the floor k - 15: no truthful value gives
    0 < 12 (G - A) < k - 15, which only matters from k = 16 on.  Proof:
    12 (G - A) is the closed form at (N - x, 1 - w, (-4|N) - y,
    (-3|N) - z), x, w, y, z the starred values of N, so it is
    (k - 1) (N - x) + 6 (w - 1) + t2 ((-4|N) - y) + t3 ((-3|N) - z),
    with |t2| = 3, |t3| <= 4 and every Kronecker value and starred
    y, z in {-1, 0, 1}.  On a squarefree N it is 0.  Otherwise let
    p^2 | N and m = N / p^2 >= 1.  Then N - x = N (1 - prod (1 - 1/q^2))
    over the primes q with q^2 | N, which is at least N / p^2 = m;
    w = prod (q - 1) q^(floor(e/2) - 1) over the same q^e is at least
    p - 1; the last two terms are at least -6 and -8.  So
    12 (G - A) >= (k - 1) m + 6 (p - 2) - 14 >= k - 15.
    """
    if N < 2:
        raise ValueError(f"level must be >= 2, got {N}")
    if a_value < 0:
        raise ValueError("oracle values are nonnegative")
    gap12 = twelve_G(k, N) - 12 * a_value  # twelve_G checks the weight
    verdict = _verdict(
        k, N, gap12,
        (EQUAL, G_GREATER, G_LESS), (SQUAREFREE, NOT_SQUAREFREE),
        SQUAREFREE_EXCEPTIONS, _SQUAREFREE_SMALL, ("A", "G"),
    )
    if 0 < gap12 < k - 15 and verdict.suspicious is None:
        verdict.suspicious = (
            f"12(G - A)({k},{N}) = {gap12} is below k - 15 = {k - 15}, "
            "which is impossible for a truthful oracle"
        )
    return verdict


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
