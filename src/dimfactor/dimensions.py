"""The dimension oracle: exact counts of automorphic representations and
newform dimensions.

Every count is :func:`~dimfactor.multfuncs.twelve_combination`, the
closed form scaled by 12, at four multiplicative values (see there); the
newform count is :func:`~dimfactor.multfuncs.twelve_newform`, the same
form plus delta2 * mu.
``dim_G`` and ``dim_H`` take a bare integer level because they are
computable from residues alone, and return exact Fractions; ``dim_A``,
``dim_B`` and ``dim_delta`` take a :class:`Factorization` because they
genuinely need one.  ``dim_delta`` is the squarefree gap G - A as one
exact Fraction; its sign at the levels where the trichotomy degenerates
is catalogued in ``detectors.SQUAREFREE_EXCEPTIONS``.  Detectors and
factoring reductions take these numbers as plain ints, from an oracle's
samples or the command line, never by factoring the level themselves.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .arith import KRON12, Factorization, FrozenRecord, factor_trial
from .errors import InternalInconsistencyError
from .multfuncs import local_product, sharp_local, star_local, twelve_combination, twelve_newform

_LEVEL_ONE = Factorization(())


def _not_a_count(twelve: int, what: str, k: int, f: Factorization) -> InternalInconsistencyError:
    """The error for a count ``what(k,N)`` = twelve / 12 that is not a
    nonnegative integer.  The counts check twelve themselves and build
    this only on failure, so the level N = f.value() is multiplied out
    only then."""
    return InternalInconsistencyError(
        f"{what}({k},{f.value()}) = {Fraction(twelve, 12)} is not a nonnegative integer"
    )


@lru_cache(maxsize=128, typed=True)
def level_one_newform_dim(k: int) -> int:
    """B(k, 1) = (k-7)/12 + c2 + c3 + delta2: :func:`dim_B` at level one.

    This is the dimension of the full cusp space at level one; it is a
    nonnegative integer for every positive even weight.  It depends only
    on k, so the last 128 answers are memoized; a bad weight raises on
    every call, since a raised call is not cached.  As in
    :func:`~dimfactor.arith.twelve_weight_coefficients`, the key is the
    weight with its type, so no weight is answered from the entry of an
    equal weight of another type.
    """
    return dim_B(k, _LEVEL_ONE)


def twelve_G(k: int, n: int) -> int:
    """12 * dim_G(k, n), an exact integer: the closed form at the values
    (n, 1, (-4|n), (-3|n)) that the starred functions take on a
    squarefree level."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    return twelve_combination(k, n, 1, KRON12[0][n % 12], KRON12[1][n % 12])


def dim_G(k: int, n: int) -> Fraction:
    """(k-1)/12 * N - 1/2 + c2(k)(-4|N) + c3(k)(-3|N), exactly.

    Computable without factoring N; the denominator always divides 12.
    """
    return Fraction(twelve_G(k, n), 12)


def dim_H(k: int, n: int) -> Fraction:
    """dim_G minus the closed-form level-one dimension; equals the
    newform dimension exactly when N is prime (with small-N exceptions)."""
    return dim_G(k, n) - level_one_newform_dim(k)


def dim_A(k: int, f: Factorization) -> int:
    """Number of automorphic representations at weight k, level N = f.value().

    The closed form at the starred values N*s0*, nu_inf*, nu2*, nu3*,
    each a product of its local factors
    :func:`~dimfactor.multfuncs.star_local`; the result must be a
    nonnegative integer, and we insist it is.  Level 1 is defined to be
    the level-one newform dimension so divisor sums extend to N = 1.
    """
    if not f.factors:
        return level_one_newform_dim(k)
    x, w, y, z, _ = local_product(star_local, f.factors)
    twelve = twelve_combination(k, x, w, y, z)
    if twelve < 0 or twelve % 12:
        raise _not_a_count(twelve, "representation count A", k, f)
    return twelve // 12


def dim_delta(k: int, f: Factorization) -> Fraction:
    """The gap dim_G - dim_A; its sign encodes the squarefree trichotomy."""
    n = f.value()
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    return dim_G(k, n) - dim_A(k, f)


def dim_B(k: int, f: Factorization) -> int:
    """Newform dimension at weight k and level N = f.value().

    The Mobius inverse of the representation count over the divisors of
    N: the closed form of :func:`dim_A` at the sharp values N*s0#,
    nu_inf#, nu2#, nu3# (each a product of its local factors
    :func:`~dimfactor.multfuncs.sharp_local`), plus delta2 * mu(N).
    The result must be a nonnegative integer.
    """
    twelve = twelve_newform(k, *local_product(sharp_local, f.factors))
    if twelve < 0 or twelve % 12:
        raise _not_a_count(twelve, "newform dimension B", k, f)
    return twelve // 12


# --- the oracle boundary ------------------------------------------------


class OracleSample(FrozenRecord):
    """What an oracle query returns: one dimension value, tagged with its
    kind ("A" or "B"), weight and level."""

    __slots__ = ("kind", "k", "n", "value")

    def __init__(self, kind: str, k: int, n: int, value: int):
        if kind not in ("A", "B"):
            raise ValueError(f"kind must be 'A' or 'B', got {kind!r}")
        if value < 0:
            raise ValueError("dimension values are nonnegative")
        object.__setattr__(self, "kind", kind)  # "A" or "B"
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)


class DefaultOracle:
    """Oracle backed by trial factorization plus the explicit formulas.

    This stands in for the hypothetical fast algorithm the reductions
    assume; it is honest but slow, since it factors the level.  It
    factors each level once and caches the factorization for every
    later query; the cache is guarded by a lock so concurrent queries
    are safe.
    """

    def __init__(self):
        self._factorizations: dict[int, Factorization] = {}
        self._lock = threading.Lock()

    def _factorization(self, n: int) -> Factorization:
        with self._lock:
            f = self._factorizations.get(n)
        if f is None:
            f = factor_trial(n)
            with self._lock:
                self._factorizations[n] = f
        return f

    def query_A(self, k: int, n: int) -> OracleSample:
        return OracleSample(kind="A", k=k, n=n, value=dim_A(k, self._factorization(n)))

    def query_B(self, k: int, n: int) -> OracleSample:
        return OracleSample(kind="B", k=k, n=n, value=dim_B(k, self._factorization(n)))


class StaticOracle:
    """Oracle that serves only preloaded samples; used to prove the
    reductions touch nothing but oracle values."""

    def __init__(self, samples):
        self._table = {(s.kind, s.k, s.n): s for s in samples}

    def _lookup(self, kind: str, k: int, n: int) -> OracleSample:
        try:
            return self._table[(kind, k, n)]
        except KeyError:
            raise LookupError(f"no preloaded sample for {kind}({k},{n})") from None

    def query_A(self, k: int, n: int) -> OracleSample:
        return self._lookup("A", k, n)

    def query_B(self, k: int, n: int) -> OracleSample:
        return self._lookup("B", k, n)
