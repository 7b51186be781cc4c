import dataclasses

import numpy as np
import pytest

from dimfactor import kernels
from dimfactor.arith import factor_trial
from dimfactor.bounds import square_divisor_bounds
from dimfactor.detectors import (
    COMPOSITE,
    EQUAL,
    EXCEPTION,
    G_GREATER,
    G_LESS,
    H_GREATER,
    H_LESS,
    NOT_SQUAREFREE,
    PRIME,
    SQUAREFREE,
    primality_test,
    squarefree_test,
)
from dimfactor.dimensions import DefaultOracle, dim_A, dim_B
from dimfactor.errors import InvalidWeightError

_ORACLE = DefaultOracle()


def _a(k, n):
    return _ORACLE.query_A(k, n).value


def _b(k, n):
    return _ORACLE.query_B(k, n).value


def test_squarefree_examples():
    v = squarefree_test(11, 2, 1)
    assert (v.relation, v.conclusion) == (EQUAL, SQUAREFREE)
    v = squarefree_test(12, 2, 0)
    assert (v.relation, v.conclusion) == (G_GREATER, NOT_SQUAREFREE)
    v = squarefree_test(4, 2, 0)
    assert (v.relation, v.conclusion) == (G_LESS, EXCEPTION)
    assert v.exception_tag
    v = squarefree_test(9, 2, 0)
    assert (v.relation, v.conclusion) == (EQUAL, EXCEPTION)


def test_verdicts_are_plain_records():
    v = squarefree_test(12, 2, _a(2, 12))
    assert [f.name for f in dataclasses.fields(v)] == [
        "relation", "conclusion", "exception_tag", "suspicious"
    ]
    assert v == squarefree_test(12, 2, _a(2, 12))
    assert repr(v) == (
        "Verdict(relation='G_GREATER', conclusion='NOT_SQUAREFREE', "
        "exception_tag=None, suspicious=None)"
    )
    rep = square_divisor_bounds(2, 12493, _a(2, 12493))
    assert [f.name for f in dataclasses.fields(rep)] == [
        "k", "n", "T0", "T", "curly_L", "certificate", "theta", "x1", "x0"
    ]
    assert rep == square_divisor_bounds(2, 12493, _a(2, 12493))
    for record in (v, rep):
        with pytest.raises(TypeError):
            hash(record)


def test_squarefree_small_levels_all_weights():
    truth = {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False, 9: False}
    for n, sf in truth.items():
        for k in (2, 4, 6, 12):
            v = squarefree_test(n, k, _a(k, n))
            if (k, n) in ((2, 4), (2, 9)):
                assert v.conclusion == EXCEPTION
            else:
                assert v.conclusion == (SQUAREFREE if sf else NOT_SQUAREFREE), (k, n)
            assert v.suspicious is None


def test_squarefree_suspicious_oracle():
    # a value above G is impossible outside the one reversed pair
    v = squarefree_test(100, 2, 10**6)
    assert v.relation == G_LESS and v.suspicious
    clean = squarefree_test(100, 2, _a(2, 100))
    assert clean.suspicious is None


def test_squarefree_floor_flags_impossible_positive_gaps():
    # 1000003 is prime, so A(k, N) = G(k, N); one less is a 12-scaled gap
    # of 12, which the floor k - 15 makes impossible from k = 28 on
    n = 1_000_003
    for k in (28, 100):
        truth = _a(k, n)
        for lie in range(1, 8):
            v = squarefree_test(n, k, truth - lie)
            assert (v.relation, v.conclusion) == (G_GREATER, NOT_SQUAREFREE)
            assert (v.suspicious is not None) == (12 * lie < k - 15), (k, lie)
        assert squarefree_test(n, k, truth).suspicious is None
    assert squarefree_test(n, 16, _a(16, n) - 1).suspicious is None  # floor 1


@pytest.mark.parametrize("k,least", [(16, 18), (28, 30), (100, 102)])
def test_no_truthful_squarefree_gap_is_below_the_floor(k, least):
    # every level of [2, 2 * 10^5]: a truthful 12 (G - A) is 0 or at least
    # k - 15, and the detector flags none of the levels with the least one
    hi = 2 * 10**5
    levels = np.arange(2, hi + 1, dtype=np.int64)
    tables = kernels.build_star_tables(2, hi)
    a12 = kernels.twelve_A(k, tables, 2, hi)
    gap = kernels.twelve_G(k, levels) - a12
    assert gap.min() == 0 and gap[gap > 0].min() == least >= k - 15
    for i in np.flatnonzero(gap == least)[:50].tolist():
        n, a = i + 2, int(a12[i]) // 12
        assert a == _a(k, n)
        v = squarefree_test(n, k, a)
        assert v.conclusion == NOT_SQUAREFREE and v.suspicious is None, n


def test_primality_examples():
    v = primality_test(97, 2, _b(2, 97))
    assert (v.relation, v.conclusion) == (EQUAL, PRIME)
    v = primality_test(91, 2, _b(2, 91))
    assert (v.relation, v.conclusion) == (EQUAL, EXCEPTION)
    v = primality_test(95, 2, _b(2, 95))
    assert (v.relation, v.conclusion) == (H_GREATER, COMPOSITE)
    v = primality_test(4, 2, _b(2, 4))
    assert (v.relation, v.conclusion) == (H_LESS, EXCEPTION)
    v = primality_test(6, 4, _b(4, 6))
    assert (v.relation, v.conclusion) == (EQUAL, EXCEPTION)


def test_primality_suspicious_oracle():
    v = primality_test(1000, 2, 10**9)
    assert v.relation == H_LESS and v.suspicious


# Every catalogued pair as the paper states it: detector, oracle kind,
# (k, N), exception tag and the relation a truthful oracle value gives.
_CATALOGUE = [
    (squarefree_test, _a, (2, 4), "k2n4-reversed", G_LESS),
    (squarefree_test, _a, (2, 9), "k2n9-equal", EQUAL),
    (primality_test, _b, (2, 4), "k2n4-reversed", H_LESS),
    (primality_test, _b, (4, 6), "k4n6-equal", EQUAL),
] + [
    (primality_test, _b, (2, n), f"k2n{n}-equal", EQUAL)
    for n in (6, 9, 10, 14, 15, 21, 26, 35, 39, 65, 91)
]


@pytest.mark.parametrize(
    "test,value,pair,tag,relation",
    _CATALOGUE,
    ids=[f"{t.__name__}-k{k}n{n}" for t, _, (k, n), _, _ in _CATALOGUE],
)
def test_exception_catalogue_pinned(test, value, pair, tag, relation):
    k, n = pair
    truth = value(k, n)
    v = test(n, k, truth)
    assert (v.exception_tag, v.relation, v.conclusion) == (tag, relation, EXCEPTION)
    assert v.suspicious is None
    # a value off by one is flagged exactly when it moves the gap off the
    # catalogued sign: always at an equal pair, never above a reversed one
    # (whose truthful value is 0, so only the value 1 is tried there)
    for off in (truth - 1, truth + 1):
        if off >= 0:
            lie = test(n, k, off)
            assert (lie.exception_tag, lie.conclusion) == (tag, EXCEPTION)
            assert (lie.suspicious is None) == (lie.relation == relation), off
            assert (lie.suspicious is None) == (relation != EQUAL), off


def test_weight_cap():
    # no cap above; an odd weight is still refused
    with pytest.raises(InvalidWeightError):
        squarefree_test(10, 3, 0)


@pytest.mark.parametrize("k", [2**21 + 2, 10**30 + 2])
def test_verdicts_past_the_old_weight_cap(k):
    # the characterizations hold at every even weight: truthful values far
    # above 2^20 give the verdicts factor_trial gives, with no warning
    for n in range(2, 3001):
        f = factor_trial(n)
        sf, pr = squarefree_test(n, k, dim_A(k, f)), primality_test(n, k, dim_B(k, f))
        assert (sf.suspicious, pr.suspicious) == (None, None), n
        assert sf.conclusion == (SQUAREFREE if f.is_squarefree() else NOT_SQUAREFREE), n
        assert pr.conclusion == (PRIME if f.factors == ((n, 1),) else COMPOSITE), n


def test_rejects_bad_levels_and_values():
    with pytest.raises(ValueError):
        squarefree_test(1, 2, 0)
    with pytest.raises(ValueError):
        primality_test(0, 2, 0)
    with pytest.raises(ValueError):
        squarefree_test(10, 2, -1)


def test_squarefree_soundness_sweep():
    # full agreement with the ground-truth squarefree predicate
    limit = 100_000
    tables = kernels.star_tables(limit)
    squarefree = {n: factor_trial(n).mobius() != 0 for n in range(2, limit + 1)}
    for k in (2, 4, 6, 8, 10, 12):
        dims = kernels.dimension_tables(k, tables)
        for n in range(2, limit + 1):
            v = squarefree_test(n, k, int(dims.A12[n]) // 12)
            truly_squarefree = squarefree[n]
            if (k, n) in ((2, 4), (2, 9)):
                assert v.conclusion == EXCEPTION
            else:
                assert (v.conclusion == SQUAREFREE) == truly_squarefree, (k, n)
                assert v.conclusion in (SQUAREFREE, NOT_SQUAREFREE)
            assert v.suspicious is None, (k, n)


def _prime_flags(limit):
    # plain Eratosthenes sieve, independent of the kernels
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def test_primality_soundness_sweep():
    limit = 100_000
    tables = kernels.star_tables(limit)
    is_prime = _prime_flags(limit)
    catalogued = {pair for test, _, pair, _, _ in _CATALOGUE if test is primality_test}
    for k in (2, 4, 6, 12):
        dims = kernels.dimension_tables(k, tables)
        for n in range(2, limit + 1):
            v = primality_test(n, k, int(dims.B12[n]) // 12)
            truly_prime = bool(is_prime[n])
            if (k, n) in catalogued:
                assert v.conclusion == EXCEPTION, (k, n)
            else:
                assert (v.conclusion == PRIME) == truly_prime, (k, n)
            assert v.suspicious is None, (k, n)
