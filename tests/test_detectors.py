import pytest

from dimfactor import kernels
from dimfactor.detectors import (
    COMPOSITE,
    EQUAL,
    EXCEPTION,
    G_GREATER,
    G_LESS,
    H_GREATER,
    H_LESS,
    NOT_SQUAREFREE,
    PRIMALITY_EQUALITY_EXCEPTIONS,
    PRIME,
    SQUAREFREE,
    delta_sign_classifier,
    primality_test,
    squarefree_test,
)
from dimfactor.dimensions import DefaultOracle
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


def test_delta_sign_examples():
    r = delta_sign_classifier(9, 2, _a(2, 9))
    assert r.sign == 0 and r.bullet == "equality" and r.exception_pair
    r = delta_sign_classifier(4, 2, _a(2, 4))
    assert r.sign == -1 and r.bullet == "reversed" and r.exception_pair
    r = delta_sign_classifier(4, 4, _a(4, 4))
    assert r.sign == 1 and r.bullet == "strict-gap" and not r.exception_pair
    r = delta_sign_classifier(30, 2, _a(2, 30))
    assert r.sign == 0 and r.bullet == "equality" and not r.exception_pair
    # negative sign off the reversed pair can only come from a lying oracle
    r = delta_sign_classifier(30, 2, 10**6)
    assert r.sign == -1 and r.suspicious


def test_weight_cap():
    with pytest.raises(InvalidWeightError):
        squarefree_test(10, 2 + (1 << 21), 0)
    with pytest.raises(InvalidWeightError):
        primality_test(10, 4, 0, max_k=2)
    with pytest.raises(InvalidWeightError):
        squarefree_test(10, 3, 0)


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
    for k in (2, 4, 6, 8, 10, 12):
        dims = kernels.dimension_tables(k, tables)
        for n in range(2, limit + 1):
            v = squarefree_test(n, k, int(dims.A12[n]) // 12)
            truly_squarefree = tables.mu[n] != 0
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
    for k in (2, 4, 6, 12):
        dims = kernels.dimension_tables(k, tables)
        for n in range(2, limit + 1):
            v = primality_test(n, k, int(dims.B12[n]) // 12)
            truly_prime = bool(is_prime[n])
            if (k, n) in PRIMALITY_EQUALITY_EXCEPTIONS or (k, n) == (2, 4):
                assert v.conclusion == EXCEPTION, (k, n)
            else:
                assert (v.conclusion == PRIME) == truly_prime, (k, n)
            assert v.suspicious is None, (k, n)
