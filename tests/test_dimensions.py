from fractions import Fraction
from itertools import product

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimfactor import dimensions
from dimfactor.arith import (
    Factorization,
    factor_trial,
    is_probable_prime,
    kronecker_m3,
    kronecker_m4,
    twelve_weight_coefficients,
)
from dimfactor.dimensions import (
    DefaultOracle,
    OracleSample,
    StaticOracle,
    dim_A,
    dim_B,
    dim_G,
    dim_H,
    dim_delta,
    level_one_newform_dim,
)
from dimfactor.bounds import compute_T
from dimfactor.detectors import primality_test
from dimfactor.errors import InternalInconsistencyError, InvalidWeightError
from dimfactor.multfuncs import (
    local_product,
    nu2_star,
    nu3_star,
    nu_inf_star,
    s0_star,
    sharp_local,
    twelve_combination,
)
from reference import euler_phi, mobius


@pytest.mark.parametrize(
    "k,n,want",
    [
        (2, 9, Fraction(0)),
        (2, 4, Fraction(-1, 2)),
        (2, 11, Fraction(1)),
        (2, 8, Fraction(1, 2)),
        (4, 6, Fraction(1)),
    ],
)
def test_dim_G(k, n, want):
    assert dim_G(k, n) == want


@pytest.mark.parametrize(
    "k,n,want",
    [(2, 11, 1), (2, 4, 0), (2, 9, 0), (2, 22, 1), (12, 2, 1), (2, 23, 2)],
)
def test_dim_A(k, n, want):
    # 2,11 is the genus of the classical level-11 modular curve; the rest
    # follow from the explicit formula by hand.
    assert dim_A(k, factor_trial(n)) == want


def test_dim_A_level_one_matches_closed_form():
    for k in range(2, 40, 2):
        assert dim_A(k, Factorization(())) == level_one_newform_dim(k)


@pytest.mark.parametrize(
    "k,want", [(2, 0), (4, 0), (6, 0), (8, 0), (10, 0), (12, 1), (14, 0), (16, 1), (26, 1)]
)
def test_level_one_dims(k, want):
    # weights 12, 16, 26 carry the classical one-dimensional cusp spaces
    assert level_one_newform_dim(k) == want


@pytest.mark.parametrize(
    "k,n,want",
    [
        (2, 4, Fraction(-1, 2)),
        (2, 8, Fraction(1, 2)),
        (2, 12, Fraction(1, 2)),
        (2, 16, Fraction(1, 2)),
        (2, 20, Fraction(1, 2)),
        (2, 24, Fraction(1, 2)),
        (2, 28, Fraction(1, 2)),
        (4, 4, Fraction(1, 2)),
        (4, 8, Fraction(1, 2)),
        (6, 4, Fraction(1, 2)),
        (8, 4, Fraction(1, 2)),
        (2, 9, Fraction(0)),
    ],
)
def test_dim_delta_small_table(k, n, want):
    assert dim_delta(k, factor_trial(n)) == want


def test_delta_worked_family():
    # levels E*p^2 with E = 1 mod 12 squarefree, p > 3 prime, p coprime to E
    for e_part, p in [(13, 31), (1, 5), (25 - 12, 7), (37, 11), (61, 101)]:
        f = factor_trial(e_part * p * p)
        assert dim_delta(2, f) == Fraction(e_part + 6 * p - 19, 12)


def test_delta_zero_on_squarefree():
    for n in range(2, 2000):
        f = factor_trial(n)
        if f.is_squarefree():
            for k in (2, 4, 6, 12):
                assert dim_delta(k, f) == 0, (k, n)


def test_delta_lower_bound_inequality():
    # gap >= (k-1)/12 N (1 - s0*) + nu_inf*/2 - 13/12, exactly
    for n in range(2, 3000):
        f = factor_trial(n)
        lhs_common = Fraction(nu_inf_star(f), 2) - Fraction(13, 12)
        for k in (2, 4, 6):
            bound = Fraction(k - 1, 12) * n * (1 - s0_star(f)) + lhs_common
            assert dim_delta(k, f) >= bound, (k, n)


@pytest.mark.parametrize(
    "k,n,want",
    [
        (12, 1, 1),
        (2, 22, 0),
        (2, 13, 0),
        (2, 6, 0),
        (2, 10, 0),
        (2, 11, 1),
        (2, 37, 2),
        (4, 6, 1),
    ],
)
def test_dim_B(k, n, want):
    assert dim_B(k, factor_trial(n)) == want


def test_convolution_identity():
    # summing the newform dimension over divisors recovers the
    # representation count
    limit = 2000
    b_cache = {}
    for k in (2, 4, 6, 12):
        for n in range(1, limit + 1):
            b_cache[n] = dim_B(k, factor_trial(n))
            total = sum(b_cache[d] for d in range(1, n + 1) if n % d == 0)
            assert total == dim_A(k, factor_trial(n)), (k, n)


def test_convolution_identity_wide():
    # same identity across N <= 1e4 on the exact integer tables
    import numpy as np

    from dimfactor import kernels

    limit = 10_000
    tables = kernels.build_star_tables(0, limit)
    for k in (2, 4, 6, 12):
        dims = kernels.dimension_tables(k, tables)
        summed = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            summed[d::d] += dims.B12[d]
        assert np.array_equal(summed[1:], dims.A12[1:]), k


def _divisor_sum_B(ks, f):
    """Newform dimensions at the weights ks by Mobius inversion of the
    representation count over the 2^omega divisors d | N with N/d
    squarefree (each prime keeps exponent e or drops to e - 1): the
    independent oracle for the product formula of dim_B."""
    totals = dict.fromkeys(ks, 0)
    for combo in product(*[((p, e), (p, e - 1)) for p, e in f]):
        dropped = sum(1 for (_, e), (_, e0) in zip(combo, f) if e < e0)
        d = Factorization(tuple((p, e) for p, e in combo if e > 0))
        for k in ks:
            totals[k] += (-1) ** dropped * dim_A(k, d)
    return totals


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _random_factorization(rng, omega: int, bound: int = 1 << 64) -> Factorization:
    """Up to omega distinct prime powers with product below bound; half
    the primes small (so 2^e and 3^e turn up often), half up to 2^32."""
    chosen, n = {}, 1
    for _ in range(200):
        if len(chosen) == omega:
            break
        if rng.random() < 0.5:
            p = rng.choice(_SMALL_PRIMES)
        else:
            p = rng.randrange(1 << rng.randint(7, 31), 1 << 32) | 1
            while not is_probable_prime(p):
                p += 2
        e = rng.choice((1, 1, 1, 2, 2, 3, 4, 7))
        if p not in chosen and n * p**e < bound:
            chosen[p] = e
            n *= p**e
    return Factorization(tuple(sorted(chosen.items())))


def test_dim_B_matches_divisor_sum_oracle(rng):
    ks = (2, 4, 6, 12, 14, 26)
    # every 2^a 3^b q^c with small exponents, where nu2# and nu3# differ
    # from zero, then random levels below 2^64 with up to eight primes
    cases = [
        Factorization(tuple((p, e) for p, e in ((2, a), (3, b), (q, c)) if e))
        for a in range(6) for b in range(6) for q in (5, 7, 11, 13) for c in range(3)
    ]
    cases += [_random_factorization(rng, omega=1 + i % 8) for i in range(120)]
    assert {len(f) for f in cases} >= set(range(9))
    for f in cases:
        want = _divisor_sum_B(ks, f)
        for k in ks:
            assert dim_B(k, f) == want[k], (k, f.factors)


@pytest.mark.parametrize(
    "k,n,want",
    [(4, 6, 1), (2, 4, Fraction(-1, 2)), (2, 97, 7), (12, 9, 7)],
)
def test_dim_H(k, n, want):
    assert dim_H(k, n) == want


def test_H_equals_B_at_primes():
    for p in (2, 3, 5, 7, 11, 101, 499):
        for k in (2, 4, 6, 12, 16):
            assert dim_H(k, p) == dim_B(k, factor_trial(p)), (k, p)


def _weight_fractions(k):
    """c2, c3 and delta2 of the rational closed forms, read off k mod 4,
    k mod 3 and k here rather than from the package's 12-scaled table."""
    return Fraction(1 if k % 4 == 0 else -1, 4), Fraction((1, 0, -1)[k % 3], 3), int(k == 2)


def _rational_reference(k, f):
    """G, H, A and B(k, 1) from the rational closed forms, with the
    weight Fractions and the starred functions of N: the cross-check on
    the 12-scaled integer form the package evaluates."""
    n, (c2, c3, d2) = f.value(), _weight_fractions(k)
    b1 = Fraction(k - 7, 12) + c2 + c3 + d2
    g = Fraction(k - 1, 12) * n - Fraction(1, 2) + c2 * kronecker_m4(n) + c3 * kronecker_m3(n)
    a = b1 if n == 1 else (
        Fraction(k - 1, 12) * n * s0_star(f)
        - Fraction(nu_inf_star(f), 2)
        + c2 * nu2_star(f)
        + c3 * nu3_star(f)
    )
    return g, g - b1, a, b1


def test_integer_forms_match_rational_reference(rng):
    cases = [factor_trial(n) for n in range(1, 3001)]
    cases += [_random_factorization(rng, omega=1 + i % 8) for i in range(200)]
    for f in cases:
        n = f.value()
        for k in (2, 4, 6, 12, 14, 26):
            g, h, a, b1 = _rational_reference(k, f)
            got_a = dim_A(k, f)
            assert (dim_G(k, n), dim_H(k, n), got_a) == (g, h, a), (k, n)
            assert level_one_newform_dim(k) == b1, k
            if n >= 2:
                c2, c3, _ = _weight_fractions(k)
                t0, _ = compute_T(k, n, got_a)
                assert type(t0) is int
                assert t0 == 12 * (
                    g - a + Fraction(1, 2) - c2 * kronecker_m4(n) - c3 * kronecker_m3(n)
                ), (k, n)


def test_odd_weight_rejected():
    with pytest.raises(InvalidWeightError):
        dim_G(3, 10)
    with pytest.raises(InvalidWeightError):
        dim_A(5, factor_trial(10))
    f = factor_trial(10)
    calls = (
        lambda k: dim_B(k, f),
        lambda k: dim_H(k, 10),
        lambda k: level_one_newform_dim(k),
        lambda k: compute_T(k, 10, 0),
        lambda k: twelve_combination(k, 1, 1, 1, 1),
    )
    for k in (0, 1, 3, -2):
        for call in calls:
            with pytest.raises(InvalidWeightError):
                call(k)


def test_weight_memos_match_the_uncached_formulas():
    for k in [*range(2, 401, 2), 10**30 + 2]:
        c2, c3, d2 = _weight_fractions(k)
        assert twelve_weight_coefficients(k) == (12 * c2, 12 * c3), k
        assert level_one_newform_dim(k) == Fraction(k - 7, 12) + c2 + c3 + d2, k
    for memo in (twelve_weight_coefficients, level_one_newform_dim):
        assert memo.cache_info().maxsize is not None
        for k in (0, 1, 3, -2, 5):
            for _ in range(2):  # a raised call is not cached
                with pytest.raises(InvalidWeightError):
                    memo(k)
        # a weight equal to a memoized one but of another type is not
        # answered from the memo: it behaves as the uncached function does.
        # numpy.int64(12) goes in first, so 12.0 and Fraction(12), equal to
        # it and raising where it answers, show that no two types share a key
        memo(12)
        for k in (numpy.int64(12), 12.0, Fraction(12), True, numpy.int64(14), 14.0):
            try:
                want = memo.__wrapped__(k)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    memo(k)
            else:
                for _ in range(2):  # computed, then read from the memo
                    got = memo(k)
                    assert got == want and type(got) is type(want), k


def test_count_error_text_is_built_only_on_failure(monkeypatch):
    f = factor_trial(2 * 3 * 3 * 5)
    calls = []
    value = Factorization.value
    monkeypatch.setattr(Factorization, "value", lambda self: calls.append(self) or value(self))
    level_one_newform_dim.cache_clear()  # so the level-one dim_B runs too
    for k in (2, 4, 12):
        dim_A(k, f)
        dim_B(k, f)
        primality_test(101, k, dim_B(k, factor_trial(101)))
    assert calls == []
    monkeypatch.setattr(dimensions, "twelve_combination", lambda *args: 13)
    with pytest.raises(InternalInconsistencyError) as err:
        dim_A(4, f)
    assert str(err.value) == "representation count A(4,90) = 13/12 is not a nonnegative integer"
    monkeypatch.setattr(dimensions, "twelve_newform", lambda *args: 13)
    with pytest.raises(InternalInconsistencyError) as err:
        dim_B(4, f)
    assert str(err.value) == "newform dimension B(4,90) = 13/12 is not a nonnegative integer"


# --- sharp values ---------------------------------------------------------


def _sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def test_sharp_values_at_primes():
    for p in _sieve_primes(500):
        assert sharp_local(p, 1) == (p - 1, 0, kronecker_m4(p) - 1, kronecker_m3(p) - 1, -1)


def test_sharp_values_at_prime_powers_bounded():
    for p in (2, 3, 5, 7, 11):
        for e in range(1, 7):
            x, _, y, z, _ = sharp_local(p, e)
            assert y in (-2, -1, 0, 1, 2)
            assert z in (-2, -1, 0, 1, 2)
            assert x >= 0
    with pytest.raises(ValueError):
        sharp_local(5, 0)


def test_squarefree_closed_forms():
    # Independent route: on squarefree levels the newform dimension has a
    # closed form built from the per-prime sharp values.
    primes = _sieve_primes(500)
    for k in range(2, 32, 2):
        c2, c3, d2 = _weight_fractions(k)
        b1 = level_one_newform_dim(k)
        assert b1 == Fraction(k - 7, 12) + c2 + c3 + d2
        for p in primes:
            y, z = kronecker_m4(p) - 1, kronecker_m3(p) - 1
            want = Fraction(k - 1, 12) * (p - 1) + c2 * y + c3 * z - d2
            assert dim_B(k, factor_trial(p)) == want, (k, p)
    for k in range(2, 32, 2):
        c2, c3, d2 = _weight_fractions(k)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                yp, zp = kronecker_m4(p) - 1, kronecker_m3(p) - 1
                yq, zq = kronecker_m4(q) - 1, kronecker_m3(q) - 1
                want = (
                    Fraction(k - 1, 12) * (p - 1) * (q - 1)
                    + c2 * yp * yq
                    + c3 * zp * zq
                    + d2
                )
                assert dim_B(k, Factorization(((p, 1), (q, 1)))) == want, (k, p, q)


def test_sharp_reconstruction_on_squarefull_levels():
    # Multiplying per-prime-power sharp values must reproduce the newform
    # dimension of squarefull levels through the explicit formula.
    cases = [
        ((2, 2),),
        ((2, 3),),
        ((3, 2),),
        ((2, 2), (3, 2)),
        ((2, 4), (5, 2)),
        ((3, 3), (7, 2)),
        ((2, 2), (3, 3), (5, 2)),
    ]
    for pairs in cases:
        f = Factorization(pairs)
        xs = ws = ys = zs = 1
        for p, e in pairs:
            x, w, y, z, _ = sharp_local(p, e)
            xs, ws, ys, zs = xs * x, ws * w, ys * y, zs * z
        for k in (2, 4, 6, 12, 14):
            c2, c3, d2 = _weight_fractions(k)
            want = (
                Fraction(k - 1, 12) * xs
                - Fraction(ws, 2)
                + c2 * ys
                + c3 * zs
                + d2 * mobius(f)
            )
            assert dim_B(k, f) == want, (k, pairs)
        assert local_product(sharp_local, f) == (xs, ws, ys, zs, mobius(f))


def test_sharp_s0_on_squarefull_edges():
    assert local_product(sharp_local, Factorization(())) == (1, 1, 1, 1, 1)
    assert local_product(sharp_local, Factorization(((5, 2),))) == sharp_local(5, 2)


def test_n_times_sharp_s0_equals_phi_on_squarefree_products():
    # x-values at distinct primes multiply to the totient
    f = Factorization(((3, 1), (5, 1), (11, 1)))
    assert local_product(sharp_local, f)[0] == euler_phi(f)


# --- oracles ---------------------------------------------------------------


def test_default_oracle_matches_direct_formulas(oracle):
    for n in (1, 11, 12, 72, 12493):
        f = factor_trial(n)
        for k in (2, 4):
            assert oracle.query_A(k, n).value == dim_A(k, f)
            assert oracle.query_B(k, n).value == dim_B(k, f)
    s = oracle.query_A(2, 11)
    assert (s.kind, s.k, s.n, s.value) == ("A", 2, 11, 1)


def test_default_oracle_cache_consistency():
    oracle = DefaultOracle()
    first = oracle.query_B(2, 561)
    again = oracle.query_B(2, 561)
    assert first == again


def test_static_oracle_serves_only_loaded_samples():
    oracle = StaticOracle([OracleSample("A", 2, 11, 1)])
    assert oracle.query_A(2, 11).value == 1
    with pytest.raises(LookupError):
        oracle.query_B(2, 11)


def test_oracle_sample_validation():
    with pytest.raises(ValueError):
        OracleSample("C", 2, 11, 1)
    with pytest.raises(ValueError):
        OracleSample("A", 2, 11, -1)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 50_000), st.sampled_from((2, 4, 6, 12)))
def test_A_nonnegative_integer_everywhere(n, k):
    assert dim_A(k, factor_trial(n)) >= 0


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20_000), st.sampled_from((2, 4, 6, 12)))
def test_B_nonnegative_integer_everywhere(n, k):
    assert dim_B(k, factor_trial(n)) >= 0
