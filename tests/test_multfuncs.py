from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimfactor.arith import Factorization, factor_trial, kronecker_m3, kronecker_m4, primes_below
from dimfactor.kernels import mobius_invert
from dimfactor.multfuncs import (
    local_product,
    nu2_star,
    nu3_star,
    nu_inf_star,
    s0_star,
    sharp_local,
    star_local,
)
from reference import mobius


@pytest.mark.parametrize(
    "n,want",
    [
        (11, Fraction(1)), (12, Fraction(3, 4)), (72, Fraction(2, 3)), (1, Fraction(1)), (4, Fraction(3, 4)),
        (7, Fraction(1)), (700, Fraction(18, 25)), (2**10, Fraction(3, 4)),
    ],
)
def test_s0_star(n, want):
    f = factor_trial(n)
    got = s0_star(f)
    assert got == want
    # s0* lies in (0, 1] and is 1 exactly on squarefree levels
    assert 0 < got <= 1 and (got == 1) == f.is_squarefree()


@pytest.mark.parametrize(
    "n,want",
    [(15, 1), (4, 1), (36, 2), (8, 1), (729, 18), (1, 1), (7, 1), (12, 1), (72, 2), (700, 4), (2**10, 16)],
)
def test_nu_inf_star(n, want):
    f = factor_trial(n)
    got = nu_inf_star(f)
    assert got == want
    # nu_inf* is a positive integer, 1 on squarefree levels
    assert got >= 1 and (got == 1 or not f.is_squarefree())


@pytest.mark.parametrize("n,want", [(5, 1), (20, -1), (8, 0), (12, 1), (16, 0), (36, 0), (1, 1)])
def test_nu2_star(n, want):
    assert nu2_star(factor_trial(n)) == want


@pytest.mark.parametrize("n,want", [(9, -1), (7, 1), (27, 0), (18, 1), (45, 1), (63, -1), (81, 0), (1, 1)])
def test_nu3_star(n, want):
    assert nu3_star(factor_trial(n)) == want


def test_monotone_under_divisibility():
    # s0* can only shrink and nu_inf* only grow along divisibility
    for n in (72, 700, 8640, 44100, 2**10 * 3**4):
        fn = factor_trial(n)
        for d in range(1, n + 1):
            if n % d == 0:
                fd = factor_trial(d)
                assert s0_star(fd) >= s0_star(fn)
                assert nu_inf_star(fd) <= nu_inf_star(fn)


def test_nu_inf_equals_phi_of_largest_square_root_divisor():
    # brute force: enumerate every square divisor d^2 <= limit
    limit = 100_000
    largest = [1] * (limit + 1)
    d = 2
    while d * d <= limit:
        for m in range(d * d, limit + 1, d * d):
            largest[m] = d
        d += 1

    def phi(n):
        out, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out *= (p - 1) * p ** (e - 1)
            p += 1
        if m > 1:
            out *= m - 1
        return out

    for n in range(1, limit + 1):
        assert nu_inf_star(factor_trial(n)) == phi(largest[n]), n


_PRIMES_A = (2, 5, 11, 17, 23)
_PRIMES_B = (3, 7, 13, 19, 29)


def _fac_from(primes, exps):
    pairs = tuple((p, e) for p, e in zip(primes, exps) if e > 0)
    return Factorization(pairs)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(*(st.integers(0, 4) for _ in _PRIMES_A)),
    st.tuples(*(st.integers(0, 4) for _ in _PRIMES_B)),
)
def test_all_four_multiplicative_on_coprime_parts(ea, eb):
    fa, fb = _fac_from(_PRIMES_A, ea), _fac_from(_PRIMES_B, eb)
    merged = Factorization(tuple(sorted(fa.factors + fb.factors)))
    assert s0_star(merged) == s0_star(fa) * s0_star(fb)
    assert nu_inf_star(merged) == nu_inf_star(fa) * nu_inf_star(fb)
    assert nu2_star(merged) == nu2_star(fa) * nu2_star(fb)
    assert nu3_star(merged) == nu3_star(fa) * nu3_star(fb)


def test_local_products_match_definitions_everywhere(star_definitions):
    # every N <= 2*10^4 on the exact path: the starred products against the
    # definitions, mu against the reference mobius, and the sharp products
    # against the divisor-sum Mobius inverse of the starred values
    star = [star_definitions[name] for name in ("ns0", "nu_inf", "nu2", "nu3")]
    sharp = [mobius_invert(values, star_definitions["mu"]) for values in star]
    for n in range(1, len(star[0])):
        f = factor_trial(n)
        mu = mobius(f)
        assert local_product(star_local, f) == (*(int(v[n]) for v in star), mu), n
        assert local_product(sharp_local, f) == (*(int(v[n]) for v in sharp), mu), n


def test_written_out_local_factors_match_their_definitions():
    # sharp_local writes e = 1 and e = 2 out, and star_local reads the
    # Kronecker symbols of p off their table without the symbols' level
    # check: each must stay what it is defined as, in exact ints, at every
    # prime below 2^12 (the sweep above reaches e = 2 only up to p = 141)
    for p in primes_below(1 << 12):
        assert star_local(p, 1)[2:4] == (kronecker_m4(p), kronecker_m3(p)), p
        for e in (1, 2):
            hi, lo = star_local(p, e), star_local(p, e - 1)
            got = sharp_local(p, e)
            assert got == (*(a - b for a, b in zip(hi[:4], lo[:4])), hi[4]), (p, e)
            assert all(type(v) is int for v in got), (p, e)
