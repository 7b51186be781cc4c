import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimfactor import arith
from dimfactor.arith import (
    Factorization,
    factor_trial,
    is_probable_prime,
    kronecker_m3,
    kronecker_m4,
    sqrt1_chain,
    twelve_weight_coefficients,
)
from dimfactor.dimensions import level_one_newform_dim
from dimfactor.errors import InvalidWeightError
from dimfactor.multfuncs import local_product, sharp_local, star_local
from reference import euler_phi


@pytest.mark.parametrize("n,want", [(5, 1), (2, 0), (7, -1), (1, 1), (4, 0), (9, 1), (11, -1)])
def test_kronecker_m4(n, want):
    assert kronecker_m4(n) == want


@pytest.mark.parametrize("n,want", [(4, 1), (9, 0), (11, -1), (1, 1), (3, 0), (7, 1), (5, -1)])
def test_kronecker_m3(n, want):
    assert kronecker_m3(n) == want


def test_kronecker_rejects_nonpositive():
    with pytest.raises(ValueError):
        kronecker_m4(0)
    with pytest.raises(ValueError):
        kronecker_m3(-3)


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_kronecker_completely_multiplicative(m, n):
    assert kronecker_m4(m * n) == kronecker_m4(m) * kronecker_m4(n)
    assert kronecker_m3(m * n) == kronecker_m3(m) * kronecker_m3(n)


@given(st.integers(1, 10**9))
def test_kronecker_periodic(n):
    assert kronecker_m4(n) == kronecker_m4(n + 4)
    assert kronecker_m3(n) == kronecker_m3(n + 3)


@pytest.mark.parametrize(
    "k,c2,c3,d2",
    [
        (2, Fraction(-1, 4), Fraction(-1, 3), 1),
        (12, Fraction(1, 4), Fraction(1, 3), 0),
        (16, Fraction(1, 4), Fraction(0), 0),
        (4, Fraction(1, 4), Fraction(0), 0),
        (6, Fraction(-1, 4), Fraction(1, 3), 0),
        (26, Fraction(-1, 4), Fraction(-1, 3), 0),
    ],
)
def test_weight_class_values(k, c2, c3, d2):
    assert twelve_weight_coefficients(k) == (12 * c2, 12 * c3)
    # delta2 is the k = 2 correction of B(k, 1) = (k-7)/12 + c2 + c3 + delta2
    assert level_one_newform_dim(k) == Fraction(k - 7, 12) + c2 + c3 + d2


@given(st.integers(1, 500).map(lambda i: 2 * i))
def test_weight_class_period_twelve(k):
    assert twelve_weight_coefficients(k) == twelve_weight_coefficients(k + 12)
    # B(k, 1) grows by one per period, less the delta2 of k = 2
    assert level_one_newform_dim(k + 12) - level_one_newform_dim(k) == (0 if k == 2 else 1)


@pytest.mark.parametrize("k", [0, -2, 3, 7, 1])
def test_weight_class_rejects_bad_weights(k):
    with pytest.raises(InvalidWeightError):
        twelve_weight_coefficients(k)


# --- primality ----------------------------------------------------------


def _sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return {i for i, f in enumerate(flags) if f}


def test_probable_prime_small_range_vs_sieve():
    primes = _sieve_primes(10**6)
    for n in range(1, 10**6):
        assert is_probable_prime(n) == (n in primes), n


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    # the definition, for odd n > 2: with n - 1 = 2^s d, d odd, either
    # a^d = 1 or a^(2^r d) = -1 (mod n) for some 0 <= r < s
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False

# psi_t, the least strong pseudoprime to the first t prime bases, by its
# prime factors (Jaeschke 1993; Sorenson-Webster 2017 for t = 12, 13)
_PSI_FACTORS = {
    1: (23, 89),
    2: (829, 1657),
    3: (2251, 11251),
    4: (151, 751, 28351),
    5: (6763, 10627, 29947),
    6: (1303, 16927, 157543),
    7: (10670053, 32010157),
    8: (10670053, 32010157),
    9: (149491, 747451, 34233211),
    10: (149491, 747451, 34233211),
    11: (149491, 747451, 34233211),
    12: (399165290221, 798330580441),
    13: (1287836182261, 2575672364521),
}


@pytest.mark.parametrize("t", sorted(_PSI_FACTORS))
def test_probable_prime_rejects_every_psi(t):
    factors = _PSI_FACTORS[t]
    psi = math.prod(factors)
    # psi_t fools the first t bases, so only a graded base set catches it
    assert all(_strong_probable_prime(psi, a) for a in _FIRST_PRIMES[:t])
    assert not is_probable_prime(psi)
    assert all(is_probable_prime(p) for p in factors)


@pytest.mark.parametrize("t", sorted(_PSI_FACTORS))
def test_first_t_bases_agree_with_all_thirteen_below_psi(t):
    psi = math.prod(_PSI_FACTORS[t])
    r = random.Random(t)
    sample = [r.randrange(3, psi) | 1 for _ in range(300)]
    sample += [psi - 2 * i for i in range(1, 301)]
    for n in sample:
        if any(n % p == 0 for p in _FIRST_PRIMES):
            continue
        first_t = all(_strong_probable_prime(n, a) for a in _FIRST_PRIMES[:t])
        all_13 = all(_strong_probable_prime(n, a) for a in _FIRST_PRIMES)
        assert first_t == all_13 == is_probable_prime(n), n


def test_chain_at_n_minus_1_is_the_strong_test():
    # the chain that is_probable_prime walks returns 1 at m = n - 1 exactly
    # for a strong probable prime n to base a: on seeded odd n of 7 to 130
    # bits, on every psi_t and on Carmichael numbers, at the first thirteen
    # prime bases and at random ones
    r = random.Random(2026_10_20)
    ns = [r.getrandbits(bits) | 1 << (bits - 1) | 1 for bits in range(7, 131) for _ in range(20)]
    ns += [math.prod(f) for f in _PSI_FACTORS.values()] + [561, 1105, 1729, 2465]
    passes = 0
    for n in ns:
        for a in _FIRST_PRIMES + tuple(r.randrange(2, n - 1) for _ in range(4)):
            want = _strong_probable_prime(n, a)
            assert (sqrt1_chain(a, n - 1, n) == 1) == want, (n, a)
            passes += want
    assert passes > 1000, passes


def _lucas_lehmer(p):
    # independent deterministic primality check for Mersenne numbers
    m = (1 << p) - 1
    s = 4 % m
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def test_probable_prime_mersenne():
    assert _lucas_lehmer(61)
    assert is_probable_prime(2**61 - 1)
    assert not _lucas_lehmer(67)
    assert not is_probable_prime(2**67 - 1)
    for p in (127, 521, 607):  # above psi_13: Baillie-PSW
        assert _lucas_lehmer(p)
        assert is_probable_prime(2**p - 1), p


def test_probable_prime_basics():
    assert is_probable_prime(2)
    assert not is_probable_prime(91)  # 7 * 13
    assert not is_probable_prime(1)
    # strong pseudoprime to several small bases
    assert not is_probable_prime(3215031751)


def test_probable_prime_large():
    # beyond the deterministic range: Baillie-PSW
    p = 2**89 - 1  # Mersenne prime
    assert _lucas_lehmer(89)
    assert is_probable_prime(p * 1)
    assert not is_probable_prime(p * (2**107 - 1))


# --- Baillie-PSW above psi_13 ---------------------------------------------

# OEIS A217255: the strong Lucas pseudoprimes with Selfridge's parameters,
# every one below 10^5
_STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
)


def test_strong_lucas_step_below_1e5():
    # the Lucas step alone passes every odd prime and exactly the twelve
    # composites of A217255; base 2 refuses each of them, so Baillie-PSW
    # does too, and the first strong pseudoprimes to base 2 fail the
    # Lucas step
    primes = _sieve_primes(10**5)
    passed = {n for n in range(3, 10**5, 2) if arith._strong_lucas(n)}
    assert sorted(passed - primes) == list(_STRONG_LUCAS_PSEUDOPRIMES)
    assert primes - passed == {2}
    for n in _STRONG_LUCAS_PSEUDOPRIMES:
        assert sqrt1_chain(2, n - 1, n) != 1, n
        assert not is_probable_prime(n), n
    for n in (2047, 3277, 4033, 4681, 8321):
        assert sqrt1_chain(2, n - 1, n) == 1, n
        assert not arith._strong_lucas(n), n


def _random_rounds(n):
    """The test above psi_13 before Baillie-PSW: no factor among 2..41,
    then 64 strong bases drawn from random.Random(n)."""
    if any(n % p == 0 for p in _FIRST_PRIMES):
        return False
    rng = random.Random(n)
    return all(_strong_probable_prime(n, rng.randrange(2, n - 1)) for _ in range(64))


def _next_random_rounds_prime(n):
    n |= 1
    while not _random_rounds(n):
        n += 2
    return n


def test_baillie_psw_agrees_with_random_rounds():
    # seeded odd n of 90 to 256 bits, rich in primes: primes, products of
    # two primes, random odd n, and the Wagstaff numbers (2^p + 1) / 3,
    # whose composites all pass the strong test at base 2
    r = random.Random(2029)
    primes = [_next_random_rounds_prime(r.getrandbits(b) | 1 << (b - 1)) for b in range(90, 257, 2)]
    halves = [_next_random_rounds_prime(r.getrandbits(b) | 1 << (b - 1)) for b in range(45, 129)]
    products = [p * q for p, q in zip(halves, reversed(halves))]
    odd = [r.getrandbits(b) | 1 << (b - 1) | 1 for b in range(90, 257) for _ in range(2)]
    wagstaff = [(2**p + 1) // 3 for p in arith.primes_below(257) if p > 89]
    ns = primes + products + odd + wagstaff
    psi13 = arith._PSI[-1][0]
    assert all(psi13 < n < 1 << 256 for n in ns)
    verdicts = [is_probable_prime(n) for n in ns]
    assert verdicts == [_random_rounds(n) for n in ns]
    assert sum(verdicts) > 90
    base2_liars = [n for n, v in zip(ns, verdicts) if not v and sqrt1_chain(2, n - 1, n) == 1]
    assert len(base2_liars) >= 25, len(base2_liars)


# --- factorizations ------------------------------------------------------


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent < 1
    with pytest.raises(ValueError):
        Factorization(((2, 1), (2, 1)))  # duplicate prime


def test_factorization_basics():
    f = Factorization(((2, 2), (3, 1)))
    assert f.value() == 12
    assert not f.is_squarefree()
    assert not f.is_squarefull()
    assert local_product(star_local, f)[4] == 0
    assert str(f) == "2^2*3"
    one = Factorization(())
    assert one.value() == 1
    assert one.is_squarefree() and one.is_squarefull()
    assert local_product(star_local, one)[4] == 1
    assert local_product(star_local, Factorization(((2, 1), (3, 1))))[4] == 1
    assert local_product(star_local, Factorization(((2, 1), (3, 1), (5, 1))))[4] == -1


def test_factorizations_are_frozen_values():
    f = Factorization(((2, 2), (3, 1)))
    assert f == factor_trial(12) and hash(f) == hash(factor_trial(12))
    assert f != Factorization(((2, 1),)) and f != f.factors
    assert repr(f) == "Factorization(factors=((2, 2), (3, 1)))"
    with pytest.raises(AttributeError):
        f.factors = ()
    with pytest.raises(AttributeError):
        del f.factors
    assert pickle.loads(pickle.dumps(f)) == f


def test_euler_phi():
    for f, phi in [(Factorization(()), 1), (factor_trial(15), 8), (factor_trial(700), 240),
                   (factor_trial(2**10), 512)]:
        assert euler_phi(f) == phi
        if f.is_squarefree():  # N*s0#(N) is the totient on squarefree N only
            assert local_product(sharp_local, f)[0] == phi


@pytest.mark.parametrize(
    "n,want",
    [
        (12, ((2, 2), (3, 1))),
        (1, ()),
        (97, ((97, 1),)),
        (2**20, ((2, 20),)),
        (999966000289, ((999983, 2),)),  # square of a prime above the trial bound
        # around the end of the trial-division table (primes below 2^10)
        (1021 * 1031, ((1021, 1), (1031, 1))),
        (1031**2, ((1031, 2),)),
        (1031 * 1033, ((1031, 1), (1033, 1))),
        (1031**3, ((1031, 3),)),
        # Carmichael numbers
        (561, ((3, 1), (11, 1), (17, 1))),
        (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
        (825265, ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1))),
        (2**47 * 3, ((2, 47), (3, 1))),
        # 48-bit semiprimes with two 24-bit factors
        (16777183 * 16777213, ((16777183, 1), (16777213, 1))),
        (8388617 * 16777199, ((8388617, 1), (16777199, 1))),
        (8388619 * 8388637, ((8388619, 1), (8388637, 1))),
        # psi_12 passes the first twelve bases
        (318665857834031151167461, ((399165290221, 1), (798330580441, 1))),
    ],
)
def test_factor_trial_examples(n, want):
    assert factor_trial(n).factors == want


def _factor_by_smallest_prime_factor(limit):
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p

    def factors(n):
        counts = {}
        while n > 1:
            p = spf[n]
            counts[p] = counts.get(p, 0) + 1
            n //= p
        return tuple(sorted(counts.items()))

    return factors


def test_factor_trial_matches_sieve():
    limit = 10**5
    factors = _factor_by_smallest_prime_factor(limit)
    for n in range(1, limit + 1):
        assert factor_trial(n).factors == factors(n), n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**9))
def test_factor_trial_roundtrip(n):
    f = factor_trial(n)
    assert f.value() == n
    for p, _ in f:
        assert is_probable_prime(p)


def test_factor_trial_rho_path(rng):
    # semiprimes with both factors above the trial-division bound
    for p, q in [(1000003, 1000033), (15485863, 32452843)]:
        f = factor_trial(p * q)
        assert f.factors == ((p, 1), (q, 1))


def test_trial_division_that_ends_on_its_last_prime_calls_no_rho(monkeypatch):
    # 1021, the last trial prime, uses up the whole cofactor: what is left
    # for the rho step is 1, and it returns without calling rho
    def no_rho(n, rng):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(arith, "_brent_rho", no_rho)
    assert arith._TRIAL_PRIMES[-1] == 1021
    for n, want in [(1021**2, "1021^2"), (2 * 1021**2, "2*1021^2"), (1021**3, "1021^3")]:
        assert str(factor_trial(n)) == want
