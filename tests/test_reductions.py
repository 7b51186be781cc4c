import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from dimfactor import arith, kernels, reductions
from dimfactor.arith import Factorization, factor_trial, is_probable_prime
from dimfactor.dimensions import DefaultOracle, dim_A, dim_B
from dimfactor.errors import FactoringFailureError, InconsistentInputsError
from dimfactor.multfuncs import (
    local_product,
    nu2_star,
    nu3_star,
    nu_inf_star,
    s0_star,
    sharp_local,
    star_local,
    twelve_combination,
)
from dimfactor.reductions import (
    SquarefullSplit,
    _exact_power_base,
    _sharp_guesses,
    factor_given_phi_multiple,
    factor_squarefull_from_invariants,
    factor_squarefull_two_values,
    full_factor_three_values,
    recover_nu23_star,
)
from reference import euler_phi

_ORACLE = DefaultOracle()


def _a(k, n):
    return _ORACLE.query_A(k, n).value


def _b(k, n):
    return _ORACLE.query_B(k, n).value


# --- totient-multiple factoring -------------------------------------------


def test_phi_factoring_trivial_cases(rng):
    assert factor_given_phi_multiple(1, 1, rng).factors == ()
    assert factor_given_phi_multiple(2, 1, rng).factors == ((2, 1),)
    # prime input short-circuits regardless of m
    assert factor_given_phi_multiple(97, 96, rng).factors == ((97, 1),)


def test_phi_factoring_example(rng):
    got = factor_given_phi_multiple(15, 8, rng)
    assert got.factors == factor_trial(15).factors


@pytest.mark.parametrize(
    "d",
    [15, 700, 8640, 2**16, 3**5, 5**4 * 7**3, 101 * 103, 65537 * 257, 999983 * 999979],
)
def test_phi_factoring_exact_multiples(d, rng):
    f = factor_trial(d)
    got = factor_given_phi_multiple(d, euler_phi(f), rng)
    assert got.factors == f.factors
    assert got.value() == d


def test_phi_factoring_with_random_multipliers(rng):
    for _ in range(50):
        d = rng.randrange(2, 10**9)
        f = factor_trial(d)
        m = euler_phi(f) * rng.randrange(1, 2**16)
        got = factor_given_phi_multiple(d, m, rng)
        assert got.factors == f.factors, d


def test_phi_factoring_rejects_bad_multiple(rng):
    # phi(1891) = 1800; an odd m cannot be a totient multiple here
    with pytest.raises(FactoringFailureError):
        factor_given_phi_multiple(31 * 61, 45, rng)


def test_phi_factoring_stops_at_split_rounds(monkeypatch):
    # the first base of this seed leaves 77 = 7 * 11 unsplit; the second splits it
    assert factor_given_phi_multiple(77, 60, random.Random(1)).factors == ((7, 1), (11, 1))
    monkeypatch.setattr(reductions, "SPLIT_ROUNDS", 1)
    with pytest.raises(FactoringFailureError, match="failed to split 77 within 1 rounds"):
        factor_given_phi_multiple(77, 60, random.Random(1))


def _power_base_all_exponents(n):
    """The perfect-power search the splitter made before it tried prime
    exponents only: every j from 2 to bit_length, with exact roots."""
    for j in range(2, n.bit_length() + 1):
        r = reductions._iroot(n, j)
        if r < 2:
            return None
        if r**j == n:
            return r, j
    return None


def test_exact_power_base_matches_all_exponent_search():
    for n in range(100_001):
        assert _exact_power_base(n) == _power_base_all_exponents(n), n
    r = random.Random(31)
    for _ in range(300):
        j = r.randint(2, 60)
        base = r.randrange(2, 1 << r.randint(2, 16))
        for n in (base**j - 1, base**j, base**j + 1):
            assert _exact_power_base(n) == _power_base_all_exponents(n), (base, j, n)
    # the float root serves below 2^53 and the Newton root from there on:
    # at every odd prime j, the last r^j below 2^53 and the first above
    for j in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        top = reductions._iroot((1 << 53) - 1, j)
        assert top**j < 1 << 53 <= (top + 1) ** j
        for base in (top, top + 1):
            for n in (base**j - 1, base**j, base**j + 1):
                assert _exact_power_base(n) == _power_base_all_exponents(n), (base, j, n)
    # an odd n stops at roots below 3: powers of 3, odd and even
    # neighbours of them, and odd and even n on both sides of 2^53
    for j in range(2, 70):
        for n in (3**j - 2, 3**j - 1, 3**j, 3**j + 1, 3**j + 2, 2 * 3**j, 5 * 3**j):
            assert _exact_power_base(n) == _power_base_all_exponents(n), (j, n)
    for n in range((1 << 53) - 40, (1 << 53) + 40):
        assert _exact_power_base(n) == _power_base_all_exponents(n), n
    for j in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        top = reductions._iroot((1 << 53) - 1, j)
        odd = top | 1  # top or top + 1, whichever is odd
        for base in (odd - 2, odd, odd + 2):
            for n in (base**j - 2, base**j, base**j + 2):
                assert _exact_power_base(n) == _power_base_all_exponents(n), (base, j, n)


def test_phi_factoring_determinism():
    got1 = factor_given_phi_multiple(700, 240, random.Random(5))
    got2 = factor_given_phi_multiple(700, 240, random.Random(5))
    assert got1 == got2


def test_base2_chain_is_the_fermat_check():
    # the chain accepts exactly when 2^m = 1 (mod e), for odd and even m,
    # and any factor it finds is a proper divisor of an e with at least two
    # primes: modulo a prime power, 1 has no square roots but +-1
    r = random.Random(23)
    splits = 0
    for e in range(3, 20_001, 2):
        f = factor_trial(e)
        phi = euler_phi(f)
        lam = math.lcm(*((p - 1) * p ** (k - 1) for p, k in f))
        for m in (2 * r.randrange(e) + 1, 2 * r.randrange(1, e), phi, phi * r.randrange(1, 64), phi >> 1, lam):
            g = arith.sqrt1_chain(2, m, e)
            assert (g is not None) == (pow(2, m, e) == 1), (e, m)
            if g is not None and g > 1:
                assert 1 < g < e and e % g == 0 and len(f) > 1, (e, m, g)
                splits += 1
    assert splits > 20_000  # 24,726 of the 59,994 cases split


# --- starred Kronecker recovery --------------------------------------------


def test_recover_examples():
    # exercised cases: squarefree, the 4|N identity branch, the 8|N branch
    assert recover_nu23_star(12, 2, _a(2, 12)) == (1, 0)
    assert recover_nu23_star(8, 2, _a(2, 8)) == (0, 0)
    assert recover_nu23_star(49, 2, _a(2, 49)) == (0, 0)
    assert recover_nu23_star(45, 4, _a(4, 45)) == (0, 1)
    for n in (38, 39, 41, 55):  # squarefree: neither 4 nor 9 divides N
        f = factor_trial(n)
        assert recover_nu23_star(n, 2, _a(2, n)) == (nu2_star(f), nu3_star(f))


def test_recover_is_one_rule_at_small_levels():
    # the identity tests alone decide from N = 2 on, at every even weight
    # up to 400 and at a few far beyond it (60,697 cases)
    ks = [*range(2, 401, 2), 10**8 + 2, 2**40 + 6, 10**12]
    for n in range(2, 301):
        f = factor_trial(n)
        want = local_product(star_local, f)[2:4]
        for k in ks:
            assert recover_nu23_star(n, k, dim_A(k, f)) == want, (n, k)


def test_recover_matches_star_functions_broadly():
    limit = 100_000
    tables = kernels.build_star_tables(0, limit)
    for k in (2, 4, 6):
        dims = kernels.dimension_tables(k, tables)
        for n in range(1, limit + 1):
            a = int(dims.A12[n]) // 12 if n > 1 else 0
            got = recover_nu23_star(n, k, a)
            assert got == (tables.nu2[n], tables.nu3[n]), (k, n)


# --- squarefull part from invariants ----------------------------------------


def test_squarefull_from_invariants_squarefree_level(rng):
    sp = factor_squarefull_from_invariants(11, Fraction(1), 1, rng)
    assert sp.E == 11 and sp.L.value() == 1


@pytest.mark.parametrize(
    "n,e_want,l_want",
    [
        (72, 1, ((2, 3), (3, 2))),
        (700, 7, ((2, 2), (5, 2))),
        (8640, 5, ((2, 6), (3, 3))),
        (12493, 13, ((31, 2),)),
        (2**10, 1, ((2, 10),)),
    ],
)
def test_squarefull_from_invariants(n, e_want, l_want, rng):
    f = factor_trial(n)
    sp = factor_squarefull_from_invariants(n, s0_star(f), nu_inf_star(f), rng)
    assert sp.E == e_want
    assert sp.L.factors == l_want
    assert sp.E * sp.L.value() == n


def test_squarefull_from_invariants_rejects_garbage(rng):
    with pytest.raises(InconsistentInputsError):
        factor_squarefull_from_invariants(72, Fraction(3, 2), 2, rng)
    with pytest.raises(InconsistentInputsError):
        factor_squarefull_from_invariants(72, Fraction(2, 3), 0, rng)
    with pytest.raises((InconsistentInputsError, FactoringFailureError)):
        # true s0* of 72 with a wrong nu_inf*
        factor_squarefull_from_invariants(72, Fraction(2, 3), 7, rng)
    with pytest.raises(InconsistentInputsError):
        # denominator prime does not divide the level squarely
        factor_squarefull_from_invariants(10, Fraction(24, 25), 4, rng)


def test_squarefull_split_validation():
    with pytest.raises(ValueError):
        SquarefullSplit(E=2, L=Factorization(((2, 2),)))  # not coprime
    with pytest.raises(ValueError):
        SquarefullSplit(E=3, L=Factorization(((2, 1),)))  # L not squarefull


# --- two oracle values -------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 72, 700, 8640, 12493, 2**12 * 9 * 35])
def test_two_value_reduction(n, rng):
    f = factor_trial(n)
    sp = factor_squarefull_two_values(n, 2, _a(2, n), 4, _a(4, n), rng)
    assert sp.E * sp.L.value() == n
    assert sp.L.factors == tuple((p, e) for p, e in f if e >= 2)
    assert sp.E == n // sp.L.value()


def test_two_value_reduction_level_one(rng):
    sp = factor_squarefull_two_values(1, 2, 0, 4, 0, rng)
    assert sp.E == 1 and sp.L.value() == 1


def test_two_value_requires_distinct_weights(rng):
    with pytest.raises(ValueError):
        factor_squarefull_two_values(12, 2, 0, 2, 0, rng)


def test_two_value_rejects_lying_oracle(rng):
    with pytest.raises((InconsistentInputsError, FactoringFailureError)):
        factor_squarefull_two_values(72, 2, 1, 4, 99, rng)


def test_linear_solve_matches_star_functions(rng):
    # the solved invariants equal the directly computed ones
    limit = 10_000
    tables = kernels.build_star_tables(0, limit)
    d2 = kernels.dimension_tables(2, tables)
    d4 = kernels.dimension_tables(4, tables)
    for n in range(2, limit + 1):
        a1, a2 = int(d2.A12[n]) // 12, int(d4.A12[n]) // 12
        nu2, nu3 = int(tables.nu2[n]), int(tables.nu3[n])
        a1s = a1 + Fraction(1, 4) * nu2 + Fraction(1, 3) * nu3  # strip c2(2), c3(2)
        a2s = a2 - Fraction(1, 4) * nu2  # strip c2(4); c3(4) = 0
        s0 = 12 * (a2s - a1s) / (2 * n)
        nu_inf = a2s * 1 - a1s * 3
        assert s0 == Fraction(int(tables.ns0[n]), n), n
        assert nu_inf == tables.nu_inf[n], n


# the two-value split as it was computed in Fraction arithmetic, kept as
# the reference for the integer split


def _fraction_from_invariants(N, s0star, nuinfstar, rng):
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    s0 = Fraction(s0star)
    if not 0 < s0 <= 1:
        raise InconsistentInputsError(f"s0* = {s0} outside (0, 1]")
    if nuinfstar < 1:
        raise InconsistentInputsError(f"nu_inf* = {nuinfstar} is not positive")
    nu = nuinfstar
    n_left = N
    pairs = []
    while s0 != 1:
        d = s0.denominator
        fac_d = factor_given_phi_multiple(d, d * nu, rng)
        n_before, peeled = n_left, []
        for p, _ in fac_d:
            e = 0
            while n_left % p == 0:
                n_left //= p
                e += 1
            if e < 2:
                raise InconsistentInputsError(
                    f"prime {p} from the s0* denominator does not divide {N} squarely"
                )
            peeled.append((p, e))
        pairs += peeled
        peel_x, peel_nu, *_ = local_product(star_local, peeled)
        s0 /= Fraction(peel_x, n_before // n_left)
        if not 0 < s0 <= 1:
            raise InconsistentInputsError("residual s0* left (0, 1]")
        if nu % peel_nu != 0:
            raise InconsistentInputsError("nu_inf* not divisible by the peeled part")
        nu //= peel_nu
    if nu != 1:
        raise InconsistentInputsError(f"residual nu_inf* = {nu} after peeling")
    return SquarefullSplit(E=n_left, L=Factorization(tuple(sorted(pairs))))


def _fraction_two_values(N, k1, a1, k2, a2, rng):
    nu23_1 = recover_nu23_star(N, k1, a1)
    nu23_2 = recover_nu23_star(N, k2, a2)
    if nu23_1 != nu23_2:
        raise InconsistentInputsError(
            f"oracle values disagree about the starred Kronecker pair: "
            f"{nu23_1} vs {nu23_2}"
        )
    nu2, nu3 = nu23_1
    u1 = 12 * a1 - twelve_combination(k1, 0, 0, nu2, nu3)
    u2 = 12 * a2 - twelve_combination(k2, 0, 0, nu2, nu3)
    s0 = Fraction(u2 - u1, (k2 - k1) * N)
    nu_inf = Fraction(u2 * (k1 - 1) - u1 * (k2 - 1), 6 * (k2 - k1))
    if nu_inf.denominator != 1 or nu_inf <= 0:
        raise InconsistentInputsError(f"solved nu_inf* = {nu_inf} is not a positive integer")
    if not 0 < s0 <= 1:
        raise InconsistentInputsError(f"solved s0* = {s0} outside (0, 1]")
    return _fraction_from_invariants(N, s0, int(nu_inf), rng)


def _outcome(call, *args):
    try:
        return call(*args)
    except (InconsistentInputsError, FactoringFailureError) as exc:
        return type(exc), str(exc)


_LIES = (-24, -12, -2, -1, 1, 2, 12, 24)


@pytest.fixture(scope="module")
def tables_3k():
    return kernels.build_star_tables(0, 3_000)


@pytest.fixture(scope="module")
def small_values(tables_3k):
    """A(2), A(4) and B(2) at every level up to 3,000, from the sieve."""
    d2 = kernels.dimension_tables(2, tables_3k)
    a4 = kernels.dimension_tables(4, tables_3k).A12 // 12
    return [(int(x), int(y), int(z)) for x, y, z in zip(d2.A12 // 12, a4, d2.B12 // 12)]


def test_integer_split_matches_the_fraction_split(small_values):
    # every N <= 3,000, truthful and with A(2) or A(4) off: the same split,
    # or the same exception type and message, in either order of weights
    cases = 0
    for n in range(2, 3_001):
        a2, a4, _ = small_values[n]
        for v2, v4 in [(a2, a4)] + [(a2 + o, a4) for o in _LIES] + [(a2, a4 + o) for o in _LIES]:
            for args in ((n, 2, v2, 4, v4), (n, 4, v4, 2, v2)):
                want = _outcome(_fraction_two_values, *args, random.Random(n))
                got = _outcome(factor_squarefull_two_values, *args, random.Random(n))
                assert got == want, args
                cases += 1
    assert cases == 2 * 17 * 2_999


def test_lying_values_audit_at_small_levels(small_values):
    # each of A(2), A(4), B(2) off by each lie, at every N <= 3,000: the
    # reduction raises or returns the truth, never a wrong factorization.
    # The counts pin how the lies end; a change of the random stream may
    # move cases between FactoringFailureError and the certified truth.
    # A lie that lands on the true phi(E) under a wrong sharp guess is
    # refused when phi(E) does not fit that guess's facts, and raises
    tally = Counter()
    for n in range(2, 3_001):
        truth = factor_trial(n).factors
        for i in range(3):
            for off in _LIES:
                v = list(small_values[n])
                v[i] += off
                got = _outcome(full_factor_three_values, n, 2, v[0], 4, v[1], 2, v[2], random.Random(n))
                if isinstance(got, Factorization):
                    tally["truth" if got.factors == truth else "wrong"] += 1
                else:
                    tally[got[0].__name__] += 1
    assert tally["wrong"] == 0
    assert tally == {
        "InconsistentInputsError": 46_286,
        "FactoringFailureError": 21_624,
        "truth": 4_066,
    }


# --- full factorization -------------------------------------------------------


@pytest.mark.parametrize(
    "n",
    [1, 2, 97, 11 * 13, 12, 72, 700, 8640, 12493, 2 * 3 * 5 * 49, 4 * 9 * 25 * 77],
)
def test_three_value_reduction(n, rng):
    f = factor_trial(n)
    a1 = _a(2, n) if n > 1 else 0
    a2 = _a(4, n) if n > 1 else 0
    b = _b(2, n) if n > 1 else 0
    got = full_factor_three_values(n, 2, a1, 4, a2, 2, b, rng)
    assert got.factors == f.factors


def test_three_value_reduction_other_b_weights(rng):
    for kb in (4, 6, 12, 16):
        n = 60 * 49
        got = full_factor_three_values(n, 2, _a(2, n), 4, _a(4, n), kb, _b(kb, n), rng)
        assert got.value() == n
        assert got.factors == factor_trial(n).factors


def test_three_value_determinism():
    n = 8640
    args = (n, 2, _a(2, n), 4, _a(4, n), 2, _b(2, n))
    out1 = full_factor_three_values(*args, random.Random(99))
    out2 = full_factor_three_values(*args, random.Random(99))
    assert out1 == out2


def test_three_value_exhausts_on_garbage(rng):
    with pytest.raises((FactoringFailureError, InconsistentInputsError)):
        full_factor_three_values(11 * 13, 2, _a(2, 143), 4, _a(4, 143), 2, 999, rng)


def test_three_value_reduction_at_psi12():
    # psi_12 = p * q is a strong pseudoprime to the twelve bases 2..37; the
    # reduction's primality certificate must not take it for a prime
    p, q = 399165290221, 798330580441
    f = Factorization(((p, 1), (q, 1)))
    args = (p * q, 2, dim_A(2, f), 4, dim_A(4, f), 2, dim_B(2, f))
    assert full_factor_three_values(*args, random.Random(1)).factors == ((p, 1), (q, 1))


def test_outputs_carry_certified_primes(rng):
    got = full_factor_three_values(
        44100, 2, _a(2, 44100), 4, _a(4, 44100), 2, _b(2, 44100), rng
    )
    assert got.value() == 44100
    for p, _ in got:
        assert is_probable_prime(p)


# --- the sharp guesses and the Fermat check of the three-value reduction ------

_PRIMES = [p for p in range(2, 200) if is_probable_prime(p)]


def _reference_sharp_guesses(N, squarefull_part):
    """The walk the three-value reduction made before it pruned its
    guesses: every triple of 0 and +-2^a up to N, for each Mobius value
    the squarefull part allows."""
    vals = [0]
    power = 1
    while power <= N:
        vals.append(power)
        vals.append(-power)
        power <<= 1
    mus = (0,) if squarefull_part > 1 else (1, -1, 0)
    for mu in mus:
        for y in vals:
            for z in vals:
                yield y, z, mu


@lru_cache(maxsize=None)
def _reference_walk(bits, l_above_one):
    # the walk depends on N only through its bit length
    return frozenset(_reference_sharp_guesses((1 << bits) - 1, 2 if l_above_one else 1))


def _omega_max(e):
    """The largest r with p_1 * ... * p_r <= e."""
    r, primorial = 0, 1
    while primorial * _PRIMES[r] <= e:
        primorial *= _PRIMES[r]
        r += 1
    return r


def _split_and_truth(f):
    """The split N = E * L and the true (nu2#, nu3#, mu) of N, from its
    factorization and the sharp local factors."""
    e = math.prod(p for p, k in f if k == 1)
    split = SquarefullSplit(E=e, L=Factorization(tuple((p, k) for p, k in f if k >= 2)))
    local = [sharp_local(p, k) for p, k in f]
    truth = tuple(math.prod(v[i] for v in local) for i in (2, 3, 4))
    return split, truth


def _next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


def _planted_levels(count, seed):
    """Factorizations of levels below 2^48: a planted squarefull part
    (0 to 2 small primes, exponents 2 to 5) times a squarefree cofactor of
    distinct primes of mixed sizes, led by three levels with 11 or 12
    prime factors."""
    r = random.Random(seed)
    out = [
        factor_trial(math.prod(_PRIMES[:12])),  # 2 * 3 * ... * 37
        factor_trial(math.prod(_PRIMES[1:13])),  # 3 * 5 * ... * 41
        factor_trial(4 * 27 * math.prod(_PRIMES[2:11])),
    ]
    while len(out) < count:
        part = {p: r.randint(2, 5) for p in r.sample(_PRIMES[:8], r.randint(0, 2))}
        value = math.prod(p**k for p, k in part.items())
        if value >= 1 << 40:
            continue
        primes = set()
        for _ in range(r.randint(0, 12)):
            room = (1 << 48) // (value * math.prod(primes))
            if room < 2:
                break
            p = _next_prime(r.randrange(2, max(3, min(room, 1 << r.randint(2, 47)))))
            if p <= room and p not in part:
                primes.add(p)
        out.append(Factorization(tuple(sorted({**part, **dict.fromkeys(primes, 1)}.items()))))
    return out


def _omega_of_nonzero(v, E, p, modulus):
    """omega(E) if v can be the nonzero value of nu2# (p = 2, modulus 4)
    or nu3# (p = 3, modulus 3) at the squarefree E, else None.  A nonzero
    value is (-1)^c (-2)^r, with c = [p | E] and r primes q != p, each
    with the local factor -2, so q = -1 mod modulus: then E / p^c = (-1)^r
    mod modulus, and r = 0 exactly when E / p^c = 1."""
    c = int(E % p == 0)
    rest = E // p**c
    r = abs(v).bit_length() - 1
    if abs(v) != 1 << r or v != (-1) ** (c + r) << r:
        return None
    if rest % modulus != (-1) ** r % modulus or (r == 0) != (rest == 1):
        return None
    return c + r


def _obeys_residues(guess, split, top):
    """The guess is consistent with E mod 4, E mod 3, the sharp values
    of L and omega(E) <= top."""
    nu2, nu3, mu = guess
    _, _, y_l, z_l, mu_l = local_product(sharp_local, split.L)
    omegas = set()
    for v, l_value, p, modulus in ((nu2, y_l, 2, 4), (nu3, z_l, 3, 3)):
        if v != 0:
            if l_value == 0:
                return False
            w = _omega_of_nonzero(v // l_value, split.E, p, modulus)
            if w is None or w > top:
                return False
            omegas.add(w)
    if len(omegas) > 1:  # both nonzero: one omega(E)
        return False
    if mu_l == 0:
        return mu == 0
    return mu in (1, -1) and all(mu == (-1) ** w for w in omegas)


def _guess_omega(guess, split):
    """omega(E) as a guess with a nonzero value of E fixes it, read as
    :func:`_obeys_residues` reads it; None when both values are 0."""
    _, _, y_l, z_l, _ = local_product(sharp_local, split.L)
    for v, l_value, p, modulus in ((guess[0], y_l, 2, 4), (guess[1], z_l, 3, 3)):
        if v != 0:
            return _omega_of_nonzero(v // l_value, split.E, p, modulus)
    return None


def test_sharp_guesses_hold_the_true_triple():
    # the pruned guesses always hold the true triple, stay inside the old
    # exhaustive walk, obey E's residues mod 4 and mod 3, never repeat,
    # number at most 2 + 3 max(1, ceil(omega_max / 2)), and after the
    # both-zero group come by increasing omega(E)
    levels = [factor_trial(n) for n in range(1, 30_001)] + _planted_levels(300, 1234)
    for f in levels:
        split, truth = _split_and_truth(f)
        n = f.value()
        guesses = list(_sharp_guesses(split, local_product(sharp_local, split.L)))
        distinct = set(guesses)
        top = _omega_max(split.E)
        assert truth in distinct, n
        assert distinct <= _reference_walk(n.bit_length(), split.L.value() > 1), n
        assert all(_obeys_residues(g, split, top) for g in guesses), n
        assert len(guesses) == len(distinct) <= 2 + 3 * max(1, -(-top // 2)), n
        omegas = [_guess_omega(g, split) for g in guesses]
        zeros = omegas.count(None)
        assert omegas[:zeros] == [None] * zeros, n
        assert omegas[zeros:] == sorted(omegas[zeros:]), n


def _mixed_levels(count, seed):
    """Factorizations of levels below 2^48, alternately uniform and with a
    planted squarefull part (one or two primes below 2^12, exponents 2 to
    5, at most 2^40) times a squarefree cofactor coprime to it."""
    r = random.Random(seed)
    small = [p for p in range(2, 1 << 12) if is_probable_prime(p)]
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            out.append(factor_trial(r.randrange(2, 1 << 48)))
            continue
        part = {p: r.randint(2, 5) for p in r.sample(small, r.randint(1, 2))}
        value = math.prod(p**k for p, k in part.items())
        if value > 1 << 40:
            continue
        cofactor = factor_trial(r.randrange(1, (1 << 48) // value))
        if all(k == 1 and p not in part for p, k in cofactor):
            out.append(Factorization(tuple(sorted({**part, **dict(cofactor)}.items()))))
    return out


@lru_cache(maxsize=None)
def _mixed_cases():
    """(factorization, A(2), A(4), B(2)) for 1,536 seeded levels."""
    return tuple((f, dim_A(2, f), dim_A(4, f), dim_B(2, f)) for f in _mixed_levels(1_536, 2024))


def test_three_value_reduction_on_seeded_levels_below_2_48():
    # truthful values give factor_trial's factorization at every level;
    # the 1,536 reductions take about 0.3 s, so 1.5 s of CPU is a loose
    # budget that still catches a return to a walk of hundreds of guesses
    cases = _mixed_cases()
    spent = 0.0
    for i, (f, a1, a2, b) in enumerate(cases):
        n = f.value()
        t = time.process_time()
        got = full_factor_three_values(n, 2, a1, 4, a2, 2, b, random.Random(i))
        spent += time.process_time() - t
        assert got.factors == f.factors, n
    assert spent < 1.5, spent


def test_each_prime_is_tested_once_per_reduction(monkeypatch):
    # one truthful reduction runs one round of Miller-Rabin bases on each
    # number it tests: the certified primes are not tested again when the
    # factorizations of E, of L and of N are built from them.  Only
    # is_probable_prime reads the chain through arith; the reductions' own
    # chains (the Fermat gate, the split rounds) hold their own binding
    rounds = Counter()
    chain = arith.sqrt1_chain

    def counting(a, m, c):
        rounds[c] += a == 2 and m == c - 1  # every round below psi_13 starts at base 2
        return chain(a, m, c)

    monkeypatch.setattr(arith, "sqrt1_chain", counting)
    for i, (f, a1, a2, b) in enumerate(_mixed_cases()[:200]):
        n = f.value()
        is_probable_prime.cache_clear()  # building f and its values warmed it
        rounds.clear()
        full_factor_three_values(n, 2, a1, 4, a2, 2, b, random.Random(i))
        assert all(p in rounds for p, _ in f if p > 41), n
        assert max(rounds.values(), default=0) <= 1, (n, rounds)


@pytest.mark.parametrize("kb", [2, 4])
def test_true_phi_passes_the_fermat_check(kb, monkeypatch):
    # with every factoring of E's parts refused, the loop hands the
    # factorizer each candidate that passes its filters and the base-2
    # chain: the true phi(E) must be among them, also where E = 2 (N = 2
    # and N = 2 * L).  The squarefull step factors only numbers built from
    # the primes of L, which are coprime to E.
    seen = []
    factor_into = reductions._phi_factor_into

    def refuse_e(c, m, rng, counts):
        if math.gcd(c, split.E) == 1:
            return factor_into(c, m, rng, counts)
        seen.append(m)
        raise FactoringFailureError("refused")

    monkeypatch.setattr(reductions, "_phi_factor_into", refuse_e)
    levels = [2, 6, 2 * 9, 2 * 25, 2 * 4 * 49, 2 * 27 * 121, 2 * 3 * 5 * 7 * 11 * 13 * 17]
    for n in levels + list(range(3, 2_001)):
        split, _ = _split_and_truth(factor_trial(n))
        if split.E == 1:
            continue
        seen.clear()
        with pytest.raises(FactoringFailureError):
            full_factor_three_values(n, 2, _a(2, n), 4, _a(4, n), kb, _b(kb, n), random.Random(n))
        assert len(seen) == len(set(seen)), n  # one refusal per candidate
        assert euler_phi(factor_trial(split.E)) in seen, n


def _squarefree_primes(limit):
    """{E: the primes of E} for every squarefree 1 < E <= limit, from a
    smallest-prime-factor sieve."""
    least = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if least[p] == p:
            for m in range(p * p, limit + 1, p):
                if least[m] == m:
                    least[m] = p
    out = {}
    for e in range(2, limit + 1):
        primes, rest = [], e
        while rest > 1:
            p = least[rest]
            rest //= p
            if primes and primes[-1] == p:
                break
            primes.append(p)
        else:
            out[e] = primes
    return out


def test_sharp_facts_accept_the_true_totient():
    # for every squarefree E <= 10^5 and each squarefull L in {1, 8, 27,
    # 216} coprime to E, which give all four zero/nonzero patterns of
    # nu2#(L) and nu3#(L), the facts of the true triple accept phi(E); a
    # nonzero nu2#(E) fixes v2(phi(E)), so they refuse 2 phi(E), and a
    # nonzero nu3#(E) fixes phi(E) mod 3, so they refuse 3 phi(E)
    patterns = {}
    for l_value in (1, 8, 27, 216):
        _, _, y_l, z_l, _ = local_product(sharp_local, factor_trial(l_value))
        patterns[l_value] = y_l, z_l
    assert {(y != 0, z != 0) for y, z in patterns.values()} == {
        (True, True), (True, False), (False, True), (False, False)
    }
    fits = reductions._fits_sharp_facts
    cases = refused = 0
    for e, primes in _squarefree_primes(100_000).items():
        f = Factorization(tuple((p, 1) for p in primes))
        phi = euler_phi(f)
        _, _, y_e, z_e, _ = local_product(sharp_local, f)
        for l_value, (y_l, z_l) in patterns.items():
            if math.gcd(e, l_value) != 1:
                continue
            nu2, nu3 = y_e * y_l, z_e * z_l
            assert fits(phi, e, y_l, z_l, nu2, nu3), (e, l_value)
            if y_l and y_e:
                assert not fits(2 * phi, e, y_l, z_l, nu2, nu3), (e, l_value)
                refused += 1
            if z_l and z_e:
                assert not fits(3 * phi, e, y_l, z_l, nu2, nu3), (e, l_value)
                refused += 1
            cases += 1
    assert cases > 150_000 and refused > 20_000, (cases, refused)


def test_gate_spends_at_most_three_full_exponentiations(monkeypatch):
    # on the 1,536 seeded levels the Fermat gate spends at most three
    # full-size exponentiations modulo E's odd part per level: base-2
    # chains there outside the factorizer, and powers there whose
    # exponent has more than half the modulus's bits.  A wrong guess that
    # passes the residue facts is checked against one shared power
    spent = Counter()
    state = {"modulus": None, "level": None, "depth": 0}
    chain, factor_into = reductions.sqrt1_chain, reductions._phi_factor_into

    def counting_chain(a, m, c):
        if c == state["modulus"] and state["depth"] == 0:
            spent[state["level"]] += 1
        return chain(a, m, c)

    def counting_pow(base, exp, mod):
        if mod == state["modulus"] and 2 * abs(exp).bit_length() > mod.bit_length():
            spent[state["level"]] += 1
        return pow(base, exp, mod)

    def inside_factorizer(*args):
        state["depth"] += 1
        try:
            return factor_into(*args)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(reductions, "sqrt1_chain", counting_chain)
    monkeypatch.setattr(reductions, "pow", counting_pow, raising=False)
    monkeypatch.setattr(reductions, "_phi_factor_into", inside_factorizer)
    gated = 0
    for i, (f, a1, a2, b) in enumerate(_mixed_cases()):
        e = math.prod(p for p, k in f if k == 1)
        state["modulus"], state["level"] = e >> ((e & -e).bit_length() - 1), i
        gated += state["modulus"] > 1
        assert full_factor_three_values(f.value(), 2, a1, 4, a2, 2, b, random.Random(i)) == f
    assert sum(spent.values()) >= gated > 1_000
    assert max(spent.values()) <= 3, spent.most_common(3)


def _rsa_prime(r):
    """The first probable prime among odd 1024-bit numbers with the top
    bit set, drawn from r."""
    while True:
        p = r.getrandbits(1024) | 1 << 1023 | 1
        if is_probable_prime(p):
            return p


def test_three_value_reduction_at_rsa_scale():
    # N = pq from 1024-bit seeded primes with truthful values.  Seeds 1024
    # (p = q = 11 mod 12, both sharp values of E nonzero) and 3 are the
    # slow ones for a loop that spends a 2048-bit exponentiation on each
    # wrong guess and 64 Miller-Rabin rounds on each prime (3.7-6.7 s on
    # a 2-core Xeon); 2 s of CPU each is a loose bound
    for seed in (1024, 3):
        r = random.Random(seed)
        p, q = sorted((_rsa_prime(r), _rsa_prime(r)))
        f = Factorization(((p, 1), (q, 1)))
        args = (p * q, 2, dim_A(2, f), 4, dim_A(4, f), 2, dim_B(2, f))
        is_probable_prime.cache_clear()
        t = time.process_time()
        got = full_factor_three_values(*args, random.Random(seed))
        spent = time.process_time() - t
        assert got == f, seed
        assert spent < 2.0, (seed, spent)


@pytest.mark.parametrize("kb", [2, 4])
def test_three_value_reduction_every_small_level(kb, tables_3k):
    a2 = kernels.dimension_tables(2, tables_3k).A12 // 12
    a4 = kernels.dimension_tables(4, tables_3k).A12 // 12
    b = kernels.dimension_tables(kb, tables_3k).B12 // 12
    for n in range(2, 3_001):
        got = full_factor_three_values(
            n, 2, int(a2[n]), 4, int(a4[n]), kb, int(b[n]), random.Random(n)
        )
        assert got.factors == factor_trial(n).factors, n


def test_lying_newform_values_never_give_a_wrong_answer():
    # an off B value either raises or still yields the one factorization
    # that recomposes to N with certified primes
    planted = [(f, dim_A(2, f), dim_A(4, f), dim_B(2, f)) for f in _planted_levels(200, 99)]
    for i, (f, a1, a2, b) in enumerate(planted + list(_mixed_cases())):
        n = f.value()
        for off in (-12, -1, 1, 12):
            try:
                got = full_factor_three_values(n, 2, a1, 4, a2, 2, b + off, random.Random(i))
            except (FactoringFailureError, InconsistentInputsError):
                continue
            assert got.value() == n and all(is_probable_prime(p) for p, _ in got), (n, off)
            assert got.factors == f.factors, (n, off)
