"""Probabilistic factoring reductions driven by oracle dimension values.

The black-box discipline is strict: nothing here reads the factorization
of the input level except through the supplied oracle values, O(1)
divisibility checks by 4, 8, 9 and 27, the O(1) residues mod 4 and mod 3
of the squarefree part E once it is known, and trial division by primes
the algorithms themselves discover.  In particular the ground-truth
factorizer is never imported.

The two-value reduction finds the squarefull part L of N and the split
N = E * L, dividing the starred values of each peeled prime power out of
the invariants; the three-value reduction then tries only the sharp
triples possible for that split and for E's residues mod 4 and mod 3 (at
most 20 when E < 2^48) and gates each candidate totient of E with one
Fermat check before the totient-multiple factorizer runs.  Both read
those values of prime powers they found as
:func:`~dimfactor.multfuncs.local_product` of the local factors.  Their
only randomness is the caller's ``random.Random``, and their one work
bound is :data:`SPLIT_ROUNDS`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization, is_probable_prime, kronecker_m3, kronecker_m4, primes_below
from .dimensions import twelve_G
from .errors import FactoringFailureError, InconsistentInputsError
from .multfuncs import local_product, sharp_local, star_local, twelve_combination

# Most random bases _sqrt1_split tries on one composite before it gives
# up.  Against a true totient multiple each base splits with probability
# at least 1/2, so 128 failures in a row happen with probability 2^-128.
SPLIT_ROUNDS = 128

# Starred Kronecker pairs (nu2*, nu3*) for levels up to 37, where the
# identity tests used for larger levels are not yet conclusive.
_SMALL_NU23 = {
    1: (1, 1), 2: (0, -1), 3: (-1, 0), 4: (-1, 0), 5: (1, -1), 6: (0, 0),
    7: (-1, 1), 8: (0, 0), 9: (0, -1), 10: (0, 1), 11: (-1, -1), 12: (1, 0),
    13: (1, 1), 14: (0, -1), 15: (-1, 0), 16: (0, 0), 17: (1, -1), 18: (0, 1),
    19: (-1, 1), 20: (-1, 0), 21: (1, 0), 22: (0, 1), 23: (-1, -1), 24: (0, 0),
    25: (0, 0), 26: (0, -1), 27: (0, 0), 28: (1, 0), 29: (1, -1), 30: (0, 0),
    31: (-1, 1), 32: (0, 0), 33: (1, 0), 34: (0, 1), 35: (-1, -1), 36: (0, 0),
    37: (1, 1),
}


@dataclass(frozen=True)
class SquarefullSplit:
    """N = E * L with E squarefree, L squarefull and gcd(E, L) = 1.

    E's squarefreeness is guaranteed by true invariant inputs; it is not
    independently certified here (that happens when E is factored)."""

    E: int
    L: Factorization

    def __post_init__(self):
        if self.E < 1:
            raise ValueError("squarefree part must be positive")
        if not self.L.is_squarefull():
            raise ValueError("squarefull part has an exponent below 2")
        if math.gcd(self.E, self.L.value()) != 1:
            raise ValueError("parts are not coprime")

    def n(self) -> int:
        return self.E * self.L.value()


# --- factoring d from a totient multiple --------------------------------


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton iteration, exact for any size."""
    if n < 2 or k == 1:
        return n
    x = 1 << ((n.bit_length() - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _exact_power_base(n: int) -> tuple[int, int] | None:
    """(r, j) with r**j == n and j >= 2 minimal, or None.

    The minimal exponent is prime (r**(i*j) is also (r**i)**j), so only
    prime j are tried, until the root drops below 2.  With
    b = n.bit_length(), a root r >= 2 has 2^j <= n < 2^b, so the primes up
    to b hold every such j.  The root is math.isqrt at j = 2; at odd j it
    is the float root, rounded, below 2^53, where n is an exact float and
    n ** (1/j) lies within 1e-9 of any integer j-th root of n, and the
    Newton root from 2^53 on.  Either way ``r**j == n`` decides exactly.
    """
    small = n < 1 << 53
    for j in primes_below(n.bit_length() + 1):
        if j == 2:
            r = math.isqrt(n)
        elif small:
            r = round(n ** (1.0 / j))
        else:
            r = _iroot(n, j)
        if r < 2:
            return None
        if r**j == n:
            return r, j
    return None


def _sqrt1_split(c: int, m: int, rng: random.Random) -> int:
    """A nontrivial proper factor of odd composite non-prime-power c,
    found through a nontrivial square root of 1 along the 2-power chain
    of the exponent m (a multiple of phi(c)).

    A base coprime to c with base**m != 1 (mod c) proves that m is not a
    totient multiple, so that situation aborts immediately.
    """
    t = m
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1
    for _ in range(SPLIT_ROUNDS):
        a = rng.randrange(2, c - 1)
        g = math.gcd(a, c)
        if 1 < g:
            return g  # free split; g < c since a < c
        x = pow(a, t, c)
        if x == 1:
            continue
        reached_one = False
        for _ in range(s):
            y = x * x % c
            if y == 1:
                if x != c - 1:
                    g = math.gcd(x - 1, c)
                    if 1 < g < c:
                        return g
                    g = math.gcd(x + 1, c)
                    if 1 < g < c:
                        return g
                reached_one = True
                break
            x = y
        if not reached_one and x != 1:
            raise FactoringFailureError(
                f"{m} is not a multiple of phi({c}): witness base {a}"
            )
    raise FactoringFailureError(f"failed to split {c} within {SPLIT_ROUNDS} rounds")


def _phi_factor_into(c: int, m: int, rng: random.Random, counts: dict[int, int]) -> None:
    while c % 2 == 0:
        counts[2] = counts.get(2, 0) + 1
        c //= 2
    if c == 1:
        return
    if is_probable_prime(c):
        counts[c] = counts.get(c, 0) + 1
        return
    power = _exact_power_base(c)
    if power is not None:
        r, j = power
        sub: dict[int, int] = {}
        _phi_factor_into(r, m, rng, sub)
        for p, e in sub.items():
            counts[p] = counts.get(p, 0) + e * j
        return
    f = _sqrt1_split(c, m, rng)
    _phi_factor_into(f, m, rng, counts)
    _phi_factor_into(c // f, m, rng, counts)


def factor_given_phi_multiple(d: int, m: int, rng: random.Random) -> Factorization:
    """Complete factorization of d from any multiple m of phi(d).

    Classic construction: random bases are walked along the 2-power chain
    of m to expose nontrivial square roots of 1 modulo composite factors,
    which split d by gcds; prime powers are handled by exact root
    extraction.  The output is verified by recomposition and per-prime
    primality checks before returning.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if d == 1:
        return Factorization(())
    counts: dict[int, int] = {}
    _phi_factor_into(d, m, rng, counts)
    fac = Factorization(tuple(sorted(counts.items())))
    if fac.value() != d:
        raise FactoringFailureError(f"recomposition mismatch while factoring {d}")
    return fac


# --- starred Kronecker values from one oracle value ----------------------


def recover_nu23_star(N: int, k: int, a_value: int) -> tuple[int, int]:
    """(nu2*, nu3*) of N from the single oracle value a_value = A(k, N).

    Uses only divisibility of N by 4, 8, 9 and 27, the squarefree
    characterization, and two exact identity tests on the known value:
    12 * a_value against the closed form at the starred values N would
    have if N/9, or N/4, were squarefree.  Levels up to 37 come from a
    lookup table.
    """
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    if N <= 37:
        return _SMALL_NU23[N]
    a12 = 12 * a_value
    g_equals_a = twelve_G(k, N) == a12  # also checks the weight
    by4, by9 = N % 4 == 0, N % 9 == 0
    if not by4 and not by9:
        # squarefree exactly when G = A here (N >= 38)
        return (kronecker_m4(N), kronecker_m3(N)) if g_equals_a else (0, 0)
    nu2 = nu3 = 0
    for p in (2, 3):
        m, r = divmod(N, p * p)
        if r == 0 and m % p != 0:
            # N's starred values if m is squarefree: p^2's times m's (m, 1, (-4|m), (-3|m))
            x, w, y, z, _ = star_local(p, 2)
            y, z = y * kronecker_m4(m), z * kronecker_m3(m)
            if twelve_combination(k, x * m, w, y, z) == a12:
                nu2, nu3 = nu2 + y, nu3 + z  # y = 0 at p = 3, z = 0 at p = 2
    return nu2, nu3


# --- squarefull part from invariants -------------------------------------


def factor_squarefull_from_invariants(
    N: int, s0star: Fraction, nuinfstar: int, rng: random.Random
) -> SquarefullSplit:
    """SquarefullSplit of N from the true values of the two starred
    invariants.

    Repeatedly factors the denominator of the current s0* value (its
    product with the current nu_inf* value is a totient multiple), peels
    the discovered primes out of N, divides the invariants down by the
    peeled part, and recurses until the residual s0* value is 1.
    """
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    s0 = Fraction(s0star)
    if not 0 < s0 <= 1:
        raise InconsistentInputsError(f"s0* = {s0} outside (0, 1]")
    if nuinfstar < 1:
        raise InconsistentInputsError(f"nu_inf* = {nuinfstar} is not positive")
    nu = nuinfstar
    n_left = N
    pairs: list[tuple[int, int]] = []
    while s0 != 1:
        d = s0.denominator  # > 1 since s0 < 1 in lowest terms
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
        s0 /= Fraction(peel_x, n_before // n_left)  # s0* of the peeled part
        if not 0 < s0 <= 1:
            raise InconsistentInputsError("residual s0* left (0, 1]")
        if nu % peel_nu != 0:
            raise InconsistentInputsError("nu_inf* not divisible by the peeled part")
        nu //= peel_nu
    if nu != 1:
        raise InconsistentInputsError(f"residual nu_inf* = {nu} after peeling")
    return SquarefullSplit(E=n_left, L=Factorization(tuple(sorted(pairs))))


def factor_squarefull_two_values(
    N: int, k1: int, a1: int, k2: int, a2: int, rng: random.Random
) -> SquarefullSplit:
    """SquarefullSplit of N from two oracle values A(k1, N), A(k2, N).

    Recovers the starred Kronecker values from each oracle value, strips
    them off, solves the remaining 2x2 linear system for the two starred
    invariants exactly, and hands those to
    :func:`factor_squarefull_from_invariants`.

    E is squarefree only when both values are truthful: values that
    another factorization of N's shape would give (150 with the values
    of a squarefree 150, E = 150 and L = 1, where the truth is E = 6 and
    L = 5^2) pass every check here, since nothing in them differs.
    :func:`full_factor_three_values` certifies E by factoring it.
    """
    if k1 == k2:
        raise ValueError("the two weights must be distinct")
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    if N == 1:
        # the explicit formula starts at level 2; level 1 splits trivially
        return SquarefullSplit(E=1, L=Factorization(()))
    nu23_1 = recover_nu23_star(N, k1, a1)
    nu23_2 = recover_nu23_star(N, k2, a2)
    if nu23_1 != nu23_2:
        raise InconsistentInputsError(
            f"oracle values disagree about the starred Kronecker pair: "
            f"{nu23_1} vs {nu23_2}"
        )
    nu2, nu3 = nu23_1
    # 12 * A(k_i, N) less its Kronecker terms is (k_i - 1) N s0* - 6 nu_inf*
    u1 = 12 * a1 - twelve_combination(k1, 0, 0, nu2, nu3)
    u2 = 12 * a2 - twelve_combination(k2, 0, 0, nu2, nu3)
    s0 = Fraction(u2 - u1, (k2 - k1) * N)
    nu_inf = Fraction(u2 * (k1 - 1) - u1 * (k2 - 1), 6 * (k2 - k1))
    if nu_inf.denominator != 1 or nu_inf <= 0:
        raise InconsistentInputsError(f"solved nu_inf* = {nu_inf} is not a positive integer")
    if not 0 < s0 <= 1:
        raise InconsistentInputsError(f"solved s0* = {s0} outside (0, 1]")
    return factor_squarefull_from_invariants(N, s0, int(nu_inf), rng)


# --- full factorization from three oracle values --------------------------


def _omega_bound(n: int) -> int:
    """The largest r whose primorial (the product of the first r primes)
    is at most n: a bound on the number of distinct primes dividing n.

    With b = n.bit_length(), the primes up to b are enough: their product
    times the next prime is at least 2^b > n.  That was checked for every
    b < 41, and from 41 on theta(b) > b (1 - 1/ln b) >= b ln 2 (Rosser
    and Schoenfeld, Illinois J. Math. 6 (1962)) already gives it.
    """
    r, primorial = 0, 1
    for p in primes_below(n.bit_length() + 1):
        primorial *= p
        if primorial > n:
            break
        r += 1
    return r


def _nonzero_sharp(E: int, p: int, kron, top: int) -> dict[int, int]:
    """{w: v}: the value v of nu2# (p = 2, kron = (-4|.)) or nu3# (p = 3,
    kron = (-3|.)) at the squarefree E, for each omega(E) = w <= top at
    which that value can be nonzero.

    The local factor at a prime q | E is kron(q) - 1: -1 at q = p, and 0
    or -2 elsewhere.  So a nonzero value is (-1)^c (-2)^r with c = [p | E]
    and every one of the r primes of rest = E / p^c having kron = -1,
    which makes kron(rest) = (-1)^r: the residue of E mod 4 (or 3) fixes
    the parity of r, and r = 0 exactly when rest = 1.
    """
    c = int(E % p == 0)
    rest = E // p if c else E
    rs = [0] if rest == 1 else range(1 if kron(rest) == -1 else 2, top - c + 1, 2)
    return {c + r: (-1) ** c * (-2) ** r for r in rs}


def _sharp_guesses(split: SquarefullSplit):
    """The triples (nu2#(N), nu3#(N), mu(N)) possible for N = E * L.

    E is squarefree and coprime to L, so the sharp values multiply:
    nu2#(N) = nu2#(E) * nu2#(L), and the same for nu3#.

    * nu2#(L) and nu3#(L) are the products of the sharp values at the
      prime powers of L, which the two-value reduction found.  When one
      of them is 0, its coordinate takes the single value 0.
    * nu2#(E) and nu3#(E) are 0 or the values :func:`_nonzero_sharp`
      reads from E mod 4 and E mod 3 for each omega(E) up to
      :func:`_omega_bound` of E, omega_max.  When both are nonzero they
      share one omega(E).
    * mu(N) = (-1)^omega(E) when L = 1, and 0 otherwise; so a nonzero
      value of E fixes mu, and with both values of E zero mu takes
      either sign.

    (The local factors are those of G. Martin, J. Number Theory 112
    (2005).)  The triples with both values of E zero come first (mu = +1
    before -1), then those with only nu2#(E) nonzero, only nu3#(E)
    nonzero and both nonzero, each by increasing omega(E).  Each of the
    last three groups has at most max(1, ceil(omega_max / 2)) triples, so
    there are at most 2 + 3 max(1, ceil(omega_max / 2)): 20 for E < 2^48,
    where omega_max = 12.  Under truthful inputs the true triple is among
    them, and no triple repeats.
    """
    _, _, y_l, z_l, _ = local_product(sharp_local, split.L)
    top = _omega_bound(split.E)
    mu_l = int(split.L.value() == 1)  # mu(N) = mu_l * (-1)^omega(E)
    ys = _nonzero_sharp(split.E, 2, kronecker_m4, top) if y_l else {}
    zs = _nonzero_sharp(split.E, 3, kronecker_m3, top) if z_l else {}
    for mu in (1, -1) if mu_l else (0,):
        yield 0, 0, mu
    for w, y in ys.items():
        yield y_l * y, 0, mu_l * (-1) ** w
    for w, z in zs.items():
        yield 0, z_l * z, mu_l * (-1) ** w
    for w, y in ys.items():
        if w in zs:
            yield y_l * y, z_l * zs[w], mu_l * (-1) ** w


def full_factor_three_values(
    N: int, k1: int, a1: int, k2: int, a2: int, k: int, b_value: int, rng: random.Random
) -> Factorization:
    """Complete factorization of N from A(k1, N), A(k2, N) and B(k, N).

    The squarefull part L comes from the two-value reduction.  For the
    squarefree part E, each sharp Kronecker/Mobius triple possible for
    the split N = E * L and for E mod 4 and E mod 3
    (:func:`_sharp_guesses`, at most 20 when E < 2^48) turns the newform
    dimension into a candidate totient of E (the sharp infinity value
    vanishes as soon as E > 1).  A candidate m is handed to the
    totient-multiple factorizer (Miller's split of E from a multiple of
    phi(E)) only if 2**m = 1 modulo the odd part of E, which the true
    phi(E) always satisfies; so a wrong guess costs one modular
    exponentiation.  A factorization is accepted iff it recomposes to N
    with all factors prime.  Lying values raise FactoringFailureError or
    InconsistentInputsError, unless a guess still yields the certified
    factorization of N.
    """
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    if N == 1:
        return Factorization(())
    split = factor_squarefull_two_values(N, k1, a1, k2, a2, rng)
    if split.E == 1:
        return split.L
    l_sharp = local_product(sharp_local, split.L)[0]  # L * s0#(L)
    e_odd = split.E >> ((split.E & -split.E).bit_length() - 1)  # E without its factors of 2
    tried: set[int] = set()
    for nu2, nu3, mu in _sharp_guesses(split):
        # 12 * b = (k-1) * N * s0#(N) + the rest of the closed form, whose
        # nu_inf# term vanishes since E > 1
        rest = twelve_combination(k, 0, 0, nu2, nu3)
        n_sharp, r = divmod(12 * b_value - rest - (12 * mu if k == 2 else 0), k - 1)
        if r or n_sharp <= 0:
            continue
        cand, r = divmod(n_sharp, l_sharp)  # candidate phi(E)
        if r:
            continue
        if not 1 <= cand < split.E or (split.E > 2 and cand % 2 != 0):
            continue
        if cand in tried:
            continue
        tried.add(cand)
        # phi(e_odd) divides the true candidate phi(E), so it passes
        if e_odd > 1 and pow(2, cand, e_odd) != 1:
            continue
        try:
            fac_e = factor_given_phi_multiple(split.E, cand, rng)
        except FactoringFailureError:
            continue
        merged: dict[int, int] = dict(split.L.factors)
        ok = True
        for p, e in fac_e:
            if p in merged:
                ok = False  # parts must be coprime; a collision means bad inputs
                break
            merged[p] = e
        if not ok:
            continue
        result = Factorization(tuple(sorted(merged.items())))
        if result.value() == N:
            return result
    raise FactoringFailureError(
        f"no sharp-value guess produced a verified factorization of {N}"
    )
