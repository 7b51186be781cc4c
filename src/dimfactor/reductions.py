"""Probabilistic factoring reductions driven by oracle dimension values.

The black-box discipline is strict: nothing here reads the factorization
of the input level except through the supplied oracle values, O(1)
divisibility checks by 4, 8, 9 and 27, the O(1) residues mod 4 and mod 3
of the squarefree part E once it is known, and trial division by primes
the algorithms themselves discover.  In particular the ground-truth
factorizer is never imported.

The two-value reduction reads the starred Kronecker pair from each value
by one rule at every level N >= 2 (:func:`recover_nu23_star` says why
the identity tests decide even below 38), finds the squarefull part L of
N and the split N = E * L, dividing the starred values of each peeled
prime power out of the invariants; the three-value reduction then tries
only the sharp triples possible for that split and for E's residues mod
4 and mod 3 (at most 20 when E < 2^48), by increasing omega(E).  Each
candidate totient m of E must first fit the O(1) facts its triple
implies about phi(E) (its 2-adic valuation, its residue mod 3), then
pass the base-2 chain of m modulo E's odd part (``arith.sqrt1_chain``,
the chain Miller-Rabin walks along n - 1), which accepts exactly when
2^m = 1 there.  Once one candidate m1 has failed that gate, a later m is
checked against the one power 2^m1 times the small power 2^(m - m1), so
a level spends at most three full-size exponentiations at the gate; on
the true guess the chain is the first split round of the
totient-multiple factorizer.  Both read those values of
prime powers they found as :func:`~dimfactor.multfuncs.local_product` of
the local factors, and both hold their rationals as reduced
numerator/denominator pairs.  Their only randomness is the caller's
``random.Random``, and their one work bound is :data:`SPLIT_ROUNDS`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .arith import (
    Factorization,
    FrozenRecord,
    is_probable_prime,
    kronecker_m3,
    kronecker_m4,
    primes_below,
    sqrt1_chain,
)
from .dimensions import twelve_G
from .errors import FactoringFailureError, InconsistentInputsError
from .multfuncs import local_product, sharp_local, star_local, twelve_combination, twelve_newform

# Most random bases _sqrt1_split tries on one composite before it gives
# up.  Against a true totient multiple each base splits with probability
# at least 1/2, so 128 failures in a row happen with probability 2^-128.
SPLIT_ROUNDS = 128

class SquarefullSplit(FrozenRecord):
    """N = E * L with E squarefree, L squarefull and gcd(E, L) = 1.

    E's squarefreeness is guaranteed by true invariant inputs; it is not
    independently certified here (that happens when E is factored)."""

    __slots__ = ("E", "L")

    def __init__(self, E: int, L: Factorization):
        if E < 1:
            raise ValueError("squarefree part must be positive")
        if not L.is_squarefull():
            raise ValueError("squarefull part has an exponent below 2")
        if math.gcd(E, L.value()) != 1:
            raise ValueError("parts are not coprime")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "L", L)


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
    prime j are tried, until the root drops below the least possible
    base: 2, or 3 when n is odd, since an odd power has an odd root.
    With b = n.bit_length(), a root r >= 2 has 2^j <= n < 2^b, so the
    primes up to b hold every such j; an odd n needs only j <= log_3 n,
    10 prime exponents instead of 15 below 2^48.  The root is math.isqrt
    at j = 2; at odd j it is the float root, rounded, below 2^53, where n
    is an exact float and n ** (1/j) lies within 1e-9 of any integer j-th
    root of n, and the Newton root from 2^53 on.  Either way
    ``r**j == n`` decides exactly.
    """
    small = n < 1 << 53
    least = 2 + (n & 1)
    for j in primes_below(n.bit_length() + 1):
        if j == 2:
            r = math.isqrt(n)
        elif small:
            r = round(n ** (1.0 / j))
        else:
            r = _iroot(n, j)
        if r < least:
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
    for _ in range(SPLIT_ROUNDS):
        a = rng.randrange(2, c - 1)
        g = math.gcd(a, c)
        if 1 < g:
            return g  # free split; g < c since a < c
        g = sqrt1_chain(a, m, c)
        if g is None:
            raise FactoringFailureError(
                f"{m} is not a multiple of phi({c}): witness base {a}"
            )
        if g > 1:
            return g
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
    have if N/9, or N/4, were squarefree.  The one rule holds from N = 2:
    where neither 4 nor 9 divides N, G = A exactly when N is squarefree
    (every such N < 10 is, and the characterization's exception pairs
    (2, 4) and (2, 9) have 4 or 9 dividing N).  Where p^2 exactly divides
    N and N/p^2 is not squarefree, the test for p could pass only if the
    assumed starred values (x_h, w_h, y_h, z_h) and the true ones gave
    (k-1)(x_h - x_t) = 6(w_h - w_t) - t2 dy - t3 dz (d: assumed less
    true, (t2, t3) = ``twelve_weight_coefficients(k)``) with x_h > x_t;
    below 38 only N = 36 has such a p, where the two sides differ by 3k
    or 3k + 6 at p = 2 and by 8(k-1) - t3 at p = 3, never by 0.
    """
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    if N == 1:
        return 1, 1
    a12 = 12 * a_value
    g_equals_a = twelve_G(k, N) == a12  # also checks the weight
    by4, by9 = N % 4 == 0, N % 9 == 0
    if not by4 and not by9:
        # squarefree exactly when G = A here
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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator (den != 0)."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


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
    return _peel_squarefull(N, s0.numerator, s0.denominator, nuinfstar, rng)


def _peel_squarefull(N: int, num: int, den: int, nu: int, rng: random.Random) -> SquarefullSplit:
    """The loop of :func:`factor_squarefull_from_invariants`, with
    s0* = num/den in lowest terms, 0 < num <= den, and nu_inf* = nu >= 1."""
    n_left = N
    pairs: list[tuple[int, int]] = []
    while den != 1:  # s0* = 1 exactly when its reduced denominator is 1
        fac_d = factor_given_phi_multiple(den, den * nu, rng)
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
        # divide by the peeled part's s0*, peel_x / (n_before // n_left)
        num, den = _reduced(num * (n_before // n_left), den * peel_x)
        if num > den:
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
    nu_num, nu_den = u2 * (k1 - 1) - u1 * (k2 - 1), 6 * (k2 - k1)
    nu_inf, r = divmod(nu_num, nu_den)
    if r or nu_inf <= 0:
        raise InconsistentInputsError(
            f"solved nu_inf* = {Fraction(nu_num, nu_den)} is not a positive integer"
        )
    num, den = _reduced(u2 - u1, (k2 - k1) * N)
    if not 0 < num <= den:
        raise InconsistentInputsError(f"solved s0* = {Fraction(num, den)} outside (0, 1]")
    return _peel_squarefull(N, num, den, nu_inf, rng)


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


def _sharp_guesses(split: SquarefullSplit, l_sharp: tuple[int, int, int, int, int]):
    """The triples (nu2#(N), nu3#(N), mu(N)) possible for N = E * L, given
    l_sharp = ``local_product(sharp_local, split.L)``.

    E is squarefree and coprime to L, so the sharp values multiply:
    nu2#(N) = nu2#(E) * nu2#(L), and the same for nu3#.

    * nu2#(L) and nu3#(L), entries 2 and 3 of l_sharp, are the products
      of the sharp values at the prime powers of L, which the two-value
      reduction found.  When one of them is 0, its coordinate takes the
      single value 0.
    * nu2#(E) and nu3#(E) are 0 or the values :func:`_nonzero_sharp`
      reads from E mod 4 and E mod 3 for each omega(E) up to
      :func:`_omega_bound` of E, omega_max.  When both are nonzero they
      share one omega(E).
    * mu(N) = (-1)^omega(E) when L = 1, and 0 otherwise; so a nonzero
      value of E fixes mu, and with both values of E zero mu takes
      either sign.

    (The local factors are those of G. Martin, J. Number Theory 112
    (2005).)  The triples with both values of E zero come first (mu = +1
    before -1), then the others by increasing omega(E), since a level
    with few primes is the likelier: at each omega(E), only nu2#(E)
    nonzero, only nu3#(E) nonzero, then both.  Each of those three kinds
    has at most max(1, ceil(omega_max / 2)) triples, so there are at
    most 2 + 3 max(1, ceil(omega_max / 2)): 20 for E < 2^48, where
    omega_max = 12.  Under truthful inputs the true triple is among
    them, and no triple repeats.
    """
    _, _, y_l, z_l, mu_l = l_sharp  # mu_l = mu(L), so mu(N) = mu_l * (-1)^omega(E)
    top = _omega_bound(split.E)
    ys = _nonzero_sharp(split.E, 2, kronecker_m4, top) if y_l else {}
    zs = _nonzero_sharp(split.E, 3, kronecker_m3, top) if z_l else {}
    for mu in (1, -1) if mu_l else (0,):
        yield 0, 0, mu
    for w in sorted(ys.keys() | zs.keys()):
        mu = mu_l * (-1) ** w
        if w in ys:
            yield y_l * ys[w], 0, mu
        if w in zs:
            yield 0, z_l * zs[w], mu
            if w in ys:
                yield y_l * ys[w], z_l * zs[w], mu


def _fits_sharp_facts(m: int, E: int, y_l: int, z_l: int, nu2: int, nu3: int) -> bool:
    """Whether m fits what the guess nu2#(N) = nu2, nu3#(N) = nu3 says
    about phi(E), for the squarefree E > 1 and y_l = nu2#(L),
    z_l = nu3#(L).

    Where y_l != 0 the guess fixes nu2#(E) = nu2 / y_l, and where
    z_l != 0 it fixes nu3#(E) = nu3 / z_l.  By the local factors of
    :func:`_nonzero_sharp`, with c = [2 | E]:

    * nu2#(E) = +-2^r: every odd prime q of E is 3 mod 4, so q - 1 is
      twice an odd number and v2(phi(E)) = r = omega(E) - c exactly.
      nu2#(E) = 0: a prime of E is 1 mod 4, so 4 | phi(E).
    * nu3#(E) = +-2^r: every prime q != 3 of E is 2 mod 3, so q - 1 is
      1 mod 3 and phi(E) = 2^[3 | E] (mod 3).  nu3#(E) = 0: a prime of E
      is 1 mod 3, so 3 | phi(E).
    * A nonzero value fixes omega(E) = w, and each of E's w - c odd
      primes q has 2 | q - 1, so 2^(w - c) | phi(E); where nu2#(E) is
      nonzero its exact valuation already says so.
    """
    c = 1 - (E & 1)
    if y_l:
        y = abs(nu2 // y_l)
        if (m & -m != y) if y else m % 4:
            return False
    if z_l:
        z = abs(nu3 // z_l)
        if not z:
            return m % 3 == 0
        b = int(E % 3 == 0)
        w = b + z.bit_length() - 1
        return m % 3 == 1 + b and m % (1 << (w - c)) == 0
    return True


def full_factor_three_values(
    N: int, k1: int, a1: int, k2: int, a2: int, k: int, b_value: int, rng: random.Random
) -> Factorization:
    """Complete factorization of N from A(k1, N), A(k2, N) and B(k, N).

    The squarefull part L comes from the two-value reduction.  For the
    squarefree part E, each sharp Kronecker/Mobius triple possible for
    the split N = E * L and for E mod 4 and E mod 3
    (:func:`_sharp_guesses`, at most 20 when E < 2^48, by increasing
    omega(E)) turns the newform dimension into a candidate totient of E
    (the sharp infinity value vanishes as soon as E > 1).  A candidate m
    must fit the O(1) facts its triple implies about phi(E)
    (:func:`_fits_sharp_facts`: the power of 2 in m, and m mod 3), and
    goes on to the totient-multiple factorizer (Miller's split of E from
    a multiple of phi(E)) only if 2**m = 1 modulo the odd part of E,
    which the true phi(E) always satisfies.  That check is
    ``arith.sqrt1_chain`` at base 2.  After the first candidate m1 fails
    it, the power P = 2**m1 is kept, and a later m is checked as
    P * 2**(m - m1) = 1, where m - m1 is as small as the sharp terms of
    B; so the gate spends at most the failed chain, P and the chain of a
    passing m in full-size exponentiations, unless a passing wrong m then
    fails to factor E.  On a passing guess the chain is the factorizer's
    first split round: where it meets a nontrivial square root of 1, its
    gcd splits the odd part, which then needs neither a primality test
    nor a random base to split.  E's parts are factored into one count
    of primes with L's, so N's factorization is built once; it recomposes
    to N with every factor certified prime by construction.  Lying values
    raise FactoringFailureError or InconsistentInputsError, unless a
    guess still yields the certified factorization of N.
    """
    split = factor_squarefull_two_values(N, k1, a1, k2, a2, rng)
    if split.E == 1:
        return split.L
    l_sharp = local_product(sharp_local, split.L)  # L * s0#(L) first
    _, _, y_l, z_l, _ = l_sharp
    e_odd = split.E >> ((split.E & -split.E).bit_length() - 1)  # E without its factors of 2
    tried: set[int] = set()
    power = None  # 2**m1 mod e_odd, once the gate has refused m1
    for nu2, nu3, mu in _sharp_guesses(split, l_sharp):
        # 12 * b = (k-1) * N * s0#(N) + the rest of the closed form, whose
        # nu_inf# term vanishes since E > 1
        rest = twelve_newform(k, 0, 0, nu2, nu3, mu)
        n_sharp, r = divmod(12 * b_value - rest, k - 1)
        if r or n_sharp <= 0:
            continue
        cand, r = divmod(n_sharp, l_sharp[0])  # candidate phi(E)
        if r:
            continue
        if not 1 <= cand < split.E or (split.E > 2 and cand % 2 != 0):
            continue
        if cand in tried or not _fits_sharp_facts(cand, split.E, y_l, z_l, nu2, nu3):
            continue
        tried.add(cand)
        if power is not None and power * pow(2, cand - m1, e_odd) % e_odd != 1:
            continue
        # phi(e_odd) divides the true candidate phi(E), so it passes
        g = sqrt1_chain(2, cand, e_odd) if e_odd > 1 else 1
        if g is None:
            m1, power = cand, pow(2, cand, e_odd)
            continue
        # g, e_odd // g and E's power of 2 multiply to E, which is coprime
        # to L, so no prime repeats; g = 1 leaves the odd part whole
        counts = dict(split.L.factors)
        try:
            for part in (g, e_odd // g, split.E // e_odd):
                _phi_factor_into(part, cand, rng, counts)
        except FactoringFailureError:
            continue
        return Factorization(tuple(sorted(counts.items())))
    raise FactoringFailureError(
        f"no sharp-value guess produced a verified factorization of {N}"
    )
