"""Ground truth the benchmark checks the program against.

Nothing here imports dimfactor.  The dimension values come from the
closed formulas written out independently, as products of per-prime-power
local factors (O(omega) per value), so they cost little in set-up and do
not share code with the program's exact path.  At the seed commit they
agree with ``dim_A``/``dim_B`` on every level the workloads generate.
"""

from __future__ import annotations

from fractions import Fraction

# The exception catalogue the paper states.  Sweeps must report exactly the
# pairs that fall inside their range.
SQUAREFREE_EXCEPTIONS = frozenset({(2, 4), (2, 9)})
PRIMALITY_EXCEPTIONS = frozenset(
    {(2, 4), (4, 6)} | {(2, n) for n in (6, 9, 10, 14, 15, 21, 26, 35, 39, 65, 91)}
)


def catalogued(mode: str, lo: int, hi: int, ks) -> list[list[int]]:
    """Exception pairs a sweep over [lo, hi] at weights ks must report,
    sorted as the CLI prints them."""
    table = SQUAREFREE_EXCEPTIONS if mode == "squarefree" else PRIMALITY_EXCEPTIONS
    return sorted([k, n] for k, n in table if k in ks and lo <= n <= hi)


def _kron4(n: int) -> int:
    return (0, 1, 0, -1)[n % 4]


def _kron3(n: int) -> int:
    return (0, 1, -1)[n % 3]


def _twelve_coeffs(k: int) -> tuple[int, int, int]:
    """12*c2, 12*c3 and 12*delta2 for weight k."""
    c2 = 3 if k % 4 == 0 else -3
    c3 = (4, 0, -4)[k % 3]
    return c2, c3, 12 if k == 2 else 0


def _local(p: int, e: int) -> tuple[int, int, int, int]:
    """Starred local factors at p^e: N*s0*, nu_inf*, nu2*, nu3*."""
    if e == 0:
        return 1, 1, 1, 1
    pe = p**e
    if e == 1:
        return pe, 1, (0 if p == 2 else _kron4(p)), (0 if p == 3 else _kron3(p))
    nu2 = -1 if (p, e) == (2, 2) else 0
    nu3 = -1 if (p, e) == (3, 2) else 0
    return pe - pe // (p * p), (p - 1) * p ** ((e - 2) // 2), nu2, nu3


def _combine(k: int, parts) -> int:
    c2, c3, _ = _twelve_coeffs(k)
    s0, ninf, n2, n3 = parts
    return (k - 1) * s0 - 6 * ninf + c2 * n2 + c3 * n3


def _whole(twelve: int) -> int:
    if twelve % 12:
        raise ArithmeticError(f"reference value {twelve}/12 is not an integer")
    return twelve // 12


def ref_A(k: int, factors) -> int:
    """A(k, N) from the factorization ((p, e), ...)."""
    d2 = _twelve_coeffs(k)[2]
    prod = [1, 1, 1, 1]
    for p, e in factors:
        for i, v in enumerate(_local(p, e)):
            prod[i] *= v
    return _whole(_combine(k, prod) + (d2 if not factors else 0))


def ref_B(k: int, factors) -> int:
    """B(k, N): Mobius inversion of A, taken locally.  Each starred function
    f becomes f# with local factor f(p^e) - f(p^(e-1)), plus delta2*mu(N)."""
    d2 = _twelve_coeffs(k)[2]
    prod = [1, 1, 1, 1]
    mu = 1
    for p, e in factors:
        hi, lo = _local(p, e), _local(p, e - 1)
        for i in range(4):
            prod[i] *= hi[i] - lo[i]
        mu = 0 if e > 1 else -mu
    return _whole(_combine(k, prod) + d2 * mu)


def value_of(factors) -> int:
    n = 1
    for p, e in factors:
        n *= p**e
    return n


def is_squarefree(factors) -> bool:
    return all(e == 1 for _, e in factors)


def is_prime(factors) -> bool:
    return len(factors) == 1 and factors[0][1] == 1


def square_divisors(factors, least: int = 27) -> list[int]:
    """Every d >= least with d^2 | N."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**j for d in divs for j in range(e // 2 + 1)]
    return sorted(d for d in divs if d >= least)


def twelve_T(k: int, n: int, a_value: int) -> Fraction:
    """The shifted gap T of the bounds: (k-1)N - 12A plus 3 or 7."""
    return Fraction((k - 1) * n - 12 * a_value + (3 if k % 3 == 1 else 7))


def cubic_positive(k: int, n: int, T: Fraction, L: float, d: int) -> bool:
    """-(6/L) d^3 + T d^2 - (k-1)N > 0, with the float L taken exactly."""
    return -6 * Fraction(d) ** 3 / Fraction(L) + T * d * d - (k - 1) * n > 0


def bounds_ok(k: int, n: int, a_value: int, factors, cert: str, T, L, x1, x0) -> bool:
    """A square-divisor report is correct when its T is the exact gap and
    every d >= 27 with d^2 | N passes the cubic test and lies strictly
    inside the interval (or no such d exists under the other certificate)."""
    if Fraction(T) != twelve_T(k, n, a_value):
        return False
    ds = square_divisors(factors)
    if cert != "INTERVAL":
        return cert == "NO_LARGE_SQUARE_DIVISOR" and not ds
    return all(x1 < d < x0 and cubic_positive(k, n, Fraction(T), L, d) for d in ds)
