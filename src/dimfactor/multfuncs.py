"""The four starred multiplicative functions entering the closed formula
for the representation count, their sharp (Mobius-inverted)
counterparts entering the newform dimension, and the one linear
combination that turns either family into a dimension.

Both families are defined once, by their local factors at a prime power
(:func:`star_local`, :func:`sharp_local`, each with mu(p^e) last);
:func:`local_product` alone multiplies them over a factorization, and the
sieve kernels multiply them over a range.  Every dimension formula of the
package is :func:`twelve_combination` of four such values, scaled by 12
to stay in integers; the newform count adds delta2 * mu to it, in
:func:`twelve_newform` alone.  The functions of N take a
:class:`~dimfactor.arith.Factorization`, never a bare integer: they are
only computable with the factorization in hand, and the signature keeps
that dependency explicit.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Factorization, kronecker_m3, kronecker_m4, twelve_weight_coefficients


def twelve_combination(k: int, x, w, y, z):
    """12 * ((k-1)/12 * x - w/2 + c2(k) * y + c3(k) * z), the closed form
    every dimension count of the package takes, as an integer:

    * A(k, N) at the starred values (N * s0*, nu_inf*, nu2*, nu3*);
    * B(k, N) at the sharp values, plus delta2 * mu(N)
      (:func:`twelve_newform`);
    * G(k, N) at (N, 1, (-4|N), (-3|N)), the starred values of a
      squarefree N, which is why G = A exactly on squarefree levels.

    Works on Python ints and on integer arrays alike.
    """
    t2, t3 = twelve_weight_coefficients(k)
    return (k - 1) * x - 6 * w + t2 * y + t3 * z


def twelve_newform(k: int, x, w, y, z, mu):
    """12 * B(k, N) from the sharp values and mu(N): :func:`twelve_combination`
    plus 12 * delta2 * mu, delta2 = [k == 2].  Linear in its five values;
    works on Python ints and on integer arrays alike."""
    twelve = twelve_combination(k, x, w, y, z)
    return twelve + 12 * mu if k == 2 else twelve


def star_local(p: int, e: int) -> tuple[int, int, int, int, int]:
    """Local factors at p^e of the four starred functions and of mu:
    (p^e * s0*(p^e), nu_inf*(p^e), nu2*(p^e), nu3*(p^e), mu(p^e)), all 1
    at e = 0.

    This is the one definition of the starred functions; each of them is
    the product of its local factor over the prime powers of N.
    """
    if e == 0:
        return 1, 1, 1, 1, 1
    pe = p**e
    if e == 1:
        return pe, 1, kronecker_m4(p), kronecker_m3(p), -1
    return (
        pe - pe // (p * p),
        (p - 1) * p ** ((e - 2) // 2),
        -1 if (p, e) == (2, 2) else 0,
        -1 if (p, e) == (3, 2) else 0,
        0,
    )


def sharp_local(p: int, e: int) -> tuple[int, int, int, int, int]:
    """Local factors at p^e (e >= 1) of the sharp functions
    f#(p^e) = f*(p^e) - f*(p^(e-1)) for the four starred functions of
    :func:`star_local`, followed by mu(p^e).

    Their products over the prime powers of N are N*s0#(N), nu_inf#(N),
    nu2#(N), nu3#(N) and mu(N): the Mobius inverses of the starred
    functions, from which the newform dimension is one linear combination.
    """
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    if e == 1:  # star_local(p, 1) - star_local(p, 0), written out
        return p - 1, 0, kronecker_m4(p) - 1, kronecker_m3(p) - 1, -1
    hi, lo = star_local(p, e), star_local(p, e - 1)
    return hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2], hi[3] - lo[3], hi[4]


def local_product(local, pairs) -> tuple[int, int, int, int, int]:
    """The five entries of ``local(p, e)``, :func:`star_local` or
    :func:`sharp_local`, each multiplied over the (p, e) pairs of a
    Factorization or of any iterable of coprime prime powers."""
    x = w = y = z = mu = 1
    for p, e in pairs:
        lx, lw, ly, lz, lmu = local(p, e)
        x, w, y, z, mu = x * lx, w * lw, y * ly, z * lz, mu * lmu
    return x, w, y, z, mu


def s0_star(f: Factorization) -> Fraction:
    """prod (1 - 1/p^2) over primes dividing N to exponent >= 2.

    Equals 1 exactly when N is squarefree; always lies in (0, 1].
    """
    return Fraction(local_product(star_local, f)[0], f.value())


def nu_inf_star(f: Factorization) -> int:
    """prod (p-1) * p^floor(e/2 - 1) over primes with exponent e >= 2.

    Equals phi(D) for the largest D with D^2 | N; 1 on squarefree N.
    """
    return local_product(star_local, f)[1]


def nu2_star(f: Factorization) -> int:
    """Twisted Kronecker value at -4: (-4|N) on squarefree N,
    -(-4|N/4) when 4 | N with N/4 squarefree, otherwise 0."""
    return local_product(star_local, f)[2]


def nu3_star(f: Factorization) -> int:
    """Twisted Kronecker value at -3: (-3|N) on squarefree N,
    -(-3|N/9) when 9 | N with N/9 squarefree, otherwise 0."""
    return local_product(star_local, f)[3]
