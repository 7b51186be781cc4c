"""Reference functions the tests compare the library against.

Not collected as tests: the test modules import it.  ``euler_phi`` and
``mobius`` are written from their definitions, without the local factors
the library multiplies (``multfuncs.local_product``), so they stay
independent checks of it.
"""

from types import SimpleNamespace

from dimfactor import kernels


def euler_phi(f):
    """Euler's totient of the integer a Factorization represents: the
    product of (p - 1) * p^(e - 1) over its prime powers p^e."""
    phi = 1
    for p, e in f:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(f):
    """The Mobius function of the integer a Factorization represents: 0 if
    a prime divides it twice, else (-1) to the number of its primes."""
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def sharp_tables(lo, hi):
    """The sharp sieve over levels lo..hi as whole tables (index i is level
    lo + i): ``x`` = N*s0#(N), ``w``, ``y``, ``z`` the three other sharp
    values, ``mu`` the Mobius function and ``prime`` whether each level is
    prime."""
    x, w, y, z, mu, prime = kernels._fill(lo, hi, kernels.sharp_blocks(lo, hi))
    return SimpleNamespace(lo=lo, hi=hi, x=x, w=w, y=y, z=z, mu=mu, prime=prime)
