import random

import numpy as np
import pytest

from dimfactor.dimensions import DefaultOracle

DEFINITIONS_LIMIT = 20_000


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture(scope="session")
def oracle():
    return DefaultOracle()


@pytest.fixture(scope="session")
def star_definitions():
    """N*s0*, nu_inf*, nu2*, nu3* and mu for every N <= DEFINITIONS_LIMIT
    (index N, with 0 at index 0), from the definitions in the multfuncs
    docstrings, computed without the local factors the library reads."""
    limit = DEFINITIONS_LIMIT
    n = np.arange(limit + 1, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    primes = set(np.flatnonzero(flags).tolist())
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    phi = n.copy()
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        phi[p::p] -= phi[p::p] // p
    ns0 = n.copy()
    root = np.ones(limit + 1, dtype=np.int64)  # largest D with D^2 | n
    for d in range(2, int(limit**0.5) + 1):
        root[d * d :: d * d] = d
        if d in primes:
            ns0[d * d :: d * d] = ns0[d * d :: d * d] // (d * d) * (d * d - 1)
    sf = mu != 0
    kron4, kron3 = np.array([0, 1, 0, -1]), np.array([0, 1, -1])
    nu2 = np.where(sf, kron4[n % 4], 0)
    nu3 = np.where(sf, kron3[n % 3], 0)
    nu2[4::4] = np.where(sf[1 : limit // 4 + 1], -kron4[n[1 : limit // 4 + 1] % 4], 0)
    nu3[9::9] = np.where(sf[1 : limit // 9 + 1], -kron3[n[1 : limit // 9 + 1] % 3], 0)
    nu_inf = phi[root]
    nu_inf[0] = 0
    return {"ns0": ns0, "nu_inf": nu_inf, "nu2": nu2, "nu3": nu3, "mu": mu}
