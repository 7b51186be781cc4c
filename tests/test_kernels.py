import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from dimfactor import kernels
from dimfactor.arith import factor_trial
from dimfactor.dimensions import dim_A, dim_B, dim_G, dim_H
from dimfactor.multfuncs import nu2_star, nu3_star, nu_inf_star, s0_star

LIMIT = 20_000


@pytest.fixture(scope="module")
def np_tables():
    return kernels.build_star_tables(LIMIT, force="numpy")


@pytest.fixture(scope="module")
def nb_tables():
    if not kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    return kernels.build_star_tables(LIMIT, force="numba")


def test_paths_agree(np_tables, nb_tables):
    for name in ("spf", "ns0", "nu_inf", "nu2", "nu3", "mu"):
        assert np.array_equal(getattr(np_tables, name), getattr(nb_tables, name)), name


def test_mobius_invert_paths_agree(np_tables):
    if not kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    rngv = np.arange(LIMIT + 1, dtype=np.int64) * 7 - 3
    a = kernels.mobius_invert(rngv, np_tables.mu, force="numpy")
    b = kernels.mobius_invert(rngv, np_tables.mu, force="numba")
    assert np.array_equal(a, b)


def test_star_tables_match_exact_path(np_tables):
    t = np_tables
    for n in list(range(1, 2000)) + [4096, 9973, 19998]:
        f = factor_trial(n)
        assert t.ns0[n] == n * s0_star(f)
        assert t.nu_inf[n] == nu_inf_star(f)
        assert t.nu2[n] == nu2_star(f)
        assert t.nu3[n] == nu3_star(f)
        assert t.mu[n] == f.mobius()
        assert t.spf[n] == (f.factors[0][0] if f.factors else 0)


@pytest.mark.parametrize("k", [2, 4, 6, 12, 14, 16, 26])
def test_dimension_tables_match_exact_path(np_tables, k):
    dims = kernels.dimension_tables(k, np_tables)
    for n in list(range(1, 600)) + [1024, 5040, 19997]:
        f = factor_trial(n)
        assert dims.A12[n] == 12 * dim_A(k, f), n
        assert dims.B12[n] == 12 * dim_B(k, f), n
        assert Fraction(int(dims.G12[n]), 12) == dim_G(k, n)
        assert Fraction(int(dims.H12[n]), 12) == dim_H(k, n)


def test_sharp_tables_are_mobius_inverses_of_star_tables(np_tables):
    # the sharp sieve against the reference inversion, for every n <= LIMIT
    t, sharp = np_tables, np_tables.sharp
    assert (sharp.lo, sharp.hi) == (0, LIMIT)
    for star, got in ((t.ns0, sharp.x), (t.nu_inf, sharp.w), (t.nu2, sharp.y), (t.nu3, sharp.z)):
        assert np.array_equal(got, kernels.mobius_invert(star, t.mu))
    unit = np.zeros(LIMIT + 1, dtype=np.int64)
    unit[1] = 1
    assert np.array_equal(sharp.mu, kernels.mobius_invert(unit, t.mu))
    assert np.array_equal(sharp.mu, t.mu)
    idx = np.arange(LIMIT + 1)
    assert np.array_equal(sharp.prime, (t.spf == idx) & (idx >= 2))


def _sharp_rows(sharp):
    return (sharp.x, sharp.w, sharp.y, sharp.z, sharp.mu, sharp.prime)


@pytest.mark.parametrize("block", [1000, 4099, 1 << 16])
def test_sharp_windows_match_whole_range(monkeypatch, block):
    # Window slices equal the whole-range values whatever the block size,
    # also when neither the window nor its start lines up with a block.
    hi = 150_001
    monkeypatch.setattr(kernels, "SIEVE_BLOCK", hi + 1)
    whole = kernels.build_sharp_tables(0, hi)
    monkeypatch.setattr(kernels, "SIEVE_BLOCK", block)
    for lo_w, hi_w in [(0, hi), (2, hi), (2, 2), (2, min(3 * block + 7, hi)), (1, 1), (0, 5),
                       (block - 1, block + 1), (65_535, 131_073), (149_000, hi)]:
        win = kernels.build_sharp_tables(lo_w, hi_w)
        assert (win.lo, win.hi) == (lo_w, hi_w)
        for got, want in zip(_sharp_rows(win), _sharp_rows(whole)):
            assert np.array_equal(got, want[lo_w : hi_w + 1]), (lo_w, hi_w)


def test_sharp_tables_reject_bad_range():
    with pytest.raises(ValueError):
        kernels.build_sharp_tables(5, 4)
    with pytest.raises(ValueError):
        kernels.build_sharp_tables(-1, 4)


def test_dimension_tables_all_multiples_of_twelve(np_tables):
    dims = kernels.dimension_tables(4, np_tables)
    assert not np.any(dims.A12[1:] % 12)
    assert not np.any(dims.B12[1:] % 12)


def test_env_flag_forces_numpy_path():
    env = dict(os.environ, DIMFACTOR_KERNELS="numpy")
    out = subprocess.run(
        [sys.executable, "-c", "from dimfactor import kernels; print(kernels.USING_NUMBA)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_build_rejects_bad_limit():
    with pytest.raises(ValueError):
        kernels.build_star_tables(0)
