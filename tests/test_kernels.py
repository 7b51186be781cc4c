from fractions import Fraction

import numpy as np
import pytest

from dimfactor import kernels
from dimfactor.arith import factor_trial
from dimfactor import sweeps
from dimfactor.dimensions import dim_A, dim_B, dim_G, dim_H
from dimfactor.errors import InvalidWeightError
from dimfactor.multfuncs import nu2_star, nu3_star, nu_inf_star, s0_star
from dimfactor.sweeps import equality_pairs_at_composites, primality_sweep, trichotomy_sweep

LIMIT = 20_000


@pytest.fixture(scope="module")
def np_tables():
    return kernels.build_star_tables(0, LIMIT)


def _sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def test_star_tables_match_exact_path(np_tables):
    t = np_tables
    for n in list(range(1, 2000)) + [4096, 9973, 19998]:
        f = factor_trial(n)
        assert t.ns0[n] == n * s0_star(f)
        assert t.nu_inf[n] == nu_inf_star(f)
        assert t.nu2[n] == nu2_star(f)
        assert t.nu3[n] == nu3_star(f)
        assert t.mu[n] == f.mobius()


def test_star_tables_match_definitions(np_tables, star_definitions):
    for name, want in star_definitions.items():
        assert np.array_equal(getattr(np_tables, name), want), name


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
    prime = np.zeros(LIMIT + 1, dtype=bool)
    prime[_sieve_primes(LIMIT)] = True
    assert np.array_equal(sharp.prime, prime)


_BUILDERS = (kernels.build_sharp_tables, kernels.build_star_tables)


def _rows(tables):
    return [v for v in vars(tables).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("block", [1000, 4099, 1 << 16])
def test_sharp_windows_match_whole_range(monkeypatch, block):
    # Window slices equal the whole-range values whatever the block size,
    # also when neither the window nor its start lines up with a block;
    # for both builders of the one sieve.
    hi = 150_001
    for build in _BUILDERS:
        monkeypatch.setattr(kernels, "SIEVE_BLOCK", hi + 1)
        whole = build(0, hi)
        monkeypatch.setattr(kernels, "SIEVE_BLOCK", block)
        for lo_w, hi_w in [(0, hi), (2, hi), (2, 2), (2, min(3 * block + 7, hi)), (1, 1), (0, 5),
                           (0, 0), (0, 1), (1, 3), (1, block + 1),
                           (block - 1, block + 1), (65_535, 131_073), (149_000, hi)]:
            win = build(lo_w, hi_w)
            assert (win.lo, win.hi) == (lo_w, hi_w)
            for got, want in zip(_rows(win), _rows(whole), strict=True):
                assert np.array_equal(got, want[lo_w : hi_w + 1]), (build.__name__, lo_w, hi_w)


def test_sharp_tables_reject_bad_range():
    with pytest.raises(ValueError):
        kernels.build_sharp_tables(5, 4)
    with pytest.raises(ValueError):
        kernels.build_sharp_tables(-1, 4)


def test_build_rejects_bad_limit():
    with pytest.raises(ValueError):
        kernels.build_star_tables(5, 4)
    with pytest.raises(ValueError):
        kernels.build_star_tables(-1, 4)


def test_dimension_tables_all_multiples_of_twelve(np_tables):
    dims = kernels.dimension_tables(4, np_tables)
    assert not np.any(dims.A12[1:] % 12)
    assert not np.any(dims.B12[1:] % 12)


def test_dimension_tables_need_levels_from_zero():
    for lo, hi in [(2, 100), (0, 0)]:
        with pytest.raises(ValueError):
            kernels.dimension_tables(2, kernels.build_star_tables(lo, hi))


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
def test_window_sweeps_match_whole_range_tables(np_tables, sweep):
    # a sweep that sieves its window alone reports what one reading the
    # whole-range tables reports
    for lo, hi in [(2, 2), (2, 200), (85, 95), (4_097, 19_999), (19_990, LIMIT)]:
        got, want = sweep(lo, hi, (2, 4, 12)), sweep(lo, hi, (2, 4, 12), np_tables)
        assert (got.checked, got.violations, got.exceptions_observed) == (
            want.checked, want.violations, want.exceptions_observed
        ), (lo, hi)
        assert got.checked == 3 * (hi - lo + 1)


_SWEEPS = {
    "trichotomy_sweep": lambda lo, hi, tables: trichotomy_sweep(lo, hi, (2,), tables),
    "primality_sweep": lambda lo, hi, tables: primality_sweep(lo, hi, (2,), tables),
    "equality_pairs_at_composites": lambda lo, hi, tables: equality_pairs_at_composites(
        lo, hi, 2, tables
    ),
}


@pytest.mark.parametrize("name", list(_SWEEPS))
@pytest.mark.parametrize("have,want", [((0, 15), (10, 20)), ((12, 30), (10, 20)), ((12, 30), (10, 10))])
def test_sweeps_refuse_tables_not_covering_window(name, have, want):
    # tables missing part of the window are refused with both ranges named,
    # not read at a wrapped-around index or broadcast into a numpy error
    with pytest.raises(ValueError, match=r"\[%d, %d\].*\[%d, %d\]" % (*have, *want)):
        _SWEEPS[name](*want, kernels.build_star_tables(*have))
    _SWEEPS[name](*want, kernels.build_star_tables(*want))  # exact cover is accepted


_SWEEPS_AT = {
    "trichotomy_sweep": lambda k: trichotomy_sweep(2, 10**6, (2, k)),
    "primality_sweep": lambda k: primality_sweep(2, 10**6, (k,)),
    "equality_pairs_at_composites": lambda k: equality_pairs_at_composites(2, 10**6, k),
}


@pytest.mark.parametrize("name", list(_SWEEPS_AT))
@pytest.mark.parametrize("k", [3, 0, -2])
def test_sweeps_refuse_bad_weights_before_building_tables(monkeypatch, name, k):
    def refuse(*_):
        raise AssertionError("a bad weight must be refused before any table is built")

    monkeypatch.setattr(sweeps, "build_star_tables", refuse)
    monkeypatch.setattr(sweeps, "build_sharp_tables", refuse)
    with pytest.raises(InvalidWeightError):
        _SWEEPS_AT[name](k)


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
@pytest.mark.parametrize("ks", [(2, 2), (4, 2, 12, 4)])
def test_sweeps_refuse_a_repeated_weight_before_building_tables(monkeypatch, sweep, ks):
    # equality_pairs_at_composites takes a single weight, so only these two
    # can be handed one twice
    def refuse(*_):
        raise AssertionError("a repeated weight must be refused before any table is built")

    monkeypatch.setattr(sweeps, "build_star_tables", refuse)
    monkeypatch.setattr(sweeps, "build_sharp_tables", refuse)
    with pytest.raises(ValueError, match="more than once"):
        sweep(2, 1000, ks)


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
def test_sweeps_past_the_old_weight_cap(sweep):
    # the trichotomies hold at every even weight; these stay inside int64
    rep = sweep(2, 20_000, (2**20 + 2, 10**8 + 2, 10**12))
    assert rep.ok and rep.checked == 3 * 19_999 and rep.exceptions_observed == []


_COMBINATIONS = {
    "twelve_A": lambda tables, lo, hi: kernels.twelve_A(2, tables, lo, hi),
    "twelve_B": lambda tables, lo, hi: kernels.twelve_B(2, tables.sharp, lo, hi),
}


@pytest.mark.parametrize("name", list(_COMBINATIONS))
@pytest.mark.parametrize("want", [(10, 20), (25, 40), (31, 35), (5, 40)])
def test_combinations_refuse_windows_not_covered(name, want):
    # a window reaching past the tables is refused with both ranges named,
    # not sliced into a shorter (or empty) array
    tables = kernels.build_star_tables(12, 30)
    with pytest.raises(ValueError, match=r"\[12, 30\].*\[%d, %d\]" % want):
        _COMBINATIONS[name](tables, *want)
    assert len(_COMBINATIONS[name](tables, 12, 30)) == 19
    assert len(_COMBINATIONS[name](tables, 20, 20)) == 1
