import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dimfactor import kernels
from dimfactor.arith import factor_trial
from dimfactor import sweeps
from dimfactor.dimensions import dim_A, dim_B, dim_G, dim_H
from dimfactor.errors import InvalidWeightError
from dimfactor.multfuncs import nu2_star, nu3_star, nu_inf_star, s0_star
from dimfactor.sweeps import (
    MAX_SWEEP_HI,
    equality_pairs_at_composites,
    primality_sweep,
    trichotomy_sweep,
)

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
        assert t.squarefree[n] == (f.mobius() != 0)
        assert t.sharp.mu[n] == f.mobius()


def test_star_tables_match_definitions(np_tables, star_definitions):
    for name in ("ns0", "nu_inf", "nu2", "nu3"):
        assert np.array_equal(getattr(np_tables, name), star_definitions[name]), name
    mu = star_definitions["mu"]
    assert np.array_equal(np_tables.squarefree, mu != 0)
    assert np.array_equal(np_tables.sharp.mu, mu)


@pytest.mark.parametrize("k", [2, 4, 6, 12, 14, 16, 26])
def test_dimension_tables_match_exact_path(np_tables, k):
    dims = kernels.dimension_tables(k, np_tables)
    for n in list(range(1, 600)) + [1024, 5040, 19997]:
        f = factor_trial(n)
        assert dims.A12[n] == 12 * dim_A(k, f), n
        assert dims.B12[n] == 12 * dim_B(k, f), n
        assert Fraction(int(dims.G12[n]), 12) == dim_G(k, n)
        assert Fraction(int(dims.H12[n]), 12) == dim_H(k, n)


def test_sharp_tables_are_mobius_inverses_of_star_tables(np_tables, star_definitions):
    # the sharp sieve against the reference inversion, for every n <= LIMIT,
    # inverting with a mu the sieve did not make
    t, sharp = np_tables, np_tables.sharp
    mu = star_definitions["mu"]
    assert (sharp.lo, sharp.hi) == (0, LIMIT) and len(mu) == LIMIT + 1
    for star, got in ((t.ns0, sharp.x), (t.nu_inf, sharp.w), (t.nu2, sharp.y), (t.nu3, sharp.z)):
        assert np.array_equal(got, kernels.mobius_invert(star, mu))
    unit = np.zeros(LIMIT + 1, dtype=np.int64)
    unit[1] = 1
    assert np.array_equal(sharp.mu, kernels.mobius_invert(unit, mu))
    assert np.array_equal(sharp.mu, mu)
    assert np.array_equal(t.squarefree, mu != 0)
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


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep, equality_pairs_at_composites])
def test_window_sweeps_match_whole_range_tables(monkeypatch, np_tables, sweep):
    # a sweep that streams its window block by block reports what one
    # reading the whole-range tables as one block reports, field by field
    # and in the same order, also when the window spans many blocks
    def run(lo, hi, tables=None):
        if sweep is equality_pairs_at_composites:
            return [sweep(lo, hi, k, tables) for k in (2, 4, 12)]
        rep = sweep(lo, hi, (2, 4, 12), tables)
        assert rep.checked == 3 * (hi - lo + 1)
        return vars(rep)

    windows = [(2, 2), (2, 200), (85, 95), (4_097, 19_999), (19_990, LIMIT)]
    small_window = sweeps.SMALL_WINDOW
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", 0)  # every window in numpy
    for block in (64, 1000, 4099, 1 << 16):
        monkeypatch.setattr(kernels, "SIEVE_BLOCK", block)
        for lo, hi in windows:
            assert run(lo, hi) == run(lo, hi, np_tables), (block, lo, hi)
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", small_window)  # these in pure Python
    for lo, hi in windows:
        assert run(lo, hi) == run(lo, hi, np_tables), (lo, hi)


@pytest.mark.parametrize(
    "sweep,catalogue",
    [(trichotomy_sweep, "SQUAREFREE_EXCEPTIONS"), (primality_sweep, "PRIMALITY_EXCEPTIONS")],
)
def test_streamed_violations_come_weight_by_weight(monkeypatch, np_tables, sweep, catalogue):
    # a doctored catalogue: one true pair dropped, and signs no level takes
    # at two weights in different blocks of 1000.  The stream lists the
    # violations as the one-block read does, weight by weight in the order
    # given and each in level order, so the CLI's first 50 stay the same.
    # The window is sieved in pure Python, then in numpy blocks.
    doctored = dict(getattr(sweeps, catalogue))
    del doctored[(2, 9)]
    doctored |= {(2, 17_777): -1, (4, 5_003): -1, (2, 3_001): -1, (4, 2_500): -1}
    monkeypatch.setattr(sweeps, catalogue, doctored)
    monkeypatch.setattr(kernels, "SIEVE_BLOCK", 1000)
    want = sweep(2, LIMIT, (4, 2, 12), np_tables)
    assert [v[:3] for v in want.violations] == [
        (4, 2_500, -1), (4, 5_003, -1), (2, 9, 1), (2, 3_001, -1), (2, 17_777, -1)
    ]
    assert (2, 9) not in want.exceptions_observed and (4, 5_003) in want.exceptions_observed
    assert LIMIT - 1 <= sweeps.SMALL_WINDOW
    assert vars(sweep(2, LIMIT, (4, 2, 12))) == vars(want)
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", 0)
    assert vars(sweep(2, LIMIT, (4, 2, 12))) == vars(want)


def _small_windows():
    """Windows a sweep sieves in pure Python: seeded ones of width 1 and
    SMALL_WINDOW, and windows ending at MAX_SWEEP_HI; with their weights."""
    rng = random.Random(2026_10_19)
    width = sweeps.SMALL_WINDOW
    out = [(lo, lo, (2, 4, 12)) for lo in (rng.randrange(2, 10**6), rng.randrange(10**6, 10**7))]
    out.append(((lo := rng.randrange(2, MAX_SWEEP_HI - width)), lo + width - 1, (2, 4)))
    out += [(MAX_SWEEP_HI - w + 1, MAX_SWEEP_HI, (2, 14)) for w in (1, 999, width)]
    out.append((2, 200, (2, 4, 6, 12, 14, 16)))  # every catalogued pair
    out.append(((lo := rng.randrange(2, 4 * 10**6)), lo + 4_999, (10**12,)))
    return out


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
def test_small_windows_match_the_numpy_path(monkeypatch, sweep):
    # the pure-Python sieve and comparison report exactly what the numpy
    # blocks report, field by field
    windows = _small_windows()
    small = [vars(sweep(lo, hi, ks)) for lo, hi, ks in windows]
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", 0)
    assert small == [vars(sweep(lo, hi, ks)) for lo, hi, ks in windows]
    assert any(rep["exceptions_observed"] for rep in small)


def test_off_pattern_reads_lists_and_arrays_alike():
    # every sign at a level where the characterization holds and at one
    # where it does not: off are -1 anywhere, +1 where it holds, 0 where not
    g, holds = [-5, 0, 7, -5, 0, 7], [True, True, True, False, False, False]
    assert sweeps._off_pattern(g, holds) == {0, 2, 3, 4}
    assert sweeps._off_pattern(np.array(g, dtype=np.int64), np.array(holds)) == {0, 2, 3, 4}


@pytest.mark.parametrize("small,blocks", [(kernels.small_star_block, kernels.star_blocks),
                                          (kernels.small_sharp_block, kernels.sharp_blocks)])
def test_small_blocks_match_the_numpy_blocks(small, blocks):
    # the pure-Python sieve gives the numpy sieve's levels, rows and mask,
    # level 0 skipped alike
    width = sweeps.SMALL_WINDOW
    for lo, hi in [(0, 5), (1, 1), (2, 2), (0, width - 1), (MAX_SWEEP_HI - 999, MAX_SWEEP_HI)]:
        levels, rows, mask = small(lo, hi)
        got = [list(levels), [list(r) for r in rows], list(mask)]
        want = [[], [[] for _ in range(5)], []]
        for block in blocks(lo, hi):
            want[0] += block[0].tolist()
            for row, part in zip(want[1], block[1].tolist()):
                row += part
            want[2] += block[2].tolist()
        assert got == want, (lo, hi)


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
def test_sweep_memory_does_not_grow_with_the_window(sweep):
    # numpy reports its allocations to tracemalloc: the peak of a streamed
    # sweep is one block, whatever the window's width
    def peak(hi):
        tracemalloc.start()
        try:
            assert sweep(2, hi, (2, 4)).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep(2, 2 * 10**5, (2, 4))
    small, large = peak(2 * 10**5), peak(8 * 10**5)
    assert abs(large - small) < 1 << 20, (small, large)


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

    monkeypatch.setattr(sweeps, "star_blocks", refuse)
    monkeypatch.setattr(sweeps, "sharp_blocks", refuse)
    with pytest.raises(InvalidWeightError):
        _SWEEPS_AT[name](k)


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
@pytest.mark.parametrize("ks", [(2, 2), (4, 2, 12, 4)])
def test_sweeps_refuse_a_repeated_weight_before_building_tables(monkeypatch, sweep, ks):
    # equality_pairs_at_composites takes a single weight, so only these two
    # can be handed one twice
    def refuse(*_):
        raise AssertionError("a repeated weight must be refused before any table is built")

    monkeypatch.setattr(sweeps, "star_blocks", refuse)
    monkeypatch.setattr(sweeps, "sharp_blocks", refuse)
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
