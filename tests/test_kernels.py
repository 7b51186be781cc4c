import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from dimfactor import arith, kernels
from dimfactor.arith import factor_trial
from dimfactor import sweeps
from dimfactor.dimensions import dim_A, dim_B, dim_G, dim_H
from dimfactor.errors import InvalidWeightError
from dimfactor.multfuncs import (
    local_product, nu2_star, nu3_star, nu_inf_star, s0_star, sharp_local, star_local,
)
from dimfactor.sweeps import MAX_SWEEP_HI, primality_sweep, trichotomy_sweep
from reference import mobius, sharp_tables

LIMIT = 20_000


@pytest.fixture(scope="module")
def np_tables():
    return kernels.build_star_tables(0, LIMIT)


@pytest.fixture(scope="module")
def np_sharp():
    return sharp_tables(0, LIMIT)


def _sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def test_star_tables_match_exact_path(np_tables, np_sharp):
    t = np_tables
    for n in list(range(1, 2000)) + [4096, 9973, 19998]:
        f = factor_trial(n)
        assert t.ns0[n] == n * s0_star(f)
        assert t.nu_inf[n] == nu_inf_star(f)
        assert t.nu2[n] == nu2_star(f)
        assert t.nu3[n] == nu3_star(f)
        assert t.squarefree[n] == (mobius(f) != 0)
        assert np_sharp.mu[n] == mobius(f)


def test_star_tables_match_definitions(np_tables, np_sharp, star_definitions):
    for name in ("ns0", "nu_inf", "nu2", "nu3"):
        assert np.array_equal(getattr(np_tables, name), star_definitions[name]), name
    mu = star_definitions["mu"]
    assert np.array_equal(np_tables.squarefree, mu != 0)
    assert np.array_equal(np_sharp.mu, mu)


@pytest.mark.parametrize("k", [2, 4, 6, 12, 14, 16, 26])
def test_dimension_tables_match_exact_path(np_tables, k):
    dims = kernels.dimension_tables(k, np_tables)
    for n in list(range(1, 600)) + [1024, 5040, 19997]:
        f = factor_trial(n)
        assert dims.A12[n] == 12 * dim_A(k, f), n
        assert dims.B12[n] == 12 * dim_B(k, f), n
        assert Fraction(int(dims.G12[n]), 12) == dim_G(k, n)
        assert Fraction(int(dims.H12[n]), 12) == dim_H(k, n)


def test_sharp_tables_are_mobius_inverses_of_star_tables(np_tables, np_sharp, star_definitions):
    # the sharp sieve against the reference inversion, for every n <= LIMIT,
    # inverting with a mu the sieve did not make
    t, sharp = np_tables, np_sharp
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


_BUILDERS = (sharp_tables, kernels.build_star_tables)


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
        sharp_tables(5, 4)
    with pytest.raises(ValueError):
        sharp_tables(-1, 4)


def test_build_rejects_bad_limit():
    with pytest.raises(ValueError):
        kernels.build_star_tables(5, 4)
    with pytest.raises(ValueError):
        kernels.build_star_tables(-1, 4)


def test_whole_tables_are_plain_namespaces(np_tables):
    # the format of the sharp tables in tests/reference.py, with int64 rows
    dims = kernels.dimension_tables(4, np_tables)
    assert type(np_tables) is type(dims) is SimpleNamespace
    assert list(vars(np_tables)) == ["lo", "hi", "ns0", "nu_inf", "nu2", "nu3", "squarefree"]
    assert list(vars(dims)) == ["k", "limit", "G12", "A12", "B12", "H12"]
    assert (dims.k, dims.limit) == (4, np_tables.hi)
    assert np_tables.squarefree.dtype == bool
    for row in (np_tables.ns0, np_tables.nu3, dims.G12, dims.H12):
        assert row.dtype == np.int64 and len(row) == LIMIT + 1


def test_dimension_tables_all_multiples_of_twelve(np_tables):
    dims = kernels.dimension_tables(4, np_tables)
    assert not np.any(dims.A12[1:] % 12)
    assert not np.any(dims.B12[1:] % 12)


def test_dimension_tables_need_levels_from_zero():
    for lo, hi in [(2, 100), (0, 0)]:
        with pytest.raises(ValueError):
            kernels.dimension_tables(2, kernels.build_star_tables(lo, hi))


# for each sweep: its mode, its catalogue, its gap read off the dimension
# tables, and the levels where its characterization holds
_REFERENCE = {
    trichotomy_sweep: (sweeps.SQUAREFREE_MODE, "SQUAREFREE_EXCEPTIONS",
                       lambda d: d.G12 - d.A12, lambda t: t.squarefree),
    primality_sweep: (sweeps.PRIME_MODE, "PRIMALITY_EXCEPTIONS",
                      lambda d: d.H12 - d.B12, lambda t: sharp_tables(t.lo, t.hi).prime),
}


def _reference_report(sweep, tables, lo, hi, ks):
    """The fields of the report ``sweep(lo, hi, ks)`` should give, read off
    whole-range dimension tables: the gap's sign against the mask and the
    catalogue as it stands, weight by weight, each in level order."""
    mode, name, gap, holds = _REFERENCE[sweep]
    catalogue = getattr(sweeps, name)
    violations, observed = [], []
    held = holds(tables)[lo : hi + 1]
    for k in ks:
        got = np.sign(gap(kernels.dimension_tables(k, tables))[lo : hi + 1])
        want = np.where(held, 0, 1)
        for (kk, n), sign in catalogue.items():
            if kk == k and lo <= n <= hi:
                want[n - lo] = sign
                observed.append((k, n))
        violations += [(k, lo + i, int(want[i]), int(got[i])) for i in np.flatnonzero(got != want)]
    return {"mode": mode, "lo": lo, "hi": hi, "ks": tuple(ks), "checked": len(ks) * (hi - lo + 1),
            "violations": violations, "exceptions_observed": observed}


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
def test_window_sweeps_match_whole_range_tables(monkeypatch, np_tables, sweep):
    # a sweep that streams its window block by block reports what the
    # whole-range dimension tables give, field by field and in the same
    # order, also when the window spans many blocks
    ks = (2, 4, 12)
    windows = [(2, 2), (2, 200), (85, 95), (4_097, 19_999), (19_990, LIMIT)]
    want = {(lo, hi): _reference_report(sweep, np_tables, lo, hi, ks) for lo, hi in windows}
    assert any(rep["exceptions_observed"] for rep in want.values())
    small_window = sweeps.SMALL_WINDOW
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", 0)  # every window in numpy
    for block in (64, 1000, 4099, 1 << 16):
        monkeypatch.setattr(kernels, "SIEVE_BLOCK", block)
        for lo, hi in windows:
            assert vars(sweep(lo, hi, ks)) == want[lo, hi], (block, lo, hi)
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", small_window)  # these in pure Python
    for lo, hi in windows:
        assert vars(sweep(lo, hi, ks)) == want[lo, hi], (lo, hi)


@pytest.mark.parametrize(
    "sweep,catalogue",
    [(trichotomy_sweep, "SQUAREFREE_EXCEPTIONS"), (primality_sweep, "PRIMALITY_EXCEPTIONS")],
)
def test_streamed_violations_come_weight_by_weight(monkeypatch, np_tables, sweep, catalogue):
    # a doctored catalogue: one true pair dropped, and signs no level takes
    # at two weights in different blocks of 1000.  The stream lists the
    # violations as the dimension tables give them, weight by weight in the
    # order given and each in level order, so the CLI's first 50 stay the
    # same.  The window is sieved in pure Python, then in numpy blocks.
    doctored = dict(getattr(sweeps, catalogue))
    del doctored[(2, 9)]
    doctored |= {(2, 17_777): -1, (4, 5_003): -1, (2, 3_001): -1, (4, 2_500): -1}
    monkeypatch.setattr(sweeps, catalogue, doctored)
    monkeypatch.setattr(kernels, "SIEVE_BLOCK", 1000)
    want = _reference_report(sweep, np_tables, 2, LIMIT, (4, 2, 12))
    assert [v[:3] for v in want["violations"]] == [
        (4, 2_500, -1), (4, 5_003, -1), (2, 9, 1), (2, 3_001, -1), (2, 17_777, -1)
    ]
    assert (2, 9) not in want["exceptions_observed"]
    assert (4, 5_003) in want["exceptions_observed"]
    assert LIMIT - 1 <= sweeps.SMALL_WINDOW
    assert vars(sweep(2, LIMIT, (4, 2, 12))) == want
    monkeypatch.setattr(sweeps, "SMALL_WINDOW", 0)
    assert vars(sweep(2, LIMIT, (4, 2, 12))) == want


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
def test_small_blocks_match_the_numpy_blocks(monkeypatch, small, blocks):
    # the pure-Python sieve gives the numpy sieve's levels, rows and mask,
    # level 0 skipped alike.  Each numpy block is read as it is drawn, since
    # its arrays are views of buffers the next block refills; at 1000
    # levels a block, windows of several blocks, the last one shorter or
    # not, show a buffer left stale by the block before.
    width = sweeps.SMALL_WINDOW
    windows = [(0, 5), (1, 1), (2, 2), (0, width - 1), (MAX_SWEEP_HI - 999, MAX_SWEEP_HI)]
    _check_small_blocks(small, blocks, windows)
    monkeypatch.setattr(kernels, "SIEVE_BLOCK", 1000)
    _check_small_blocks(small, blocks, [(MAX_SWEEP_HI - 2999, MAX_SWEEP_HI), (0, 3000),
                                        (2, 4_321), (999_001, 1_003_500)])


def _check_small_blocks(small, blocks, windows):
    for lo, hi in windows:
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
    # sweep is one block, whatever the window's width.  That block is the
    # sieve's reused buffers (levels, rest, column indices, five rows: 64 B a
    # level) with, in turn, the scatter's temporaries over at most about
    # half a block of entries (about 30 B a level) and the gap at one
    # weight with the combination's temporaries: under 112 B for each
    # level of a block
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
    assert peak(10**6) < 112 * kernels.SIEVE_BLOCK


_SWEEPS_AT = {
    "trichotomy_sweep": lambda k: trichotomy_sweep(2, 10**6, (2, k)),
    "primality_sweep": lambda k: primality_sweep(2, 10**6, (k,)),
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
@pytest.mark.parametrize("ks", [(2, 2), (4, 2, 12, 4), ()])
def test_sweeps_refuse_a_repeated_weight_before_building_tables(monkeypatch, sweep, ks):
    # a repeated weight, or none at all (which would sieve every block and
    # compare nothing), is refused before either form of the sieve runs
    def refuse(*_):
        raise AssertionError("a repeated or missing weight must be refused before any table is built")

    for name in ("star_blocks", "sharp_blocks", "small_star_block", "small_sharp_block"):
        monkeypatch.setattr(sweeps, name, refuse)
    with pytest.raises(ValueError, match="more than once" if ks else "no weight"):
        sweep(2, 1000, ks)


_LONG = 10**4000
_PAST_LIMIT = 10**5000  # past the limit on converting an int to a string


def _refuse(message):
    raise ValueError(message)


@pytest.mark.parametrize("refused, digits", [
    (lambda: sweeps.check_sweep(_LONG, 2, (2,)), 4001),
    (lambda: sweeps.check_sweep(2, _LONG, (2,)), 4001),
    (lambda: sweeps.check_sweep(2, 100, (_LONG,)), 4001),
    (lambda: kernels.small_star_block(_LONG, 2), 4001),
    (lambda: kernels.small_sharp_block(_LONG, 3), 4001),
    (lambda: next(kernels.star_blocks(_LONG, 2)), 4001),
    (lambda: next(kernels.sharp_blocks(_LONG, 3)), 4001),
    (lambda: kernels.small_star_block(_PAST_LIMIT, 2), 5001),
    (lambda: sweeps.check_sweep(2, _PAST_LIMIT, (2,)), 5001),
    (lambda: _refuse(arith._brief(_PAST_LIMIT)), 5001),
], ids=["bad-range", "cap", "weight", "small-star", "small-sharp", "star", "sharp",
        "small-star-past-limit", "cap-past-limit", "brief-past-limit"])
def test_range_errors_name_long_integers_briefly(refused, digits):
    # a 4,001-digit bound or weight is named by its digit count and its
    # first and last digits, so the error stays one short line; so is a
    # number past the limit on converting an int to a string
    with pytest.raises(ValueError) as info:
        refused()
    assert f"a {digits}-digit number 10000...00000" in str(info.value)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("sweep", [trichotomy_sweep, primality_sweep])
def test_sweeps_past_the_old_weight_cap(sweep):
    # the trichotomies hold at every even weight; these stay inside int64
    rep = sweep(2, 20_000, (2**20 + 2, 10**8 + 2, 10**12))
    assert rep.ok and rep.checked == 3 * 19_999 and rep.exceptions_observed == []


_HIGH_WINDOWS = [(10**9, 10**9 + 1_999), (10**12, 10**12 + 1_999)]


@pytest.fixture(scope="module")
def high_factorizations():
    return {n: factor_trial(n) for lo, hi in _HIGH_WINDOWS for n in range(lo, hi + 1)}


def _star_column(f):
    x, w, y, z, mu = local_product(star_local, f)
    return x, w, y, z, abs(mu)


@pytest.mark.parametrize("block", [kernels.SIEVE_BLOCK, 1000])
@pytest.mark.parametrize("blocks,column,holds", [
    (kernels.sharp_blocks, partial(local_product, sharp_local),
     lambda f: len(f) == 1 and f.is_squarefree()),
    (kernels.star_blocks, _star_column, lambda f: f.is_squarefree()),
], ids=["sharp", "star"])
def test_high_windows_match_the_exact_path(monkeypatch, high_factorizations, block,
                                           blocks, column, holds):
    # far above every stride prime, where almost every prime goes in
    # through the scatter: each level's rows are the local factors
    # multiplied over its factorization (the star rows end in |mu|), and
    # its mask is primality (sharp) or squarefreeness (star).  The windows
    # hold levels with p^2 | N and levels two scattered primes divide.
    f = high_factorizations
    scattered = [[(p, e) for p, e in f[n] if p > kernels.STRIDE_BOUND] for n in f]
    assert any(len(pes) >= 2 for pes in scattered)
    assert any(e >= 2 for pes in scattered for _, e in pes)
    monkeypatch.setattr(kernels, "SIEVE_BLOCK", block)
    for lo, hi in _HIGH_WINDOWS:
        seen = []
        for levels, rows, mask in blocks(lo, hi):
            for n, col, m in zip(levels.tolist(), rows.T.tolist(), mask.tolist()):
                assert (tuple(col), m) == (column(f[n]), holds(f[n])), n
                seen.append(n)
        assert seen == list(range(lo, hi + 1))


@pytest.mark.parametrize("local,min_e,blocks,small", [
    (sharp_local, 1, "sharp_blocks", "small_sharp_block"),
    (star_local, 2, "star_blocks", "small_star_block"),
], ids=["sharp", "star"])
@pytest.mark.parametrize("lo,hi", [(2, 3), (2, 1_000), (989_001, 999_000), (10**12, 10**12 + 100)])
def test_the_prime_power_table_holds_only_the_local_factors_read(monkeypatch, local, min_e,
                                                                 blocks, small, lo, hi):
    # one table for every path: a column (p^e, *local(p, e)) for each prime
    # p <= sqrt(hi) and each e >= min_e with p^e <= hi, each prime's from
    # its first column on, and local is never asked for an exponent below
    # min_e, neither here nor by either form of the sieve
    calls = []

    def recorded(p, e):
        calls.append((p, e))
        return local(p, e)

    want = [(p, e) for p in _sieve_primes(math.isqrt(hi))
            for e in range(min_e, hi.bit_length()) if p**e <= hi]
    primes, columns = kernels._prime_powers(hi, recorded, min_e)
    assert calls == want
    assert columns == [(p**e, *local(p, e)) for p, e in want]
    assert primes == [(p, p**min_e, i) for i, (p, e) in enumerate(want) if e == min_e]
    calls.clear()
    monkeypatch.setattr(kernels, local.__name__, recorded)
    for _ in getattr(kernels, blocks)(lo, hi):
        pass
    getattr(kernels, small)(lo, hi)
    assert calls == 2 * want
