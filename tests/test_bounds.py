import math
from fractions import Fraction

import numpy as np
import pytest

from dimfactor import kernels
from dimfactor.arith import factor_trial
from dimfactor.bounds import (
    INTERVAL,
    NO_LARGE_SQUARE_DIVISOR,
    compute_T,
    cubic_margin,
    cubic_positive,
    curly_L,
    square_divisor_bounds,
)
from dimfactor.dimensions import DefaultOracle, dim_delta
from dimfactor.errors import DomainError, InternalInconsistencyError
from dimfactor.multfuncs import nu_inf_star, s0_star

_ORACLE = DefaultOracle()


def _a(k, n):
    return _ORACLE.query_A(k, n).value


def test_compute_T_example():
    assert compute_T(2, 9, 0) == (9, 16)


def test_compute_T_shift_depends_on_weight_mod_three():
    # +3 exactly when the -3 coefficient vanishes, +7 otherwise
    for k, shift in ((4, 3), (10, 3), (16, 3), (2, 7), (6, 7), (8, 7), (12, 7)):
        t0, t = compute_T(k, 1000, _a(k, 1000))
        assert t - t0 == shift


def test_T_shift_is_tight_at_small_weights():
    # with a shift of 3 at weight 6 the invariant inequality would fail,
    # e.g. at level 7; the chosen shift keeps it exact
    t0, t = compute_T(6, 7, _a(6, 7))
    assert t0 == -1 and t == 6
    assert t >= 6 * nu_inf_star(factor_trial(7))


def test_T0_close_to_scaled_gap():
    for n in (9, 12, 100, 729, 12493, 44100):
        f = factor_trial(n)
        for k in (2, 4, 6, 12):
            t0, _ = compute_T(k, n, _a(k, n))
            assert abs(t0 - 12 * dim_delta(k, f)) <= 13


def test_T_inequality_against_star_invariants():
    # T >= (k-1) N (1 - s0*) + 6 nu_inf*, exactly
    for n in range(2, 5000):
        f = factor_trial(n)
        s0, ni = s0_star(f), nu_inf_star(f)
        for k in (2, 4, 6):
            _, t = compute_T(k, n, _a(k, n))
            assert t >= (k - 1) * n * (1 - s0) + 6 * ni, (k, n)


def test_curly_L_value():
    # sqrt(12493) ~ 111.77, loglog ~ 1.551
    assert curly_L(12493) == pytest.approx(4.3785, abs=5e-4)
    assert curly_L(10**6) > 0


def test_curly_L_monotone_from_729():
    vals = [curly_L(n) for n in range(729, 5000, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_curly_L_domain_error():
    for n in (1, 2, 7):
        with pytest.raises(DomainError):
            curly_L(n)
    curly_L(8)  # smallest level where loglog(sqrt(N)) > 0


def test_bounds_worked_example():
    n = 12493  # 13 * 31^2
    a = _a(2, n)
    rep = square_divisor_bounds(2, n, a)
    assert rep.certificate == INTERVAL
    assert (rep.T0, rep.T) == (193, 200)
    assert rep.x1 < 31 < rep.x0
    assert cubic_positive(2, n, rep.T, rep.curly_L, 31)
    # Cardano vs companion-matrix roots
    coeffs = [-6.0 / rep.curly_L, float(rep.T), 0.0, -(2 - 1) * n]
    roots = np.sort(np.roots(coeffs).real)
    assert roots[0] <= 0 <= roots[1] <= roots[2]
    assert rep.x1 == pytest.approx(roots[1], rel=1e-9)
    assert rep.x0 == pytest.approx(roots[2], rel=1e-9)


def test_bounds_smallest_admissible_divisor():
    n = 3**6  # d = 27
    rep = square_divisor_bounds(2, n, _a(2, n))
    assert rep.certificate == INTERVAL
    assert rep.x1 < 27 < rep.x0
    assert cubic_positive(2, n, rep.T, rep.curly_L, 27)


def test_bounds_no_divisor_certificate_on_squarefree():
    for n in (1009, 2026, 10007):
        rep = square_divisor_bounds(2, n, _a(2, n))
        assert rep.certificate == NO_LARGE_SQUARE_DIVISOR
        assert rep.theta is None and rep.x1 is None


def test_bounds_at_the_certificate_boundary():
    # the depth rounds to exactly 2 here, while sqrt(depth / 2) formed from
    # N / t rounds one ulp above 1: the arcsine must still get 1
    n = 7455462640652134197895124018929659574711713985326367559613840309357897
    a = 6834174087264456348070530350685521276819071153161100028212184098250860
    rep = square_divisor_bounds(12, n, a)
    assert rep.certificate == INTERVAL and rep.theta == math.pi


def test_bounds_rejects_small_levels():
    with pytest.raises(DomainError):
        square_divisor_bounds(2, 728, 0)


def test_bounds_lying_oracle_detected():
    # an absurdly large count drives T negative, which is impossible
    with pytest.raises(InternalInconsistencyError):
        square_divisor_bounds(2, 12493, 10**9)


def test_amgm_floor_on_divisor_carrying_levels():
    # whenever some d >= 27 has d^2 | N, T exceeds the cube-root floor
    for n, k in ((729, 2), (12493, 2), (12493, 4), (27**2 * 5, 2), (1024 * 981, 4)):
        _, t = compute_T(k, n, _a(k, n))
        L = curly_L(n)
        assert float(t) ** 3 * L * L > 243 * (k - 1) * n, (n, k)


def test_containment_small_range():
    # every d >= 27 with d^2 | N <= 60000 sits strictly inside the interval
    limit = 60_000
    tables = kernels.build_star_tables(0, limit)
    dims = {k: kernels.dimension_tables(k, tables) for k in (2, 4)}
    pairs = []
    for d in range(27, int(limit**0.5) + 1):
        for n in range(d * d, limit + 1, d * d):
            pairs.append((n, d))
    assert pairs
    for n, d in pairs:
        for k in (2, 4):
            a = int(dims[k].A12[n]) // 12
            rep = square_divisor_bounds(k, n, a)
            assert rep.certificate == INTERVAL, (k, n)
            assert rep.x1 < d < rep.x0, (k, n, d)
            assert cubic_margin(k, n, rep.T, rep.curly_L, d) > 0


def test_cubic_margin_exactness():
    # the margin is an exact rational in the float's binary value
    m = cubic_margin(2, 729, Fraction(16), 0.5, 27)
    assert m == -6 * Fraction(27**3) / Fraction(0.5) + 16 * 729 - 729
    assert isinstance(m, Fraction)
