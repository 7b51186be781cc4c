"""Range conformance sweeps for the two trichotomies.

A sweep compares the sign pattern of the closed-form-vs-oracle gap over a
whole level range with what the squarefree and primality
characterizations predict, using the exact integer kernel rows: the
starred rows in squarefree mode, the sharp rows in primality mode.  It
sieves the window alone and compares each block as soon as it is sieved,
keeping only counters, violations and catalogued pairs, unless tables are
passed in, which it reads as one block.  Both
modes run one comparison: the gap's sign must be 0 where the
characterization holds, +1 elsewhere, and at each pair of the detectors'
catalogue (``SQUAREFREE_EXCEPTIONS`` or ``PRIMALITY_EXCEPTIONS``) the
sign catalogued there.  Violations must be empty; the catalogued pairs
in range are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import twelve_weight_coefficients
from .detectors import PRIMALITY_EXCEPTIONS, SQUAREFREE_EXCEPTIONS
from .dimensions import level_one_newform_dim
from .kernels import StarTables, check_covers, minus_G_rows, sharp_blocks, star_blocks, table_block
from .multfuncs import twelve_combination

SQUAREFREE_MODE = "squarefree"
PRIME_MODE = "prime"

# Largest level a sweep accepts: the range the kernels' int64 exactness
# note covers.  A sweep streams its window, so its memory is one block.
MAX_SWEEP_HI = 10**7


@dataclass
class SweepReport:
    mode: str
    lo: int
    hi: int
    ks: tuple[int, ...]
    checked: int
    violations: list[tuple[int, int, int, int]] = field(default_factory=list)
    # catalogued exception pairs seen in range, behaving as catalogued
    exceptions_observed: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sweep(lo: int, hi: int, ks) -> None:
    """Refuse a sweep the kernels cannot run exactly and in bounded memory,
    at a weight that is not a positive even integer, or at a weight given
    twice, before any table is built."""
    if lo < 2 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    if hi > MAX_SWEEP_HI:
        raise ValueError(f"HI = {hi} exceeds the sweep cap {MAX_SWEEP_HI}")
    for i, k in enumerate(ks):
        twelve_weight_coefficients(k)  # raises InvalidWeightError
        if k in ks[:i]:
            raise ValueError(f"weight {k} is given more than once")
        if (k - 1) * hi >= 1 << 62:
            raise ValueError(f"weight {k} is too large for exact int64 tables up to {hi}")


def _compare(report: SweepReport, blocks, gap, catalogue) -> SweepReport:
    """Compare sign(gap) block by block with what the characterization
    predicts, for every weight of the report: 0 where the block's mask
    holds (N squarefree, or prime), +1 elsewhere, and the catalogued sign
    at each pair of ``catalogue`` in range.  ``gap(levels, rows)`` gives
    the block's gap as a function of the weight.  Violations are listed
    weight by weight, each in level order."""
    import numpy as np

    lo, hi = report.lo, report.hi
    pairs = [(k, n, sign) for k in report.ks
             for (kk, n), sign in catalogue.items() if kk == k and lo <= n <= hi]
    report.exceptions_observed = [(k, n) for k, n, _ in pairs]
    found = {k: [] for k in report.ks}
    for levels, rows, holds in blocks:
        a, at = int(levels[0]), gap(levels, rows)
        for k in report.ks:
            got = np.sign(at(k))
            expected = np.where(holds, 0, 1)
            for kk, n, sign in pairs:
                if kk == k and a <= n < a + len(levels):
                    expected[n - a] = sign
            for i in np.flatnonzero(got != expected):
                found[k].append((k, a + int(i), int(expected[i]), int(got[i])))
            report.checked += len(levels)
    report.violations = [v for k in report.ks for v in found[k]]
    return report


def _g_minus_a(levels, rows):
    """12 (G - A) at any weight, over one star block."""
    gaps = minus_G_rows(levels, rows)
    return lambda k: twelve_combination(k, *gaps)


def _h_minus_b(levels, rows):
    """12 (H - B) at any weight, over one sharp block: G less the closed
    form at the sharp rows, less the level-one count and delta2 * mu."""
    gaps = minus_G_rows(levels, rows)
    return lambda k: twelve_combination(k, *gaps) - 12 * (
        level_one_newform_dim(k) + (rows[4] if k == 2 else 0)
    )


def trichotomy_sweep(
    lo: int, hi: int, ks, tables: StarTables | None = None
) -> SweepReport:
    """Check sign(G - A) against the squarefree trichotomy for every
    level in [lo, hi] and every weight in ks.  Only the representation
    count is computed; the newform count plays no part here.  Without
    ``tables`` the window is sieved and compared block by block."""
    ks = tuple(ks)
    check_sweep(lo, hi, ks)
    blocks = star_blocks(lo, hi) if tables is None else [table_block(tables, lo, hi)]
    report = SweepReport(mode=SQUAREFREE_MODE, lo=lo, hi=hi, ks=ks, checked=0)
    return _compare(report, blocks, _g_minus_a, SQUAREFREE_EXCEPTIONS)


def _sharp_window(lo: int, hi: int, tables: StarTables | None):
    """The sharp blocks covering [lo, hi]: the sharp tables of ``tables``
    as one block when given, otherwise the window sieved block by block."""
    if tables is None:
        return sharp_blocks(lo, hi)
    check_covers(tables, lo, hi)
    return [table_block(tables.sharp, lo, hi)]


def primality_sweep(
    lo: int, hi: int, ks, tables: StarTables | None = None
) -> SweepReport:
    """Check sign(H - B) against the primality trichotomy for every
    level in [lo, hi] and every weight in ks.  Without ``tables`` the
    window is sieved and compared block by block."""
    ks = tuple(ks)
    check_sweep(lo, hi, ks)
    report = SweepReport(mode=PRIME_MODE, lo=lo, hi=hi, ks=ks, checked=0)
    return _compare(report, _sharp_window(lo, hi, tables), _h_minus_b, PRIMALITY_EXCEPTIONS)


def equality_pairs_at_composites(
    lo: int, hi: int, k: int, tables: StarTables | None = None
) -> list[int]:
    """Composite levels in [lo, hi] where H(k, .) equals B(k, .), i.e.
    the observed equality exceptions at weight k."""
    check_sweep(lo, hi, (k,))
    out = []
    for levels, rows, prime in _sharp_window(lo, hi, tables):
        eq = _h_minus_b(levels, rows)(k) == 0
        out += levels[eq & ~prime].tolist()
    return out
