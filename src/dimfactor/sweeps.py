"""Range conformance sweeps for the two trichotomies.

A sweep compares the sign pattern of the closed-form-vs-oracle gap over a
whole level range with what the squarefree and primality
characterizations predict, using the exact integer kernel rows: the
starred rows in squarefree mode, the sharp rows in primality mode.  It
sieves the window alone and compares each block as soon as it is sieved,
keeping only counters, violations and catalogued pairs; no sweep reads
whole tables.  A window of at most SMALL_WINDOW = 2^15 levels is sieved
and compared in pure Python as one block, so a sweep that narrow never
imports numpy; a wider one runs in numpy, and is refused with a
ValueError before any block is sieved where numpy cannot be imported.
A numpy block's rows become the gap rows, so ``twelve_combination``
(``twelve_newform`` with -mu as a fifth row) gives its gap at each
weight.  A block of lists is left as it
is: the form is linear, so its coefficients at a weight are its values
at the unit rows, read once, and the gap takes one pass per weight.
Both modes and both forms run one comparison: the gap's sign must be 0
where the characterization holds, +1 elsewhere, and at each pair of the
detectors' catalogue (``SQUAREFREE_EXCEPTIONS`` or
``PRIMALITY_EXCEPTIONS``) the sign catalogued there.  Violations must be
empty; the catalogued pairs in range are reported separately.
"""

from __future__ import annotations

from .arith import KRON12, MAX_SWEEP_HI, _brief, twelve_weight_coefficients
from .detectors import PRIMALITY_EXCEPTIONS, SQUAREFREE_EXCEPTIONS
from .dimensions import level_one_newform_dim
from .kernels import (
    minus_G_rows,
    sharp_blocks,
    small_sharp_block,
    small_star_block,
    star_blocks,
)
from .multfuncs import twelve_combination, twelve_newform

SQUAREFREE_MODE = "squarefree"
PRIME_MODE = "prime"

# Widest window a sweep sieves in pure Python (kernels.small_star_block and
# small_sharp_block); a wider one is sieved in numpy, block by block.  A
# fresh process pays about 0.1 s to import numpy.  Measured as
# `dimfactor sweep` wall time at HI = 10^6 and 10^7, the pure-Python form
# is the faster one up to about 2^15 levels in prime mode and about 2^16
# in squarefree mode (README, "Kernels and benchmark"), so the cap is the
# prime-mode crossover.  A caller that has already imported numpy pays
# the pure-Python cost on windows this small all the same.
SMALL_WINDOW = 1 << 15


class SweepReport:
    """What one sweep checked and found: (k, N, expected sign, sign seen)
    for each violation, and the catalogued exception pairs seen in range,
    behaving as catalogued.  ``vars(report)`` holds every field."""

    def __init__(self, mode: str, lo: int, hi: int, ks: tuple[int, ...]):
        self.mode, self.lo, self.hi, self.ks = mode, lo, hi, ks
        self.checked = len(ks) * (hi - lo + 1)  # every (k, N) pair
        self.violations: list[tuple[int, int, int, int]] = []
        self.exceptions_observed: list[tuple[int, int]] = []

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sweep(lo: int, hi: int, ks) -> None:
    """Refuse a sweep the kernels cannot run exactly and in bounded memory,
    with no weight, at a weight that is not a positive even integer, or at
    a weight given twice, before any block is sieved."""
    if lo < 2 or hi < lo:
        raise ValueError(f"bad range [{_brief(lo)}, {_brief(hi)}]")
    if hi > MAX_SWEEP_HI:
        raise ValueError(f"HI = {_brief(hi)} exceeds the sweep cap {MAX_SWEEP_HI}")
    if not ks:
        raise ValueError("no weight given")
    for i, k in enumerate(ks):
        twelve_weight_coefficients(k)  # raises InvalidWeightError
        if k in ks[:i]:
            raise ValueError(f"weight {k} is given more than once")
        if (k - 1) * hi >= 1 << 62:
            raise ValueError(f"weight {_brief(k)} is too large for exact int64 tables up to {hi}")


def _off_pattern(g, holds) -> set[int]:
    """The indices where sign(g) is not what the characterization predicts
    before the catalogue is read: 0 where ``holds``, +1 elsewhere.  That
    is where g < 0, or where g > 0 exactly when the level holds.  ``g``
    and ``holds`` are both numpy arrays or both lists."""
    if isinstance(g, list):
        return {i for i, (v, h) in enumerate(zip(g, holds)) if v < 0 or (v > 0) == h}
    import numpy as np

    return set(np.flatnonzero((g < 0) | ((g > 0) == holds)).tolist())


def _compare(mode: str, lo: int, hi: int, ks, small, wide, catalogue) -> SweepReport:
    """The sweep of ``mode`` over [lo, hi] at the weights ks, refused by
    :func:`check_sweep` before any block is sieved, and refused as well
    when the window is wider than SMALL_WINDOW and numpy cannot be
    imported.  ``small`` and ``wide`` are the mode's (sieve, gap) pairs
    in pure Python and in numpy; a window of at most SMALL_WINDOW levels
    is one block of the first, a wider one streams the blocks of the
    second.  Compares sign(gap) block by block with what the
    characterization predicts, for every weight: 0 where the block's
    mask holds (N squarefree, or prime), +1 elsewhere, and the
    catalogued sign at each pair of ``catalogue`` in range.
    ``gap(levels, rows)`` gives the block's gap as a function of the
    weight.  A numpy block is a view of buffers the sieve refills, so
    each block is compared in full before the next is drawn.  Violations
    are listed weight by weight, each in level order."""
    ks = tuple(ks)
    check_sweep(lo, hi, ks)
    narrow = hi - lo + 1 <= SMALL_WINDOW
    if not narrow:
        try:
            import numpy  # the wide sieve imports it all the same
        except ImportError:
            raise ValueError(f"a window wider than {SMALL_WINDOW} levels needs numpy, "
                             "which cannot be imported") from None
    sieve, gap = small if narrow else wide
    blocks = [sieve(lo, hi)] if narrow else sieve(lo, hi)
    report = SweepReport(mode, lo, hi, ks)
    pairs = [(k, n, sign) for k in ks
             for (kk, n), sign in catalogue.items() if kk == k and lo <= n <= hi]
    report.exceptions_observed = [(k, n) for k, n, _ in pairs]
    found = {k: [] for k in ks}
    for levels, rows, holds in blocks:
        a, at = int(levels[0]), gap(levels, rows)
        end = a + len(levels)
        for k in ks:
            g = at(k)
            signs = {n - a: sign for kk, n, sign in pairs if kk == k and a <= n < end}
            for i in sorted(signs.keys() | _off_pattern(g, holds)):
                v = int(g[i])
                got, expected = (v > 0) - (v < 0), signs.get(i, 0 if holds[i] else 1)
                if got != expected:
                    found[k].append((k, a + i, expected, got))
    report.violations = [v for k in ks for v in found[k]]
    return report


def _g_minus_a(levels, rows):
    """12 (G - A) at any weight, over one star block, whose rows become
    the gap rows."""
    gaps = minus_G_rows(levels, rows)
    return lambda k: twelve_combination(k, *gaps)


def _h_minus_b(levels, rows):
    """12 (H - B) at any weight, over one sharp block: the closed form of
    B at the gap rows and -mu, less the level-one count.  The block's
    rows become those five rows."""
    minus_G_rows(levels, rows)
    rows[4] *= -1
    return lambda k: twelve_newform(k, *rows) - 12 * level_one_newform_dim(k)


def _small_gap(levels, rows, c, b: int) -> list:
    """Over a block of lists, in one pass: the sum of c[i] times gap row
    i, less b.  The gap rows are (N, 1, (-4|N), (-3|N)) less the block's
    first four rows, and -mu, the block's fifth row negated."""
    c0, c1, c2, c3, c4 = c
    k4, k3 = KRON12
    # the constant terms and those that depend on N mod 12 alone
    by_residue = [c1 + c2 * u + c3 * v - b for u, v in zip(k4, k3)]
    return [c0 * (n - x) + by_residue[n % 12] - c1 * w - c2 * y - c3 * z - c4 * m
            for n, x, w, y, z, m in zip(levels, *rows)]


def _unit_values(form, k: int, width: int) -> list:
    """The coefficients of a linear form in ``width`` rows at weight k:
    its values at the unit rows."""
    return [form(k, *(int(i == j) for j in range(width))) for i in range(width)]


def _small_g_minus_a(levels, rows):
    """:func:`_g_minus_a` over a block of lists, in one pass per weight."""
    return lambda k: _small_gap(levels, rows, [*_unit_values(twelve_combination, k, 4), 0], 0)


def _small_h_minus_b(levels, rows):
    """:func:`_h_minus_b` over a block of lists, in one pass per weight."""
    return lambda k: _small_gap(levels, rows, _unit_values(twelve_newform, k, 5),
                                12 * level_one_newform_dim(k))


def trichotomy_sweep(lo: int, hi: int, ks) -> SweepReport:
    """Check sign(G - A) against the squarefree trichotomy for every
    level in [lo, hi] and every weight in ks.  Only the representation
    count is computed; the newform count plays no part here.  The window
    is sieved and compared block by block, in pure Python when it is at
    most SMALL_WINDOW levels wide."""
    return _compare(SQUAREFREE_MODE, lo, hi, ks, (small_star_block, _small_g_minus_a),
                    (star_blocks, _g_minus_a), SQUAREFREE_EXCEPTIONS)


def primality_sweep(lo: int, hi: int, ks) -> SweepReport:
    """Check sign(H - B) against the primality trichotomy for every
    level in [lo, hi] and every weight in ks.  The window is sieved and
    compared block by block, in pure Python when it is at most
    SMALL_WINDOW levels wide."""
    return _compare(PRIME_MODE, lo, hi, ks, (small_sharp_block, _small_h_minus_b),
                    (sharp_blocks, _h_minus_b), PRIMALITY_EXCEPTIONS)
