"""Range conformance sweeps for the two trichotomies.

A sweep compares the sign pattern of the closed-form-vs-oracle gap over a
whole level range with what the squarefree and primality
characterizations predict, using the exact integer kernel tables: the
starred tables in squarefree mode, the sharp tables in primality mode,
each sieved over the window alone unless tables are passed in.  Both
modes run one comparison: the gap's sign must be 0 where the
characterization holds, +1 elsewhere, and at each pair of the detectors'
catalogue (``SQUAREFREE_EXCEPTIONS`` or ``PRIMALITY_EXCEPTIONS``) the
sign catalogued there.  Violations must be empty; the catalogued pairs
in range are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .arith import twelve_weight_coefficients
from .detectors import PRIMALITY_EXCEPTIONS, SQUAREFREE_EXCEPTIONS
from .dimensions import level_one_newform_dim
from .kernels import (
    SharpTables,
    StarTables,
    build_sharp_tables,
    build_star_tables,
    check_covers,
    twelve_A,
    twelve_B,
    twelve_G,
)

if TYPE_CHECKING:
    import numpy as np

SQUAREFREE_MODE = "squarefree"
PRIME_MODE = "prime"

# Largest level a sweep accepts: the range the kernels' int64 exactness
# note covers.  Tables at the cap take several hundred megabytes.
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


def _compare(report: SweepReport, holds: np.ndarray, gap, catalogue) -> SweepReport:
    """Compare sign(gap(k)) over the report's levels with what the
    characterization predicts, for every weight of the report: 0 where
    ``holds`` (N squarefree, or prime), +1 elsewhere, and the catalogued
    sign at each pair of ``catalogue`` in range."""
    import numpy as np

    lo, hi = report.lo, report.hi
    for k in report.ks:
        got = np.sign(gap(k))
        expected = np.where(holds, 0, 1)
        for (kk, n), sign in catalogue.items():
            if kk == k and lo <= n <= hi:
                expected[n - lo] = sign
                report.exceptions_observed.append((k, n))
        bad = np.flatnonzero(got != expected)
        for i in bad:
            report.violations.append((k, lo + int(i), int(expected[i]), int(got[i])))
        report.checked += hi - lo + 1
    return report


def trichotomy_sweep(
    lo: int, hi: int, ks, tables: StarTables | None = None
) -> SweepReport:
    """Check sign(G - A) against the squarefree trichotomy for every
    level in [lo, hi] and every weight in ks.  Only the representation
    count is computed; the newform count plays no part here.  Without
    ``tables`` only the window is sieved."""
    import numpy as np

    ks = tuple(ks)
    check_sweep(lo, hi, ks)
    if tables is None:
        tables = build_star_tables(lo, hi)
    check_covers(tables, lo, hi)
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    squarefree = tables.mu[lo - tables.lo : hi - tables.lo + 1] != 0
    report = SweepReport(mode=SQUAREFREE_MODE, lo=lo, hi=hi, ks=ks, checked=0)
    return _compare(
        report, squarefree,
        lambda k: twelve_G(k, idx) - twelve_A(k, tables, lo, hi), SQUAREFREE_EXCEPTIONS,
    )


def _sharp_window(lo: int, hi: int, tables: StarTables | None) -> SharpTables:
    """The sharp tables covering [lo, hi]: those of ``tables`` when given,
    otherwise sieved over the window alone."""
    if tables is None:
        return build_sharp_tables(lo, hi)
    check_covers(tables, lo, hi)
    return tables.sharp


def _twelve_H_minus_B(k: int, idx: np.ndarray, sharp: SharpTables) -> np.ndarray:
    lo, hi = int(idx[0]), int(idx[-1])
    return twelve_G(k, idx) - 12 * level_one_newform_dim(k) - twelve_B(k, sharp, lo, hi)


def primality_sweep(
    lo: int, hi: int, ks, tables: StarTables | None = None
) -> SweepReport:
    """Check sign(H - B) against the primality trichotomy for every
    level in [lo, hi] and every weight in ks.  Without ``tables`` only
    the window is sieved."""
    import numpy as np

    ks = tuple(ks)
    check_sweep(lo, hi, ks)
    sharp = _sharp_window(lo, hi, tables)
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    prime = sharp.prime[lo - sharp.lo : hi - sharp.lo + 1]
    report = SweepReport(mode=PRIME_MODE, lo=lo, hi=hi, ks=ks, checked=0)
    return _compare(
        report, prime, lambda k: _twelve_H_minus_B(k, idx, sharp), PRIMALITY_EXCEPTIONS
    )


def equality_pairs_at_composites(
    lo: int, hi: int, k: int, tables: StarTables | None = None
) -> list[int]:
    """Composite levels in [lo, hi] where H(k, .) equals B(k, .), i.e.
    the observed equality exceptions at weight k."""
    import numpy as np

    check_sweep(lo, hi, (k,))
    sharp = _sharp_window(lo, hi, tables)
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    prime = sharp.prime[lo - sharp.lo : hi - sharp.lo + 1]
    eq = _twelve_H_minus_B(k, idx, sharp) == 0
    return [int(n) for n in idx[eq & ~prime]]
