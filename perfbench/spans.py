"""Spans around calls into dimfactor's layers, recorded from outside the
program.

``install`` wraps each function in TARGETS wherever a dimfactor module
holds it, which is the attribute its callers look up (for example
``sweeps.dimension_tables`` and ``reductions.factor_given_phi_multiple``).
A wrapper records nothing until the tracer is switched on.  Each span
keeps its name, start, end and parent; spans stay in memory (up to
SPAN_CAP per process) and per-name totals are kept for every span, so
self time (duration minus the time covered by child spans) is exact even
past the cap.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

MARKER = "PERFBENCH-TRACE "
SPAN_CAP = 100_000

# (span name, module, attribute)
TARGETS = (
    ("kernels.build_star_tables", "dimfactor.kernels", "build_star_tables"),
    ("kernels.dimension_tables", "dimfactor.kernels", "dimension_tables"),
    ("kernels.mobius_invert", "dimfactor.kernels", "mobius_invert"),
    ("sweeps.trichotomy_sweep", "dimfactor.sweeps", "trichotomy_sweep"),
    ("sweeps.primality_sweep", "dimfactor.sweeps", "primality_sweep"),
    ("reductions.full_factor_three_values", "dimfactor.reductions", "full_factor_three_values"),
    ("reductions.factor_squarefull_two_values", "dimfactor.reductions", "factor_squarefull_two_values"),
    ("reductions.factor_given_phi_multiple", "dimfactor.reductions", "factor_given_phi_multiple"),
    ("dimensions.dim_A", "dimfactor.dimensions", "dim_A"),
    ("dimensions.dim_B", "dimfactor.dimensions", "dim_B"),
    ("multfuncs.star", "dimfactor.multfuncs", "s0_star"),
    ("multfuncs.star", "dimfactor.multfuncs", "nu_inf_star"),
    ("multfuncs.star", "dimfactor.multfuncs", "nu2_star"),
    ("multfuncs.star", "dimfactor.multfuncs", "nu3_star"),
    ("arith.is_probable_prime", "dimfactor.arith", "is_probable_prime"),
    ("arith.factor_trial", "dimfactor.arith", "factor_trial"),
    ("detectors.squarefree_test", "dimfactor.detectors", "squarefree_test"),
    ("detectors.primality_test", "dimfactor.detectors", "primality_test"),
    ("bounds.square_divisor_bounds", "dimfactor.bounds", "square_divisor_bounds"),
)


def replace_everywhere(old, new) -> None:
    """Point every dimfactor module attribute that holds ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dimfactor" or name.startswith("dimfactor.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _table_bytes(tables) -> int:
    return sum(v.nbytes for v in vars(tables).values() if hasattr(v, "nbytes"))


def _observe(tracer: "Tracer", name: str, out) -> None:
    """Counters read from results at the layer boundary."""
    c = tracer.counters
    if name == "kernels.build_star_tables":
        c["star_bytes"] = c.get("star_bytes", 0) + _table_bytes(out)
    elif name == "kernels.dimension_tables":
        c["sweeps.entries"] = c.get("sweeps.entries", 0) + out.limit + 1
        c["dim_bytes"] = max(c.get("dim_bytes", 0), _table_bytes(out))
    elif name in ("sweeps.trichotomy_sweep", "sweeps.primality_sweep"):
        c["sweeps.checked"] = c.get("sweeps.checked", 0) + out.checked


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds, raised]
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}  # merged across processes by max
        self._stack: list[list] = []  # [span index, name, start, child seconds]

    def _close(self, frame, raised: bool) -> None:
        end = time.perf_counter()
        idx, name, start, child = frame
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        st[3] += raised
        if self._stack:
            self._stack[-1][3] += dur
        if idx >= 0:
            self.spans[idx][2] = end

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([name, start, 0.0, parent])
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, name, start, 0.0]
        self._stack.append(frame)
        return frame

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._stack.pop()
            self._close(frame, raised)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = self._open(name)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                self._stack.pop()
                self._close(frame, raised)
            _observe(self, name, out)
            return out

        return traced

    def summary(self, span_cap: int = SPAN_CAP) -> dict:
        """Totals of this process, in the form :meth:`merge` takes."""
        counters = dict(self.counters)
        dims = sys.modules.get("dimfactor.dimensions")
        # Workloads that call it clear this cache at the start of each
        # timed pass, so this process's count is that of its last pass.
        cache = getattr(getattr(dims, "sharp_values_at_prime_power", None), "cache_info", None)
        if cache is not None:
            counters["sharp_misses"] = counters.get("sharp_misses", 0) + cache().misses
        peaks = dict(self.peaks)
        table = counters.pop("star_bytes", 0) + counters.pop("dim_bytes", 0)
        peaks["kernels.table_bytes"] = max(peaks.get("kernels.table_bytes", 0), table)
        return {
            "stats": self.stats,
            "counters": counters,
            "peaks": peaks,
            "spans": self.spans[:span_cap],
            "dropped": self.dropped + max(0, len(self.spans) - span_cap),
        }

    def merge(self, other: dict) -> None:
        """Add the totals another process reported."""
        for name, vals in other["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                st[i] += v
        for name, v in other["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + v
        for name, v in other["peaks"].items():
            self.peaks[name] = max(self.peaks.get(name, 0), v)


def install(tracer: Tracer) -> None:
    """Wrap every target; the modules must already be imported."""
    for name, module, attr in TARGETS:
        fn = getattr(sys.modules[module], attr)
        replace_everywhere(fn, tracer.wrap(name, fn))
