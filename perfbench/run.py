#!/usr/bin/env python3
"""The dimfactor benchmark: one workload, one run.

Usage, from the root of a dimfactor checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep-full, sweep-window, factor, query (see README.md in
this directory).  The seed fixes every input.  With --trace 0 the run is
untraced and reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics from spans, after an untraced pass over the same inputs
that gives the tracing overhead.

Standard output ends with two lines: a detail object (machine, kernel
path, sample counts, the metrics under the workload's own names, the
first errors) and the result object with the keys correct, attempted,
failed and metrics.  Exits 2 without a result when the checkout has no
dimfactor sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import sys

import spans
import workloads

SRC = workloads.SRC
MODULES = ("arith", "bounds", "detectors", "dimensions", "kernels", "reductions")
TRACE_DIR = os.path.join(workloads.ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cli_cold_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "kernels.build_star_tables.s": "s",
    "kernels.dimension_tables.s": "s",
    "kernels.dimension_tables.calls": "count",
    "kernels.mobius_invert.s": "s",
    "kernels.table_bytes": "bytes",
    "sweeps.trichotomy_sweep.self_s": "s",
    "sweeps.primality_sweep.self_s": "s",
    "sweeps.useful_ratio": "ratio",
    "reductions.full_factor_three_values.s": "s",
    "reductions.factor_squarefull_two_values.s": "s",
    "reductions.factor_given_phi_multiple.calls": "count",
    "reductions.factor_given_phi_multiple.failed": "count",
    "reductions.factor_given_phi_multiple.s": "s",
    "reductions.phi_success_ratio": "ratio",
    "dimensions.sharp_values_at_prime_power.misses": "count",
    "dimensions.dim_A.s": "s",
    "dimensions.dim_B.s": "s",
    "dimensions.dim_B.calls": "count",
    "multfuncs.star.calls": "count",
    "arith.is_probable_prime.calls": "count",
    "arith.is_probable_prime.s": "s",
    "arith.factor_trial.s": "s",
    "detectors.squarefree_test.s": "s",
    "detectors.primality_test.s": "s",
    "bounds.square_divisor_bounds.s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_share": "ratio",
}


class Program:
    """The dimfactor modules of this checkout."""

    def __init__(self):
        sys.path.insert(0, SRC)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"dimfactor.{name}"))
        where = os.path.dirname(os.path.abspath(self.arith.__file__))
        if where != os.path.join(SRC, "dimfactor"):
            raise ImportError(f"dimfactor imported from {where}, not from {SRC}")


def pin_to_one_cpu():
    """Run this process and its children on one CPU.  Only one of them
    computes at a time, and the reference loop (``workloads.Speed``) then
    times the CPU the measured work runs on: the two CPUs of a shared host
    slow down partly independently.  Returns the CPU, or None when the
    affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def machine(prog: Program, wl: workloads.Workload, nproc: int, cpu) -> dict:
    import numpy

    k = prog.kernels
    using = bool(getattr(k, "USING_NUMBA", False))
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    info = {
        "nproc": nproc,  # before pinning
        "pinned_cpu": cpu,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_numba": bool(getattr(k, "HAVE_NUMBA", False)),
        "using_numba": using,
        "DIMFACTOR_KERNELS": os.environ.get("DIMFACTOR_KERNELS"),
        "kernel_path": "numba" if using else "numpy",
    }
    if isinstance(wl, workloads.Sweep):
        info["sweep_children"] = wl.child_env
    return info


def percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))]


def end_to_end(wl: workloads.Workload, p: workloads.Pass, raw: bool = False) -> dict:
    """The end-to-end metrics, with times at the reference speed (or as
    measured, with ``raw``)."""
    lat = p.lat.sorted(raw)
    return {
        "setup_s": statistics.median(wl.setup_s) * (1.0 if raw else wl.speed.run_scale()),
        "peak_rss_mb": p.rss_mb,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, wl.tail_q) * 1e3,
        "cli_cold_p50_ms": statistics.median(p.cli_raw_s if raw else p.cli_s) * 1e3,
    }


def speed_detail(wl: workloads.Workload) -> dict:
    """How fast the machine ran: the reference loop's timings, as a median
    and quartiles, and the ratio to REF_S."""
    q1, med, q3 = statistics.quantiles(wl.speed.times, n=4)
    return {"ref_loop_iterations": workloads.REF_LOOP, "ref_s": workloads.REF_S,
            "timings": len(wl.speed.times), "median_s": med, "q1_s": q1, "q3_s": q3,
            "median_over_ref": med / workloads.REF_S}


def own_names(name: str, m: dict, p: workloads.Pass) -> dict:
    """The workload's metrics under workload-specific names, at the
    reference speed like the end-to-end ones.  Throughput is here only:
    its run-to-run spread on factor is wider than any bound, since a few
    rare levels take most of the time (see README.md)."""
    per_s = p.ops / p.lat.total_ref
    if name.startswith("sweep"):
        return {"sweep_pairs_per_s": per_s}
    if name == "factor":
        return {"factor_levels_per_s": per_s, "factor_p50_ms": m["op_p50_ms"],
                "factor_p95_ms": m["op_tail_ms"]}
    return {"queries_per_s": per_s, "query_p50_us": m["op_p50_ms"] * 1e3,
            "query_p99_us": m["op_tail_ms"] * 1e3}


def per_layer(tracer: spans.Tracer, wl: workloads.Workload, overhead: float) -> dict:
    """Totals over the traced set-up and the traced pass, with the traced
    children merged in."""
    st = tracer.stats
    totals = tracer.summary()

    def total(name, i=1):
        return st.get(name, [0, 0.0, 0.0, 0])[i]

    phi_calls = total("reductions.factor_given_phi_multiple", 0)
    phi_failed = total("reductions.factor_given_phi_multiple", 3)
    # The sweep ratio is the workload's own where it runs sweeps; only the
    # cold CLI probes sweep in the other workloads.
    children = wl.child_traces
    own = [t["counters"] for t in children if not t["probe"]] or [t["counters"] for t in children]
    checked = sum(x.get("sweeps.checked", 0) for x in own)
    entries = sum(x.get("sweeps.entries", 0) for x in own)
    cli = [t["cli"] for t in children]
    return {
        "kernels.build_star_tables.s": total("kernels.build_star_tables"),
        "kernels.dimension_tables.s": total("kernels.dimension_tables"),
        "kernels.dimension_tables.calls": total("kernels.dimension_tables", 0),
        "kernels.mobius_invert.s": total("kernels.mobius_invert"),
        "kernels.table_bytes": totals["peaks"]["kernels.table_bytes"],
        "sweeps.trichotomy_sweep.self_s": total("sweeps.trichotomy_sweep", 2),
        "sweeps.primality_sweep.self_s": total("sweeps.primality_sweep", 2),
        "sweeps.useful_ratio": checked / entries if entries else 0.0,
        "reductions.full_factor_three_values.s": total("reductions.full_factor_three_values"),
        "reductions.factor_squarefull_two_values.s": total("reductions.factor_squarefull_two_values"),
        "reductions.factor_given_phi_multiple.calls": phi_calls,
        "reductions.factor_given_phi_multiple.failed": phi_failed,
        "reductions.factor_given_phi_multiple.s": total("reductions.factor_given_phi_multiple"),
        "reductions.phi_success_ratio": (phi_calls - phi_failed) / phi_calls if phi_calls else 0.0,
        "dimensions.sharp_values_at_prime_power.misses": totals["counters"].get("sharp_misses", 0),
        "dimensions.dim_A.s": total("dimensions.dim_A"),
        "dimensions.dim_B.s": total("dimensions.dim_B"),
        "dimensions.dim_B.calls": total("dimensions.dim_B", 0),
        "multfuncs.star.calls": total("multfuncs.star", 0),
        "arith.is_probable_prime.calls": total("arith.is_probable_prime", 0),
        "arith.is_probable_prime.s": total("arith.is_probable_prime"),
        "arith.factor_trial.s": total("arith.factor_trial"),
        "detectors.squarefree_test.s": total("detectors.squarefree_test"),
        "detectors.primality_test.s": total("detectors.primality_test"),
        "bounds.square_divisor_bounds.s": total("bounds.square_divisor_bounds"),
        "cli.import_s": statistics.median(x["import_s"] for x in cli) if cli else 0.0,
        "cli.main.self_s": statistics.median(x["main_self_s"] for x in cli) if cli else 0.0,
        "trace.overhead_share": overhead,
    }


def write_spans(path: str, tracer: spans.Tracer, wl: workloads.Workload) -> None:
    """All spans of the traced run.  Times are perf_counter seconds of the
    process that recorded them."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "fields": ["name", "start", "end", "parent"],
        "bench": {"spans": tracer.spans, "dropped": tracer.dropped},
        "children": wl.child_traces,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dimfactor", "__init__.py")):
        print(f"error: no dimfactor sources under {SRC}; run from a dimfactor checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    prog = Program()
    wl = workloads.make(args.workload, args.seed, prog)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    if not args.trace:
        wl.setup()
        p = wl.measure(args.seconds)
        metrics = end_to_end(wl, p)
        units = END_TO_END_UNITS
        detail["own_names"] = own_names(args.workload, metrics, p)
        detail["as_measured"] = end_to_end(wl, p, raw=True)
    else:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.on = True
        wl.setup()
        tracer.on = False
        base = wl.measure(args.seconds / 2)
        wl.tracer = tracer
        tracer.on = True
        p = wl.measure(None, units=base.units)
        tracer.on = False
        metrics = per_layer(tracer, wl, p.lat.total_ref / base.lat.total_ref - 1)
        units = PER_LAYER_UNITS
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        write_spans(path, tracer, wl)
        detail["spans_file"] = os.path.relpath(path, workloads.ROOT)
        detail["untraced_busy_s"] = base.busy_s
        detail["traced_busy_s"] = p.busy_s

    t = wl.tally
    detail["machine"] = machine(prog, wl, nproc, cpu)
    detail["speed"] = speed_detail(wl)
    detail["samples"] = {"ops": p.ops, "latency": min(p.lat.n, workloads.LATENCY_SAMPLE),
                         "cli_cold": len(p.cli_s), "setup_batches": len(wl.setup_s), "units": p.units}
    detail["failed_share"] = t.failed / t.attempted if t.attempted else 1.0
    detail["errors"] = t.errors
    print(json.dumps(detail))
    result = {
        "correct": t.failed == 0 and t.attempted > 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
