"""The four workloads: inputs from the seed, set-up in batches outside
timing, a timed pass, and the correctness gate.

Load comes from this one process, one request at a time.  Library calls
run in a closed loop with one caller; every sweep and every cold CLI
request is a fresh child process, run one after another, so one core is
busy (``run.py`` pins the benchmark to one CPU) and each child's peak
memory is read from its own rusage.

A pass keeps nothing that grows with the number of operations it makes:
each output is checked right after its timed call, latencies go to a
fixed-size sample, and input batches are dropped once used.  So the peak
memory of the benchmark process is that of the program plus a constant.

Every time is also reported at a reference machine speed (``Speed``): a
fixed pure-Python loop is timed every SPEED_EVERY_S, between operations
and while a child process runs, and each time is scaled by how much
slower than REF_S that loop runs at the moment.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field

import numpy

import reference as ref
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD_PY = os.path.join(ROOT, "perfbench", "child.py")

SETUP_BATCHES = 5
PROBE_ROUNDS = 2  # the cold CLI requests run this many times per pass
RUN_DEADLINE_S = 170  # a run must end within 180 s
LATENCY_SAMPLE = 1 << 16  # latencies kept per pass; beyond it, a uniform sample
REF_LOOP = 5_000  # iterations of the reference loop
REF_S = 0.0004  # the reference loop's time at the reference speed
SPEED_EVERY_S = 0.05  # the reference loop runs this often
SPEED_WINDOW = 31  # the current speed is the median of this many timings

SWEEP_HI = 1_000_000
WINDOW = 10_000
SWEEP_PAIRS = {"sweep-full": 1, "sweep-window": 2}  # (squarefree, prime) pairs per pass
KERNEL_CHECK_LIMIT = 50_000
FACTOR_BITS = 48
FACTOR_BATCH = 256
QUERY_BITS = 40
QUERY_BATCH = 200
QUERY_WEIGHTS = (2, 4, 6, 12, 14, 26)
SMALL_PRIMES = tuple(p for p in range(2, 1 << 12) if all(p % q for q in range(2, int(p**0.5) + 1)))

ENV_PROBE = (
    "import json, os, sys, numpy, dimfactor, dimfactor.kernels as k; print(json.dumps({"
    "'dimfactor': os.path.dirname(dimfactor.__file__), 'python': sys.version.split()[0], "
    "'numpy': numpy.__version__, 'have_numba': bool(getattr(k, 'HAVE_NUMBA', False)), "
    "'using_numba': bool(getattr(k, 'USING_NUMBA', False))}))"
)


class Speed:
    """The machine's speed at the moment, read from a fixed pure-Python
    loop timed every SPEED_EVERY_S.  On a shared host the same work takes
    up to twice as long from one minute to the next, and the loop slows
    with it, in thread CPU time as much as in wall time.  ``scale`` is
    REF_S over the loop's median time in the last SPEED_WINDOW timings:
    a time multiplied by it is the time at the reference speed."""

    def __init__(self):
        self.times = array("d")  # every timing of the run, about 20 a second
        self.scale = 1.0
        self.next_t = 0.0
        for _ in range(SPEED_WINDOW):
            self.sample()

    def sample(self) -> None:
        t = time.perf_counter()
        s = 0
        for i in range(REF_LOOP):
            s += i * i % 7
        self.times.append(time.perf_counter() - t)
        self.scale = REF_S / statistics.median(self.times[-SPEED_WINDOW:])
        self.next_t = time.perf_counter() + SPEED_EVERY_S

    def tick(self) -> None:
        """Time the loop if its turn has come; call between operations."""
        if time.perf_counter() >= self.next_t:
            self.sample()

    def scale_since(self, mark: int) -> float:
        """The scale over the timings made since ``len(self.times)`` was
        ``mark``, and at least the last SPEED_WINDOW of them."""
        return REF_S / statistics.median(self.times[min(mark, len(self.times) - SPEED_WINDOW):])

    def run_scale(self) -> float:
        """The scale over every timing of the run."""
        return REF_S / statistics.median(self.times)


@dataclass
class Child:
    wall_s: float
    code: int
    out: str
    err: str
    rss_mb: float
    scale: float  # Speed scale over the child's lifetime


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout_s: float, speed: Speed) -> Child:
    """Run argv to completion, alone, and read its peak RSS from wait4.
    While it runs, this process times the reference loop on schedule (a
    1% duty cycle), so the child's time can be scaled by the speed of the
    machine during its own lifetime."""
    mark = len(speed.times)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    for r in readers:
        r.start()
    killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
    killer.start()
    try:
        for r in readers:
            while r.is_alive():
                speed.tick()
                r.join(0.01)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, b"".join(out).decode(), b"".join(err).decode(),
                 usage.ru_maxrss / 1024, speed.scale_since(mark))


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Tally:
    """Checked operations and the wrong or raised ones among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what() if callable(what) else str(what))


class Latencies:
    """Per-operation latencies in fixed memory: every one of the first
    LATENCY_SAMPLE, then a seeded uniform sample of that many (reservoir
    sampling), so the memory a pass holds does not grow with its length.
    Each is kept as measured and at the reference speed."""

    def __init__(self, rng: random.Random):
        self.vals = array("d", bytes(8 * LATENCY_SAMPLE))  # at the reference speed; touched up front
        self.raw = array("d", bytes(8 * LATENCY_SAMPLE))  # as measured
        self.n = 0
        self.total = 0.0  # as measured
        self.total_ref = 0.0  # at the reference speed
        self.rng = rng

    def add(self, dt: float, scale: float) -> None:
        self.total += dt
        self.total_ref += dt * scale
        j = self.n if self.n < LATENCY_SAMPLE else self.rng.randrange(self.n + 1)
        if j < LATENCY_SAMPLE:
            self.vals[j] = dt * scale
            self.raw[j] = dt
        self.n += 1

    def sorted(self, raw: bool = False) -> list:
        return sorted((self.raw if raw else self.vals)[: min(self.n, LATENCY_SAMPLE)])


@dataclass
class Pass:
    """What one timed pass did; a traced pass replays ``units`` of them."""

    lat: Latencies  # one per op (per sweep child for sweeps)
    units: int = 0
    ops: int = 0  # (level, weight) pairs, levels, or library calls
    rss_mb: float = 0.0
    cli_s: list = field(default_factory=list)  # cold CLI requests, at the reference speed
    cli_raw_s: list = field(default_factory=list)  # the same, as measured

    @property
    def busy_s(self) -> float:
        """Time the ops took."""
        return self.lat.total


class Guard:
    """Counts calls into the ground-truth factorizer and the default oracle
    while armed: the reductions must be timed without them."""

    def __init__(self, prog):
        self.armed = False
        self.calls = 0
        trial = prog.arith.factor_trial
        spans.replace_everywhere(trial, self._counting(trial))
        cls = prog.dimensions.DefaultOracle
        for attr in ("__init__", "query_A", "query_B"):
            setattr(cls, attr, self._counting(getattr(cls, attr)))

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.calls += self.armed
            return fn(*args, **kwargs)

        return counted


def make_probes(rng: random.Random, prog) -> list:
    """Eight cold CLI requests, one per subcommand and mode, with explicit
    oracle values where the command takes them, each with its check."""
    trial = lambda n: prog.arith.factor_trial(n).factors  # noqa: E731
    d = rng.randrange(27, 200)
    n_sq = d * d * rng.randrange(1, 1 << 24)
    f_sq = trial(n_sq)
    n_pr = rng.randrange(1 << 20, 1 << QUERY_BITS)
    f_pr = trial(n_pr)
    n_dim = rng.randrange(2, 1 << QUERY_BITS)
    f_dim = trial(n_dim)
    hi = rng.randrange(20_000, 30_000)
    a2, a4, b2 = ref.ref_A(2, f_sq), ref.ref_A(4, f_sq), ref.ref_B(2, f_sq)
    b4 = ref.ref_B(4, f_pr)

    def sweep_ok(mode):
        return lambda r: sweep_result_ok(r, mode, 2, hi, (2,))

    probes = [
        (["test", "squarefree", "2", str(n_sq), str(a2)],
         lambda r: r["conclusion"] == ("SQUAREFREE" if ref.is_squarefree(f_sq) else "NOT_SQUAREFREE")),
        (["test", "prime", "4", str(n_pr), str(b4)],
         lambda r: r["conclusion"] == ("PRIME" if ref.is_prime(f_pr) else "COMPOSITE")),
        (["bounds", "2", str(n_sq), str(a2)],
         lambda r: ref.bounds_ok(2, n_sq, a2, f_sq, r["certificate"], r["T"], r["curly_L"], r["x1"], r["x0"])),
        (["dim", "A", "6", str(n_dim)], lambda r: r["value"] == ref.ref_A(6, f_dim)),
        (["dim", "B", "12", str(n_dim)], lambda r: r["value"] == ref.ref_B(12, f_dim)),
        (["factor", "full", str(n_sq), "--a1", str(a2), "--a2", str(a4), "--b", str(b2),
          "--seed", str(rng.randrange(1 << 32))],
         lambda r: [tuple(x) for x in r["factors"]] == list(f_sq)),
        (["sweep", f"2..{hi}", "--k", "2", "--mode", "squarefree"], sweep_ok("squarefree")),
        (["sweep", f"2..{hi}", "--k", "2", "--mode", "prime"], sweep_ok("prime")),
    ]
    return [(args + ["--json"], check) for args, check in probes]


def sweep_result_ok(r, mode: str, lo: int, hi: int, ks) -> bool:
    return (
        r["violations"] == []
        and r["exceptions_observed"] == ref.catalogued(mode, lo, hi, ks)
        and r["checked"] == (hi - lo + 1) * len(ks)
    )


class Workload:
    name = ""
    tail_q = 1.0  # percentile reported as op_tail_ms

    def __init__(self, seed: int, prog):
        self.seed = seed
        self.prog = prog
        self.tally = Tally()
        self.speed = Speed()
        self.tracer: spans.Tracer | None = None  # set during the traced pass
        self.child_traces: list[dict] = []
        self.setup_s: list[float] = []  # as measured
        self.batches: dict = {}  # made in set-up, dropped once a pass uses them
        self.probes: list = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def new_pass(self) -> Pass:
        return Pass(Latencies(self.rng("latency-sample")))

    def setup(self) -> None:
        for b in range(SETUP_BATCHES):
            self.timed_batch(b)

    def timed_batch(self, b: int) -> None:
        t0 = time.perf_counter()
        self.batches[b] = self.make_batch(b)
        self.setup_s.append(time.perf_counter() - t0)

    def take_batch(self, b: int):
        """Input batch b, made now unless set-up made it.  The pass holds
        one batch at a time, so its memory does not grow with its length."""
        if b not in self.batches:
            self.timed_batch(b)
        return self.batches.pop(b)

    def make_batch(self, b: int):
        raise NotImplementedError

    def measure(self, budget_s: float | None, units: int | None = None) -> Pass:
        raise NotImplementedError

    def done(self, count: int, units: int | None, elapsed_s: float, budget_s) -> bool:
        """Replaying a pass: stop after ``units``.  Otherwise stop once the
        budget or the run's deadline is spent, after at least one unit."""
        if units is not None:
            return count >= units
        return count > 0 and (elapsed_s >= budget_s or time.perf_counter() > self.deadline)

    @staticmethod
    def progress(count: int, units: int | None, elapsed_s: float, budget_s) -> float:
        return count / units if units is not None else elapsed_s / budget_s

    def child(self, args: list[str], probe: bool = False) -> Child:
        """One CLI request as a fresh process; traced when a tracer is set."""
        traced = self.tracer is not None
        argv = [sys.executable, CHILD_PY, *args] if traced else [sys.executable, "-m", "dimfactor", *args]
        c = run_child(argv, self.deadline - time.perf_counter(), self.speed)
        if traced:
            head, sep, tail = c.err.rpartition(spans.MARKER)
            summary = parse_json(tail) if sep else None
            if summary is not None:
                c.err = head
                self.tracer.merge(summary)
                self.child_traces.append(
                    {"argv": args, "probe": probe, "cli": summary["cli"],
                     "counters": summary["counters"], "spans": summary["spans"],
                     "dropped": summary["dropped"]}
                )
        return c

    def probes_due(self, p: Pass, frac: float) -> None:
        """Run the cold CLI requests whose turn has come, ``frac`` of the
        way through the pass.  They are spread evenly over the pass, so
        their median sees the machine the rest of the pass sees.  At 1
        every request left runs."""
        total = len(self.probes) * PROBE_ROUNDS
        while len(p.cli_s) < total * frac:
            args, check = self.probes[len(p.cli_s) % len(self.probes)]
            c = self.child(args, probe=True)
            p.cli_s.append(c.wall_s * c.scale)
            p.cli_raw_s.append(c.wall_s)
            r = parse_json(c.out)
            try:
                ok = c.code == 0 and r is not None and check(r)
            except (KeyError, TypeError, ValueError):
                ok = False
            self.tally.check(ok, lambda: f"dimfactor {' '.join(args)}: exit {c.code} {c.out[:200]!r} {c.err[-300:]!r}")


class Sweep(Workload):
    """A fixed number of sweep pairs (squarefree mode, then prime mode), so
    every run of a workload has the same number of samples."""

    MODES = ("squarefree", "prime")

    def __init__(self, seed: int, prog, window: bool):
        self.name = "sweep-window" if window else "sweep-full"
        super().__init__(seed, prog)
        r = self.rng("range")
        self.hi = SWEEP_HI - r.randrange(WINDOW if window else 1000)
        self.lo = self.hi - WINDOW + 1 if window else 2
        self.ks = (2,) if window else (2, 4)
        self.pairs = SWEEP_PAIRS[self.name]
        self.child_env: dict = {}

    def make_batch(self, b: int) -> None:
        # A fresh process reports what the sweep children will import.
        c = run_child([sys.executable, "-c", ENV_PROBE], self.deadline - time.perf_counter(), self.speed)
        self.child_env = parse_json(c.out) or {"error": c.err[-300:]}
        self.probes = make_probes(self.rng("probes"), self.prog)
        if b == 0:
            self.check_kernel_paths()

    def check_kernel_paths(self) -> None:
        """Where numba is installed, the jitted kernels must give exactly the
        numpy path's tables.  Without numba there is one path, and no check."""
        k = self.prog.kernels
        if not getattr(k, "HAVE_NUMBA", False):
            return
        try:
            nb, np_ = (k.build_star_tables(KERNEL_CHECK_LIMIT, force=f) for f in ("numba", "numpy"))
            pairs = [(nb, np_)] + [
                (k.dimension_tables(w, nb, force="numba"), k.dimension_tables(w, np_, force="numpy"))
                for w in self.ks
            ]
            bad = [
                f"{type(x).__name__}.{attr}"
                for x, y in pairs
                for attr, v in vars(x).items()
                if isinstance(v, numpy.ndarray) and not numpy.array_equal(v, getattr(y, attr))
            ]
        except Exception as exc:  # a raised path is a failed check
            bad = [repr(exc)]
        self.tally.check(not bad, lambda: f"numba and numpy kernels differ: {bad}")

    def measure(self, budget_s, units=None) -> Pass:
        p = self.new_pass()
        p.units = units if units is not None else self.pairs
        runs = [mode for _ in range(p.units) for mode in self.MODES]
        for j, mode in enumerate(runs):
            self.probes_due(p, j / len(runs))
            args = ["sweep", f"{self.lo}..{self.hi}", "--k", ",".join(map(str, self.ks)),
                    "--mode", mode, "--json"]
            c = self.child(args)
            p.lat.add(c.wall_s, c.scale)
            p.rss_mb = max(p.rss_mb, c.rss_mb)
            p.ops += (self.hi - self.lo + 1) * len(self.ks)
            r = parse_json(c.out)
            try:
                ok = c.code == 0 and r is not None and sweep_result_ok(r, mode, self.lo, self.hi, self.ks)
            except (KeyError, TypeError):
                ok = False
            self.tally.check(ok, lambda: f"{' '.join(args)}: exit {c.code} {c.out[:300]!r} {c.err[-300:]!r}")
        self.probes_due(p, 1.0)
        return p


class Factor(Workload):
    """full_factor_three_values on levels below 2^48, half uniform, half
    with a planted squarefull part; one call per level, closed loop."""

    name = "factor"
    tail_q = 0.95

    def __init__(self, seed: int, prog):
        super().__init__(seed, prog)
        self.guard = Guard(prog)

    def _factors(self, n: int):
        return self.prog.arith.factor_trial(n).factors

    def _planted(self, r: random.Random):
        while True:
            part = {p: r.randint(2, 5) for p in r.sample(SMALL_PRIMES, r.randint(1, 2))}
            squarefull = ref.value_of(part.items())
            if squarefull <= 1 << 40:
                break
        while True:
            cofactor = self._factors(r.randrange(1, (1 << FACTOR_BITS) // squarefull))
            if all(e == 1 and p not in part for p, e in cofactor):
                return tuple(sorted((*part.items(), *cofactor)))

    def make_batch(self, b: int) -> list:
        """FACTOR_BATCH levels as (N, A(2,N), A(4,N), B(2,N), factors)."""
        if b == 0:
            self.probes = make_probes(self.rng("probes"), self.prog)
        r = self.rng(f"levels{b}")
        levels = []
        for i in range(FACTOR_BATCH):
            f = self._factors(r.randrange(2, 1 << FACTOR_BITS)) if i % 2 == 0 else self._planted(r)
            levels.append((ref.value_of(f), ref.ref_A(2, f), ref.ref_A(4, f), ref.ref_B(2, f), f))
        return levels

    def measure(self, budget_s, units=None) -> Pass:
        p = self.new_pass()
        sharp = getattr(self.prog.dimensions, "sharp_values_at_prime_power", None)
        if hasattr(sharp, "cache_clear"):
            sharp.cache_clear()  # each pass starts cold, so passes do equal work
        reductions = self.prog.reductions
        levels, b, i = [], 0, 0
        self.guard.calls = 0
        t0 = time.perf_counter()
        paused = 0.0
        while not self.done(p.ops, units, time.perf_counter() - t0 - paused, budget_s):
            self.probes_due(p, self.progress(p.ops, units, time.perf_counter() - t0 - paused, budget_s))
            self.speed.tick()
            if i == len(levels):
                tp = time.perf_counter()
                levels, b, i = self.take_batch(b), b + 1, 0
                paused += time.perf_counter() - tp
            n, a1, a2, bv, truth = levels[i]
            i += 1
            rng = random.Random(f"{self.seed}/{p.ops}")
            self.guard.armed = True
            t = time.perf_counter()
            try:
                got = reductions.full_factor_three_values(n, 2, a1, 4, a2, 2, bv, rng)
                dt = time.perf_counter() - t
                ok = got.factors == truth
            except Exception as exc:  # a raised call is a failed operation
                dt = time.perf_counter() - t
                got, ok = exc, False
            self.guard.armed = False
            p.lat.add(dt, self.speed.scale)
            self.tally.check(ok, lambda: f"factor {n}: got {got!r}, want {truth}")
            p.ops += 1
        self.probes_due(p, 1.0)
        self.tally.check(
            self.guard.calls == 0,
            lambda: f"{self.guard.calls} calls into factor_trial/DefaultOracle while timing the reductions",
        )
        p.units = p.ops
        p.rss_mb = self_rss_mb()
        return p


@dataclass
class Level:
    n: int
    fac: object  # the program's Factorization
    factors: tuple
    A: dict
    B: dict


class Query(Workload):
    """A seeded stream of single-level library calls, closed loop: dim_A and
    dim_B given a Factorization, the two detectors and the bounds given an
    oracle value.  Levels are fresh: each serves one call at each of the six
    weights, with a random operation, so no (operation, level, weight)
    repeats within a pass.  A batch's calls are shuffled, so the calls at
    one level are spread over the batch."""

    name = "query"
    tail_q = 0.99
    OPS = 5

    def make_batch(self, b: int) -> list:
        """QUERY_BATCH fresh levels, as a shuffled list of (op, level, k)."""
        if b == 0:
            self.probes = make_probes(self.rng("probes"), self.prog)
        r = self.rng(f"levels{b}")
        calls = []
        for i in range(QUERY_BATCH):
            if i % 2:
                d = r.randrange(27, 1024)
                n = d * d * r.randrange(1, (1 << QUERY_BITS) // (d * d))
            else:
                n = r.randrange(729, 1 << QUERY_BITS)
            fac = self.prog.arith.factor_trial(n)
            f = fac.factors
            lv = Level(n, fac, f, {k: ref.ref_A(k, f) for k in QUERY_WEIGHTS},
                       {k: ref.ref_B(k, f) for k in QUERY_WEIGHTS})
            calls += [(r.randrange(self.OPS), lv, k) for k in QUERY_WEIGHTS]
        r.shuffle(calls)
        return calls

    def measure(self, budget_s, units=None) -> Pass:
        p = self.new_pass()
        dims, det, bnd = self.prog.dimensions, self.prog.detectors, self.prog.bounds
        calls, b, i = [], 0, 0
        t0 = time.perf_counter()
        paused = 0.0
        while not self.done(p.ops, units, time.perf_counter() - t0 - paused, budget_s):
            self.probes_due(p, self.progress(p.ops, units, time.perf_counter() - t0 - paused, budget_s))
            self.speed.tick()
            if i == len(calls):
                tp = time.perf_counter()
                calls, b, i = self.take_batch(b), b + 1, 0
                paused += time.perf_counter() - tp
            op, lv, k = calls[i]
            i += 1
            t = time.perf_counter()
            try:
                if op == 0:
                    out = dims.dim_A(k, lv.fac)
                elif op == 1:
                    out = dims.dim_B(k, lv.fac)
                elif op == 2:
                    out = det.squarefree_test(lv.n, k, lv.A[k])
                elif op == 3:
                    out = det.primality_test(lv.n, k, lv.B[k])
                else:
                    out = bnd.square_divisor_bounds(k, lv.n, lv.A[k])
            except Exception as exc:  # a raised call is a failed operation
                out = exc
            p.lat.add(time.perf_counter() - t, self.speed.scale)
            try:
                ok = self._ok(op, lv, k, out)
            except (AttributeError, TypeError, ValueError):
                ok = False
            self.tally.check(ok, lambda: f"op {op} k={k} N={lv.n}: {out!r}")
            p.ops += 1
        self.probes_due(p, 1.0)
        p.units = p.ops
        p.rss_mb = self_rss_mb()
        return p

    @staticmethod
    def _ok(op: int, lv: Level, k: int, out) -> bool:
        if isinstance(out, Exception):
            return False
        if op == 0:
            return out == lv.A[k]
        if op == 1:
            return out == lv.B[k]
        if op == 2:
            want = "SQUAREFREE" if ref.is_squarefree(lv.factors) else "NOT_SQUAREFREE"
            return out.conclusion == want and out.suspicious is None
        if op == 3:
            want = "PRIME" if ref.is_prime(lv.factors) else "COMPOSITE"
            return out.conclusion == want and out.suspicious is None
        return ref.bounds_ok(k, lv.n, lv.A[k], lv.factors, out.certificate, out.T,
                             out.curly_L, out.x1, out.x0)


def make(name: str, seed: int, prog) -> Workload:
    if name in ("sweep-full", "sweep-window"):
        return Sweep(seed, prog, window=name == "sweep-window")
    return {"factor": Factor, "query": Query}[name](seed, prog)


NAMES = ("sweep-full", "sweep-window", "factor", "query")
