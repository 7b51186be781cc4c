"""Dimensions of spaces of modular forms, and the squarefree and
primality tests and factoring reductions built on them.

Subcommands: dim, test, bounds, factor and sweep; "dimfactor COMMAND
--help" describes each.  Results go to stdout, as plain text or, with
--json, as JSON; errors and warnings go to stderr, one line each.

Exit codes: 0 for success or a determinate verdict; 1 for a failed
computation (the built-in oracle gave up, a reduction ran out of
rounds, or the oracle values are inconsistent), for a suspicious
verdict, and for output that could not be written; 2 for an
exception-case verdict; 64 for a refused request: a malformed argument,
a request the library's rules refuse (such as a level below 2 for the
tests), or an answer too large to print under Python's 4,300-digit
limit on converting an integer to a string.

A verdict is suspicious when the oracle value is one no truthful oracle
gives; it is still printed, with "suspicious" set in the JSON and a
"warning:" line on stderr.

An oracle value left off the command line is computed by the built-in
oracle, which factors N; its rho method gives up after a fixed number of
steps on one cofactor (about 2 s), and the command then exits 1 and asks
for the value.  With --seed, an option of factor alone, factor draws the
same random bases on every run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

# Every request runs arith, dimensions and errors.  The other layers are
# reached through their module objects, which the package registers
# lazily, so a request runs only the ones its subcommand calls.
from . import bounds, detectors, reductions, sweeps
from .arith import MAX_SWEEP_HI, _brief, factor_trial, twelve_weight_coefficients
from .dimensions import DefaultOracle, dim_A, dim_B, dim_delta, dim_G, dim_H
from .errors import DimfactorError, DomainError, InvalidWeightError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_EXCEPTION_CASE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_value(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def _emit(args, text_lines, payload) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _past_digit_limit(subject: str, doing: str) -> str:
    """Error text for an int past Python's limit on converting it to or from
    a string: CPython's own advises a call a CLI user cannot make."""
    return (f"{subject} more than {sys.get_int_max_str_digits()} digits, Python's "
            f"limit on {doing} an integer; set PYTHONINTMAXSTRDIGITS=0 to lift it")


def _int(s: str, expected: str = "expected an integer", arg: str | None = None) -> int:
    """int(s) for every integer argument (or part ``s`` of ``arg``), or a
    usage error that says what was expected, not argparse's helper name,
    and names a number past the digit limit by its digit count."""
    try:
        return int(s)
    except ValueError as exc:
        got = repr(s if arg is None else arg)
        if "integer string conversion" in str(exc):
            got = _past_digit_limit(f"{sum(c.isdigit() for c in s)} digits:", "reading")
        raise argparse.ArgumentTypeError(f"{expected}, got {got}") from None


def _even_weight(s: str) -> int:
    k = _int(s, "weight must be a positive even integer")
    try:
        twelve_weight_coefficients(k)  # the one weight rule
    except InvalidWeightError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return k


def _positive_int(s: str) -> int:
    n = _int(s, "expected a positive integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _parse_range(s: str) -> tuple[int, int]:
    lo, _, hi = s.partition("..")  # hi is "" when there is no ".."
    expected = "range must look like LO..HI with integers LO and HI"
    return _int(lo, expected, s), _int(hi, expected, s)


def _parse_weights(s: str) -> tuple[int, ...]:
    return tuple(_even_weight(part) for part in s.split(","))


def _oracle_value(value, fetch) -> int:
    """An explicit oracle value, which must be nonnegative, or the
    default oracle's answer when none was given; when the oracle gives up,
    the error asks for the value."""
    if value is None:
        try:
            return fetch().value
        except DomainError as exc:
            raise DomainError(f"{exc}; pass the oracle value explicitly instead") from None
    if value < 0:
        raise ValueError(f"oracle values are nonnegative, got {_brief(value)}")
    return value


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = _Parser(prog="dimfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", parents=[common], help="evaluate a dimension quantity")
    p_dim.add_argument("kind", choices=("A", "B", "G", "H", "delta"))
    p_dim.add_argument("k", type=_even_weight)
    p_dim.add_argument("N", type=_positive_int)

    p_test = sub.add_parser("test", parents=[common], help="run an oracle-value test")
    p_test.add_argument("kind", choices=("squarefree", "prime"))
    p_test.add_argument("k", type=_even_weight)
    p_test.add_argument("N", type=_positive_int)
    p_test.add_argument("value", type=_int, nargs="?", default=None,
                        help="oracle value; computed by the default oracle when omitted")

    p_bounds = sub.add_parser("bounds", parents=[common],
                              help="square-divisor localization interval")
    p_bounds.add_argument("k", type=_even_weight)
    p_bounds.add_argument("N", type=_positive_int)
    p_bounds.add_argument("value", type=_int, nargs="?", default=None)

    p_factor = sub.add_parser("factor", parents=[common],
                              help="factor from oracle values")
    p_factor.add_argument("mode", choices=("squarefull", "full"))
    p_factor.add_argument("N", type=_positive_int)
    p_factor.add_argument("--k1", type=_even_weight, default=2)
    p_factor.add_argument("--k2", type=_even_weight, default=4)
    p_factor.add_argument("--a1", type=_int, default=None, help="A(k1, N); fetched when omitted")
    p_factor.add_argument("--a2", type=_int, default=None, help="A(k2, N); fetched when omitted")
    p_factor.add_argument("--kb", type=_even_weight, default=2, help="weight for the B value (full mode)")
    p_factor.add_argument("--b", type=_int, default=None, help="B(kb, N); fetched when omitted")
    p_factor.add_argument("--seed", type=_int, default=None, help="RNG seed for the factor reductions")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help=f"range conformance sweep (HI <= {MAX_SWEEP_HI})"
    )
    p_sweep.add_argument("range", type=_parse_range, metavar="LO..HI")
    p_sweep.add_argument("--k", type=_parse_weights, default=(2, 4), metavar="K1,K2,...")
    p_sweep.add_argument("--mode", choices=("squarefree", "prime"), default="squarefree")

    return parser


def _cmd_dim(args) -> int:
    kind, k, n = args.kind, args.k, args.N
    if kind == "G":
        value = dim_G(k, n)
    elif kind == "H":
        value = dim_H(k, n)
    else:
        f = factor_trial(n)
        if kind == "A":
            value = dim_A(k, f)
        elif kind == "B":
            value = dim_B(k, f)
        else:
            value = dim_delta(k, f)
    payload = {"kind": kind, "k": k, "N": n, "value": _json_value(value)}
    _emit(args, [str(value)], payload)
    return EXIT_OK


def _cmd_test(args) -> int:
    k, n = args.k, args.N
    oracle = DefaultOracle()
    if args.kind == "squarefree":
        value = _oracle_value(args.value, lambda: oracle.query_A(k, n))
        verdict = detectors.squarefree_test(n, k, value)
        lhs, rhs = dim_G(k, n), value
        compared = ("G", "A")
    else:
        value = _oracle_value(args.value, lambda: oracle.query_B(k, n))
        verdict = detectors.primality_test(n, k, value)
        lhs, rhs = dim_H(k, n), value
        compared = ("H", "B")
    lines = [
        f"{verdict.conclusion} ({verdict.relation}; "
        f"{compared[0]}={lhs}, {compared[1]}={rhs})"
    ]
    if verdict.exception_tag:
        lines.append(f"exception: {verdict.exception_tag}")
    if verdict.suspicious:
        print(f"warning: {verdict.suspicious}", file=sys.stderr)
    payload = {
        "test": args.kind, "k": k, "N": n,
        "relation": verdict.relation, "conclusion": verdict.conclusion,
        "exception_tag": verdict.exception_tag, "suspicious": verdict.suspicious,
        compared[0]: _json_value(lhs), compared[1]: rhs,
    }
    _emit(args, lines, payload)
    if verdict.suspicious:
        return EXIT_FAILURE
    return EXIT_EXCEPTION_CASE if verdict.conclusion == detectors.EXCEPTION else EXIT_OK


def _cmd_bounds(args) -> int:
    k, n = args.k, args.N
    value = _oracle_value(args.value, lambda: DefaultOracle().query_A(k, n))
    rep = bounds.square_divisor_bounds(k, n, value)
    payload = {
        "k": k, "N": n,
        "T0": _json_value(rep.T0), "T": _json_value(rep.T),
        "curly_L": rep.curly_L, "certificate": rep.certificate,
        "theta": rep.theta, "x1": rep.x1, "x0": rep.x0,
    }
    if rep.certificate == bounds.INTERVAL:
        lines = [
            f"T0={rep.T0} T={rep.T} L={rep.curly_L!r} theta={rep.theta!r}",
            f"interval: {rep.x1!r} < d < {rep.x0!r}",
        ]
    else:
        lines = [
            f"T0={rep.T0} T={rep.T} L={rep.curly_L!r}",
            rep.certificate,
        ]
    _emit(args, lines, payload)
    return EXIT_OK


def _factors_json(factors) -> list[list[int]]:
    return [[p, e] for p, e in factors]


def _cmd_factor(args) -> int:
    # the reduction refuses equal weights too, but only after the oracle
    # has factored N, which can spend the whole rho budget
    if args.k1 == args.k2:
        raise ValueError("--k1 and --k2 must differ")
    n = args.N
    rng = random.Random(args.seed)
    oracle = DefaultOracle()
    a1 = _oracle_value(args.a1, lambda: oracle.query_A(args.k1, n))
    a2 = _oracle_value(args.a2, lambda: oracle.query_A(args.k2, n))
    if args.mode == "squarefull":
        split = reductions.factor_squarefull_two_values(n, args.k1, a1, args.k2, a2, rng)
        payload = {
            "mode": "squarefull", "N": n, "E": split.E,
            "L": _factors_json(split.L.factors),
        }
        _emit(args, [f"E={split.E} L={split.L}"], payload)
        return EXIT_OK
    b = _oracle_value(args.b, lambda: oracle.query_B(args.kb, n))
    fac = reductions.full_factor_three_values(n, args.k1, a1, args.k2, a2, args.kb, b, rng)
    payload = {"mode": "full", "N": n, "factors": _factors_json(fac.factors)}
    _emit(args, [str(fac)], payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    lo, hi = args.range
    sweep = sweeps.trichotomy_sweep if args.mode == "squarefree" else sweeps.primality_sweep
    rep = sweep(lo, hi, args.k)  # refused before any block is sieved
    lines = [
        f"sweep {args.mode} {lo}..{hi} k={','.join(map(str, args.k))}: "
        f"checked {rep.checked} pairs, {len(rep.violations)} violations",
        "exceptions observed: "
        + (", ".join(f"(k={k},N={n})" for k, n in sorted(rep.exceptions_observed)) or "none"),
    ]
    for k, n, want, got in rep.violations[:50]:
        lines.append(f"violation at (k={k}, N={n}): expected sign {want}, got {got}")
    payload = {
        "mode": args.mode, "lo": lo, "hi": hi, "ks": list(args.k),
        "checked": rep.checked,
        "violations": [list(v) for v in rep.violations],
        "exceptions_observed": [list(e) for e in sorted(rep.exceptions_observed)],
    }
    _emit(args, lines, payload)
    return EXIT_OK if rep.ok else EXIT_FAILURE


_DISPATCH = {
    "dim": _cmd_dim,
    "test": _cmd_test,
    "bounds": _cmd_bounds,
    "factor": _cmd_factor,
    "sweep": _cmd_sweep,
}


def _error_text(exc: Exception) -> str:
    """What the one error line says; an answer past the digit limit is a ValueError."""
    if "integer string conversion" in str(exc):
        return _past_digit_limit("the answer has", "printing")
    return str(exc)


def main(argv=None) -> int:
    """Run one CLI request on ``argv`` and return its exit code, never
    ending the process (``dimfactor.__main__.run`` does that).  It maps
    exceptions to exit codes in one place: a ``DimfactorError`` to 1, any
    other ``ValueError`` to 64.  The rho give-up is ``arith.RHO_STEPS``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except (DimfactorError, ValueError) as exc:
        # a DimfactorError is a failed computation even when it is also a
        # ValueError (DomainError, InconsistentInputsError)
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_FAILURE if isinstance(exc, DimfactorError) else EXIT_USAGE
