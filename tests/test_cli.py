import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dimfactor
from dimfactor import arith, dimensions
from dimfactor.bounds import cubic_margin
from dimfactor.cli import build_parser, main
from dimfactor.sweeps import MAX_SWEEP_HI, SMALL_WINDOW


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "dim", "A", "2", "11")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "dim", "delta", "2", "4")
    assert code == 0 and out.strip() == "-1/2"
    code, out, _ = run_cli(capsys, "dim", "H", "4", "6")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "dim", "G", "2", "8", "--json")
    payload = json.loads(out)
    assert payload == {"kind": "G", "k": 2, "N": 8, "value": "1/2"}
    code, out, _ = run_cli(capsys, "dim", "B", "12", "1", "--json")
    assert json.loads(out)["value"] == 1


def test_dim_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "dim", "A", "3", "5")
    assert code == 64
    code, _, _ = run_cli(capsys, "dim", "A", "2", "0")
    assert code == 64


def test_test_command(capsys):
    code, out, _ = run_cli(capsys, "test", "squarefree", "2", "12")
    assert code == 0 and out.startswith("NOT_SQUAREFREE")
    code, out, _ = run_cli(capsys, "test", "prime", "2", "97")
    assert code == 0 and out.startswith("PRIME")
    # psi_12 passes Miller-Rabin at the twelve bases 2..37; the default
    # oracle must still factor it
    code, out, _ = run_cli(capsys, "test", "prime", "2", "318665857834031151167461")
    assert code == 0 and out.startswith("COMPOSITE")
    code, out, _ = run_cli(capsys, "test", "squarefree", "2", "4")
    assert code == 2 and out.startswith("EXCEPTION")
    # explicit oracle value wins over the default oracle; an impossible one
    # still prints its verdict, but exits 1
    code, out, err = run_cli(capsys, "test", "squarefree", "2", "100", "999")
    assert code == 1 and out.startswith("NOT_SQUAREFREE")
    assert "warning" in err
    code, out, _ = run_cli(capsys, "test", "prime", "2", "91", "--json")
    payload = json.loads(out)
    assert payload["conclusion"] == "EXCEPTION" and code == 2


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, conclusion, code",
    [
        (["test", "prime", "2", "97", "100000"], "COMPOSITE", 1),
        (["test", "squarefree", "2", "12", "3"], "NOT_SQUAREFREE", 1),
        (["test", "prime", "2", "97", "7"], "PRIME", 0),
        # 1000003 is prime and A(28, 1000003) = 2250006: one less gives the
        # 12-scaled gap 12, below the floor k - 15 = 13; two less clears it
        (["test", "squarefree", "28", "1000003", "2250005"], "NOT_SQUAREFREE", 1),
        (["test", "squarefree", "28", "1000003", "2250004"], "NOT_SQUAREFREE", 0),
    ],
    ids=["prime-impossible", "squarefree-impossible", "prime-truthful",
         "squarefree-below-floor", "squarefree-above-floor"],
)
def test_suspicious_verdicts_exit_failure(capsys, argv, conclusion, code, json_flag):
    # an oracle value no truthful oracle gives keeps its verdict on stdout,
    # is flagged on stderr and in the JSON, and exits 1
    got, out, err = run_cli(capsys, *argv, *json_flag)
    assert got == code
    if json_flag:
        payload = json.loads(out)
        assert payload["conclusion"] == conclusion
        assert (payload["suspicious"] is not None) == (code == 1)
    else:
        assert out.startswith(conclusion)
    assert err.startswith("warning:") if code == 1 else err == ""


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "2", "12493")
    assert code == 0 and "interval" in out
    code, out, _ = run_cli(capsys, "bounds", "2", "12493", "--json")
    payload = json.loads(out)
    assert payload["T0"] == 193 and payload["T"] == 200
    assert payload["x1"] < 31 < payload["x0"]
    # domain error surfaces as an operational failure
    code, _, err = run_cli(capsys, "bounds", "2", "500")
    assert code == 1 and "729" in err
    code, out, _ = run_cli(capsys, "bounds", "2", "1009", "--json")
    assert json.loads(out)["certificate"] == "NO_LARGE_SQUARE_DIVISOR"


@pytest.mark.parametrize(
    "n, value, code, certificate",
    [
        # t^3 is past float range, but the depth is formed exactly
        (10**120 + 1, 0, 0, "INTERVAL"),
        # the depth underflows (partly, then wholly), but the lower root
        # stays near sqrt((k-1)N/T) = 1
        (10**160 + 1, 0, 0, "INTERVAL"),
        (10**200 + 1, 0, 0, "INTERVAL"),
        (10**299 + 1, 0, 0, "INTERVAL"),
        # t itself is past float range: no roots, one error line
        (10**400 + 1, 0, 1, None),
        # N / t^3 is past float range, so the depth is far above 2
        (10**400 + 1, (10**400 + 1) // 12, 0, "NO_LARGE_SQUARE_DIVISOR"),
    ],
    ids=["1e120-interval", "1e160-interval", "1e200-interval", "1e299-interval",
         "1e400-roots-out-of-range", "1e400-no-divisor"],
)
def test_bounds_at_levels_past_float_range(capsys, n, value, code, certificate):
    got, out, err = run_cli(capsys, "bounds", "2", str(n), str(value), "--json")
    assert got == code
    assert "Traceback" not in err
    if certificate is None:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        payload = json.loads(out)
        assert payload["certificate"] == certificate and err == ""
        if certificate == "INTERVAL":
            x1, T, L = payload["x1"], payload["T"], payload["curly_L"]
            assert 0.99 <= x1 < 27 and payload["x0"] > math.isqrt(n)
            # x1 is a root of the cubic: its margin changes sign across it
            below, above = (cubic_margin(2, n, T, L, x1 * (1 + s * 1e-9)) for s in (-1, 1))
            assert below < 0 < above


def test_oracle_out_of_rho_budget_is_one_error_line(capsys, monkeypatch):
    # both factors lie above the trial-division primes, so rho must run;
    # only a command that takes the value is told to pass it
    monkeypatch.setattr(arith, "RHO_STEPS", 64)
    n = str(1000003 * 1000033)
    for argv, advice in ((["dim", "A", "2", n], False), (["test", "squarefree", "2", n], True)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("explicitly" in err) == advice, argv


def test_factor_fetches_each_level_once(capsys, monkeypatch):
    # A(k1), A(k2) and B(kb) come from one factorization of the level
    calls = []
    factor_trial = dimensions.factor_trial
    monkeypatch.setattr(dimensions, "factor_trial", lambda n: calls.append(n) or factor_trial(n))
    code, out, _ = run_cli(capsys, "factor", "full", "12493", "--seed", "7")
    assert code == 0 and out.strip() == "13*31^2"
    assert calls == [12493]


def test_factor_squarefull(capsys):
    code, out, _ = run_cli(capsys, "factor", "squarefull", "8640", "--seed", "7")
    assert code == 0 and out.strip() == "E=5 L=2^6*3^3"
    code, out, _ = run_cli(capsys, "factor", "squarefull", "8640", "--seed", "7", "--json")
    payload = json.loads(out)
    assert payload["E"] == 5 and payload["L"] == [[2, 6], [3, 3]]
    # G(2, 150) and G(4, 150), the values a squarefree 150 would have: the
    # split cannot tell them from the truth (E = 6, L = 5^2) and prints
    # E = 150; `factor full` factors E and refuses them
    code, out, _ = run_cli(capsys, "factor", "squarefull", "150", "--a1", "12", "--a2", "37")
    assert code == 0 and out.strip() == "E=150 L=1"
    code, _, err = run_cli(capsys, "factor", "full", "150", "--a1", "12", "--a2", "37")
    assert code == 1 and err.startswith("error:")


def test_factor_full(capsys):
    code, out, _ = run_cli(capsys, "factor", "full", "12493", "--seed", "7", "--json")
    payload = json.loads(out)
    assert payload["factors"] == [[13, 1], [31, 2]]
    code, out, _ = run_cli(capsys, "factor", "full", "1", "--seed", "7")
    assert code == 0 and out.strip() == "1"
    # explicit oracle values accepted on the command line
    code, out, _ = run_cli(
        capsys, "factor", "full", "12", "--a1", "0", "--a2", "2", "--b", "0",
        "--seed", "7", "--json",
    )
    assert code == 0 and json.loads(out)["factors"] == [[2, 2], [3, 1]]


def test_weights_past_the_old_cap(capsys):
    # every subcommand takes a weight far above 2^20
    k = 10**8 + 2
    code, out, _ = run_cli(capsys, "dim", "A", str(k), "44100")
    assert code == 0 and int(out) == dimensions.dim_A(k, arith.factor_trial(44100))
    code, out, _ = run_cli(capsys, "test", "squarefree", str(k), "44100")
    assert code == 0 and out.startswith("NOT_SQUAREFREE")
    code, out, _ = run_cli(capsys, "test", "prime", str(k), "12491")
    assert code == 0 and out.startswith("PRIME")
    code, out, _ = run_cli(capsys, "bounds", str(k), "12493", "--json")
    assert code == 0 and json.loads(out)["T0"] == (k - 1) * 12493 - 12 * dimensions.dim_A(
        k, arith.factor_trial(12493)
    )
    code, out, _ = run_cli(
        capsys, "factor", "full", "44100", "--k1", str(k), "--k2", str(k + 2), "--kb", str(k),
        "--seed", "7", "--json",
    )
    assert code == 0 and json.loads(out)["factors"] == [[2, 2], [3, 2], [5, 2], [7, 2]]


def test_factor_rejects_equal_weights(capsys):
    code, _, err = run_cli(capsys, "factor", "squarefull", "72", "--k1", "2", "--k2", "2")
    assert code == 64 and "differ" in err


def test_sweep_command(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2..2000", "--k", "2,4")
    assert code == 0
    assert "0 violations" in out and "(k=2,N=4)" in out
    code, out, _ = run_cli(capsys, "sweep", "2..2000", "--k", "2", "--mode", "prime", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["violations"] == []
    assert [2, 91] in payload["exceptions_observed"]


def test_sweep_usage(capsys):
    code, _, _ = run_cli(capsys, "sweep", "10", "--k", "2")
    assert code == 64
    code, _, _ = run_cli(capsys, "sweep", "2..1000", "--k", "5")
    assert code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "squarefree", "2", "12", "-1"],
        ["test", "prime", "2", "97", "-1"],
        ["bounds", "2", "12493", "-5"],
        ["factor", "squarefull", "72", "--a1", "-3"],
        ["factor", "full", "72", "--b", "-1"],
    ],
)
def test_negative_oracle_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("error:") and "nonnegative" in err


def test_sweep_cap(capsys, monkeypatch):
    import dimfactor.sweeps as sweeps

    def refuse(*_):
        raise AssertionError("the sweep must be refused before any table is built")

    monkeypatch.setattr(sweeps, "star_blocks", refuse)
    monkeypatch.setattr(sweeps, "sharp_blocks", refuse)
    for mode in ("squarefree", "prime"):
        code, out, err = run_cli(capsys, "sweep", f"2..{MAX_SWEEP_HI + 1}", "--mode", mode)
        assert code == 64 and out == ""
        assert err.startswith("error:") and str(MAX_SWEEP_HI) in err and len(err.splitlines()) == 1
        code, _, err = run_cli(capsys, "sweep", "2..10000000000000", "--mode", mode, "--json")
        assert code == 64 and "sweep cap" in err
        # so is a weight given twice
        code, out, err = run_cli(capsys, "sweep", "2..100", "--k", "2,4,2", "--mode", mode)
        assert code == 64 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error:") and "weight 2 is given more than once" in err
    with pytest.raises(ValueError):
        sweeps.trichotomy_sweep(2, MAX_SWEEP_HI + 1, (2,))
    # weights whose tables would overflow int64 are refused the same way
    code, _, err = run_cli(capsys, "sweep", "2..100", "--k", str(1 << 60))
    assert code == 64 and "too large" in err


def test_seed_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "factor", "full", "44100", "--seed", "123", "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def _child(*args):
    """Run ``python *args`` in a fresh process that imports the same
    dimfactor as this one, installed or not."""
    root = os.path.dirname(os.path.dirname(dimfactor.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point():
    out = _child("-m", "dimfactor", "dim", "A", "2", "11")
    assert out.returncode == 0 and out.stdout.strip() == "1"


# runs the CLI on argv, then prints whether numpy was ever imported
_CLI_THEN_NUMPY = (
    "import sys; from dimfactor.cli import main; main(sys.argv[1:]); print('numpy' in sys.modules)"
)


@pytest.mark.parametrize(
    "argv, numpy_loaded",
    [
        (["dim", "A", "2", "11"], False),
        (["dim", "B", "12", "5000"], False),
        (["test", "squarefree", "2", "12", str(dimensions.dim_A(2, arith.factor_trial(12)))], False),
        (["test", "prime", "2", "97", str(dimensions.dim_B(2, arith.factor_trial(97)))], False),
        (["bounds", "2", "12493", str(dimensions.dim_A(2, arith.factor_trial(12493)))], False),
        (["factor", "full", "12493"], False),
        (["factor", "squarefull", "8640"], False),
        (["sweep", "2..1000", "--k", "2"], False),
        (["sweep", f"2..{SMALL_WINDOW + 1}", "--k", "2", "--mode", "prime"], False),
        (["sweep", f"2..{SMALL_WINDOW + 2}", "--k", "2"], True),
    ],
)
def test_numpy_loads_only_when_a_sweep_runs(argv, numpy_loaded):
    # a sweep sieves a window of at most SMALL_WINDOW levels in pure Python,
    # and a wider one in numpy
    out = _child("-c", _CLI_THEN_NUMPY, *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(numpy_loaded)


def test_library_calls_do_not_load_numpy():
    out = _child("-c", "import sys, dimfactor as d; d.dim_A(2, d.factor_trial(11)); "
                 "print('numpy' in sys.modules)")
    assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr


def test_cli_import_keeps_the_sweep_modules_loaded():
    # perfbench/spans.py reads the kernel and sweep functions out of
    # sys.modules once the CLI is imported, so both modules must load with
    # it; numpy must not
    from dimfactor import sweeps

    assert dimfactor.trichotomy_sweep is sweeps.trichotomy_sweep
    assert dimfactor.primality_sweep is sweeps.primality_sweep
    assert dimfactor.SweepReport is sweeps.SweepReport
    out = _child("-c", "import sys, dimfactor.cli; "
                 "print([m in sys.modules for m in ('dimfactor.kernels', 'dimfactor.sweeps', 'numpy')])")
    assert out.returncode == 0 and out.stdout.strip() == "[True, True, False]", out.stderr


def test_json_round_trip(capsys):
    # parse(print(x)) reproduces the printed report for every report type
    for argv in (
        ["dim", "delta", "2", "4", "--json"],
        ["test", "squarefree", "2", "12", "--json"],
        ["bounds", "2", "12493", "--json"],
        ["factor", "full", "700", "--seed", "3", "--json"],
        ["sweep", "2..500", "--k", "2", "--json"],
    ):
        main(argv)
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


# --- argv fuzz ---------------------------------------------------------------
#
# Random command lines, mostly well formed, run in-process: whatever the
# input, main returns one of the documented exit codes, writes no
# traceback, and prints parseable JSON under --json (failures print
# nothing on stdout).  Levels and oracle values reach 10^400; the
# default oracle's rho runs with a 2^12-step bound, so each example stays
# short whatever level it draws.  Sweep HI values stay at most 10^4 or go
# above the cap, so no draw builds a large table.

_WEIGHTS = (2, 4, 6, 12, 14, 26)
_weights = st.one_of(
    st.sampled_from(_WEIGHTS), st.integers(-4, 30), st.sampled_from([1 << 20, (1 << 20) + 2, 10**9]),
    st.integers(-4, 10**400),
)
_levels = st.one_of(st.integers(-3, 60), st.integers(2, 10**6), st.integers(2, 10**400))
_values = st.one_of(
    st.integers(-3, 60), st.integers(-(10**6), 10**6), st.integers(-(2**70), 2**70),
    st.integers(-(10**400), 10**400),
)
_his = st.one_of(st.integers(-5, 10**4), st.integers(MAX_SWEEP_HI + 1, 10**30))
_garbage = st.sampled_from(["", "--", "-x", "..", "1..", "abc", "--k", "2,,4", "nan", "1e3", "--mode", "A"])


def _text(strategy):
    return strategy.map(str)


def _opts(*pairs):
    """Zero to four of the given (flag, value strategy) pairs, flattened."""
    one = st.one_of(*[st.tuples(st.just(flag), _text(v)).map(list) for flag, v in pairs])
    return st.lists(one, max_size=4).map(lambda opts: [x for o in opts for x in o])


_dim = st.tuples(
    st.sampled_from(["A", "B", "G", "H", "delta", "Q"]), _text(_weights), _text(_levels)
).map(lambda t: ["dim", *t])
_test = st.tuples(
    st.sampled_from(["squarefree", "prime"]), _text(_weights), _text(_levels),
    st.lists(_text(_values), max_size=1),
).map(lambda t: ["test", *t[:3], *t[3]])
_bounds = st.tuples(_text(_weights), _text(_levels), st.lists(_text(_values), max_size=1)).map(
    lambda t: ["bounds", *t[:2], *t[2]]
)
_factor = st.tuples(
    st.sampled_from(["squarefull", "full"]), _text(_levels),
    _opts(("--k1", _weights), ("--k2", _weights), ("--kb", _weights),
          ("--a1", _values), ("--a2", _values), ("--b", _values)),
).map(lambda t: ["factor", t[0], t[1], *t[2]])
_range = st.one_of(
    st.tuples(st.integers(-5, 10**4), _his).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["10", "5..", "..9", "a..b", "2..2", "9..3"]),
)
_sweep = st.tuples(
    _range,
    st.lists(st.one_of(
        st.lists(_weights, min_size=1, max_size=3).map(lambda ks: ["--k", ",".join(map(str, ks))]),
        st.sampled_from([["--mode", "prime"], ["--mode", "squarefree"]]),
    ), max_size=2),
).map(lambda t: ["sweep", t[0], *[x for o in t[1] for x in o]])
_common = st.lists(st.one_of(
    st.just(["--json"]),
    st.tuples(st.just("--seed"), _text(_values)).map(list),
), max_size=3).map(lambda opts: [x for o in opts for x in o])
_argvs = st.tuples(
    st.one_of(_dim, _test, _bounds, _factor, _sweep),
    _common,
    st.one_of(st.just([]), st.just([]), st.just([]), _garbage.map(lambda g: [g])),
).map(lambda t: t[0] + t[1] + t[2])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs)
def test_argv_fuzz_keeps_exit_code_contract(capsys, monkeypatch, argv):
    monkeypatch.setattr(arith, "RHO_STEPS", 1 << 12)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 64), (code, argv)
    assert "Traceback" not in err
    if "--json" in argv and (out or code in (0, 2)):
        json.loads(out)


def test_readme_names_every_cli_flag():
    # the --flags README's CLI section names are exactly the parser's options
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        opt for p in subparsers.choices.values() for a in p._actions for opt in a.option_strings
    }
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == options - {"-h", "--help"}


def test_benchmark_trace_targets_resolve():
    # perfbench/spans.py wraps these attributes by name once the CLI is
    # imported; a missing one makes every traced benchmark run fail
    import importlib.util

    import dimfactor.cli  # noqa: F401  (imports every traced module)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, module, attr in spans.TARGETS:
        assert module in sys.modules, module
        assert callable(getattr(sys.modules[module], attr, None)), (module, attr)
