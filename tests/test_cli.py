import errno
import json
import math
import os
import random
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
    code, out, err = run_cli(capsys, "dim", "A", "3", "10")
    assert code == 64 and out == ""
    assert err.splitlines()[-1] == "error: argument k: weight must be a positive even integer, got 3"
    code, _, _ = run_cli(capsys, "dim", "A", "2", "0")
    assert code == 64
    code, out, err = run_cli(capsys, "dim", "delta", "2", "1")
    assert code == 64 and out == "" and err == "error: level must be >= 2, got 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "squarefree", "2", "1"],
        ["test", "prime", "2", "1"],
        ["test", "prime", "2", "1", "0"],
    ],
)
def test_level_one_is_refused_by_the_library_rule(capsys, argv):
    # the CLI states no level rule of its own: the detectors refuse N < 2
    # (dim_delta too, see above), and main maps their ValueError to exit 64
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (64, "", "error: level must be >= 2, got 1\n")


# Past Python's default limit of 4,300 digits an int does not convert to a
# string; an answer that long is a refused request, not a traceback.
_BIG_K = 10**4299 - 2  # 4,299 digits, even; A(k, 1000) and H(k, 1009) have 4,301


_default_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() != 4300,
    reason="needs Python's default 4,300-digit int-to-string limit",
)


@_default_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A", str(_BIG_K), "1000"],
        ["dim", "G", str(10**3000 + 2), str(10**3000 + 1)],
        ["test", "prime", str(_BIG_K), "1009", "0", "--json"],
    ],
    ids=["dim-A", "dim-G", "test-prime-json"],
)
def test_answers_past_the_digit_limit_are_refused(capsys, argv):
    # the line names the limit and the variable a CLI user can set, not
    # CPython's advice to call sys.set_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4300 digits" in err and "PYTHONINTMAXSTRDIGITS=0" in err
    assert "set_int_max_str_digits" not in err


def test_the_digit_limit_advice_works(monkeypatch):
    # with the variable the error line names, the refused answer prints
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    proc = _child("-m", "dimfactor", "dim", "A", str(_BIG_K), "1000")
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.strip()) == 4_301 and proc.stdout.strip().isdigit()


_NINES = "9" * 5_000  # past the limit on reading an int from a string


@_default_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A", "2", _NINES],
        ["sweep", f"2..{_NINES}"],
        ["test", "prime", "2", "97", _NINES],
        ["bounds", "2", "12493", _NINES],
        ["factor", "full", "72", "--a1", _NINES],
        ["factor", "full", "72", "--a2", _NINES],
        ["factor", "full", "72", "--b", _NINES],
        ["factor", "full", "72", "--seed", _NINES],
    ],
    ids=["dim-level", "sweep-range", "test-value", "bounds-value", "a1", "a2", "b", "seed"],
)
def test_arguments_past_the_digit_limit_are_named_briefly(capsys, argv):
    # every integer argument is read by one converter: past the limit it
    # names the digit count and the variable that lifts the limit, and
    # does not echo the digits
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and len(errors[0]) < 200, err
    assert "5000 digits" in errors[0] and "PYTHONINTMAXSTRDIGITS=0" in errors[0]
    assert "9" * 50 not in err


_LONG_ODD = str(10**4000 + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A", _LONG_ODD, "11"],
        ["test", "prime", "2", "97", f"-{_LONG_ODD}"],
        ["factor", "full", "72", f"--b=-{_LONG_ODD}"],
        ["sweep", f"2..{_LONG_ODD}"],
        ["sweep", "2..100", "--k", _LONG_ODD[:-1] + "0"],
    ],
    ids=["odd-weight", "negative-value", "negative-b", "sweep-cap", "sweep-weight"],
)
def test_refused_long_integers_are_named_briefly(capsys, argv):
    # a 4,001-digit integer that a rule refuses is named by its digit
    # count and its ends, in one short line
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and len(errors[0]) < 200 and "4001-digit number" in errors[0], err


def test_a_lifted_digit_limit_reaches_the_brief_sweep_cap(monkeypatch):
    # with the limit lifted the range parses, and check_sweep refuses it
    # in one line that names HI by its digit count
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    proc = _child("-m", "dimfactor", "sweep", f"2..{_NINES}")
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr.startswith("error: HI = a 5000-digit number") and "sweep cap" in proc.stderr
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200


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
        # below the thresholds the comparison is known: G(4, 9) = 2 against
        # the truthful A = 1, and H(2, 25) = 1 against the truthful B = 0
        (["test", "squarefree", "4", "9", "2"], "NOT_SQUAREFREE", 1),
        (["test", "prime", "2", "25", "1"], "COMPOSITE", 1),
    ],
    ids=["prime-impossible", "squarefree-impossible", "prime-truthful",
         "squarefree-below-floor", "squarefree-above-floor", "squarefree-small-level",
         "prime-small-level"],
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
    # only a command that takes the value is told to pass it.  A cofactor
    # past 50 digits is named by its digit count and its ends.
    monkeypatch.setattr(arith, "RHO_STEPS", 64)
    rng, primes = random.Random(120), []
    while len(primes) < 2:  # two seeded 60-digit primes
        p = rng.randrange(10**59, 10**60)
        if arith.is_probable_prime(p):
            primes.append(p)
    big = primes[0] * primes[1]
    s = str(big)
    assert len(s) == 120
    for n, shown in ((1000003 * 1000033, "factoring 1000036000099 takes"),
                     (big, f"factoring a 120-digit number {s[:5]}...{s[-5:]} takes")):
        for argv, advice in ((["dim", "A", "2", str(n)], False),
                             (["test", "squarefree", "2", str(n)], True)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert shown in err and len(err) < 160, err
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


def test_factor_rejects_equal_weights(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "factor", "squarefull", "72", "--k1", "2", "--k2", "2")
    assert code == 64 and "differ" in err

    # refused before the oracle factors N, which could spend the rho budget
    def refuse(*_):
        raise AssertionError("equal weights must be refused before the oracle is queried")

    monkeypatch.setattr(dimensions.DefaultOracle, "query_A", refuse)
    code, out, err = run_cli(capsys, "factor", "squarefull", "72", "--k1", "4", "--k2", "4")
    assert (code, out, err) == (64, "", "error: --k1 and --k2 must differ\n")


def test_sweep_command(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2..2000", "--k", "2,4")
    assert code == 0
    assert "0 violations" in out and "(k=2,N=4)" in out
    code, out, _ = run_cli(capsys, "sweep", "2..2000", "--k", "2", "--mode", "prime", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["violations"] == []
    assert [2, 91] in payload["exceptions_observed"]


def test_sweep_prints_its_violations(capsys, monkeypatch):
    # a doctored catalogue: without the pair (2, 9) the sweep finds the
    # equality there a violation; with 60 signs no level takes, the text
    # shows the first 50 violations and the JSON lists them all
    import dimfactor.sweeps as sweeps

    doctored = dict(sweeps.SQUAREFREE_EXCEPTIONS)
    del doctored[(2, 9)]
    monkeypatch.setattr(sweeps, "SQUAREFREE_EXCEPTIONS", doctored)
    code, out, _ = run_cli(capsys, "sweep", "2..100", "--k", "2")
    assert code == 1
    assert out.splitlines()[2:] == ["violation at (k=2, N=9): expected sign 1, got 0"]
    monkeypatch.setattr(sweeps, "SQUAREFREE_EXCEPTIONS",
                        doctored | {(2, n): -1 for n in range(10, 70)})
    code, out, _ = run_cli(capsys, "sweep", "2..100", "--k", "2")
    lines = [line for line in out.splitlines() if line.startswith("violation at")]
    assert code == 1 and "61 violations" in out
    code, out, _ = run_cli(capsys, "sweep", "2..100", "--k", "2", "--json")
    violations = json.loads(out)["violations"]
    assert code == 1
    assert [v[:3] for v in violations] == [[2, 9, 1]] + [[2, n, -1] for n in range(10, 70)]
    assert lines == [f"violation at (k={k}, N={n}): expected sign {want}, got {got}"
                     for k, n, want, got in violations[:50]]


def test_sweep_usage(capsys):
    code, _, _ = run_cli(capsys, "sweep", "10", "--k", "2")
    assert code == 64
    code, _, _ = run_cli(capsys, "sweep", "2..1000", "--k", "5")
    assert code == 64


@pytest.mark.parametrize(
    "argv,bad,expected",
    [
        (["sweep", "2..1e5"], "2..1e5", "LO..HI with integers"),
        (["sweep", "2..100", "--k", "a"], "a", "positive even integer"),
        (["dim", "A", "x", "10"], "x", "positive even integer"),
        (["dim", "A", "2", "x"], "x", "positive integer"),
    ],
    ids=["sweep-range", "sweep-weights", "dim-weight", "dim-level"],
)
def test_non_integer_arguments_name_the_expected_form(capsys, argv, bad, expected):
    # the usage error says what was expected, not which private helper
    # failed to convert the argument
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    message = err.splitlines()[-1]
    assert message.startswith("error: argument ") and expected in message and repr(bad) in message
    assert not re.search(r"\b_[a-z]", err), err


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

    for sieve in ("star_blocks", "sharp_blocks", "small_star_block", "small_sharp_block"):
        monkeypatch.setattr(sweeps, sieve, refuse)
    for mode in ("squarefree", "prime"):
        # check_sweep's range rule is the one the CLI states
        for bad in ("9..3", "1..5"):
            code, out, err = run_cli(capsys, "sweep", bad, "--mode", mode)
            assert code == 64 and out == ""
            assert err.splitlines() == [err.strip()] and err.startswith("error: bad range")
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


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A", "2", "11"],
        ["test", "prime", "2", "97"],
        ["bounds", "2", "12493"],
        ["sweep", "2..100"],
    ],
    ids=["dim", "test", "bounds", "sweep"],
)
def test_seed_is_a_factor_flag(capsys, argv):
    # only factor reads --seed (test_factor_full); elsewhere it is an
    # unknown argument
    code, out, err = run_cli(capsys, *argv, "--seed", "3")
    assert code == 64 and out == "" and "unrecognized arguments: --seed 3" in err


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


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["dim", "A", "2", "11"], 0),
        (["test", "squarefree", "2", "12", "3"], 1),
        (["test", "squarefree", "2", "4", "--json"], 2),
        (["sweep", "2..10", "--k", "3"], 64),
        (["--help"], 0),
        (["sweep", "2..3000", "--k", "2,4,6,12", "--mode", "prime", "--json"], 0),
    ],
    ids=["exit-0", "exit-1-suspicious", "exit-2", "exit-64", "help", "sweep-json"],
)
def test_process_entry_keeps_every_output_byte(capsys, monkeypatch, argv, expected_code):
    # the process entry flushes and ends the process itself: it must give
    # the same stdout, stderr and exit code as main does in process, with
    # stdout block-buffered as it is in a pipe
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code and out + err
    proc = _child("-m", "dimfactor", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_the_console_script_runs_the_process_entry():
    # the [project.scripts] target, which an installed console script calls
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as f:
        target = re.search(r'^dimfactor = "([\w.]+):(\w+)"$', f.read(), re.M)
    module, func = target.groups()
    assert (module, func) == ("dimfactor.__main__", "run")
    script = f"import sys; sys.argv[0] = 'dimfactor'; from {module} import {func}; {func}()"
    out = _child("-c", script, "dim", "A", "2", "11")
    assert (out.returncode, out.stdout, out.stderr) == (0, "1\n", "")
    out = _child("-c", script, "sweep", "2..10", "--k", "3")
    assert out.returncode == 64 and out.stdout == ""
    assert [line for line in out.stderr.splitlines() if line.startswith("error:")] == [
        "error: argument --k: weight must be a positive even integer, got 3"
    ]


@pytest.mark.parametrize(
    "argv", [["dim", "A", "2", "11"], ["sweep", "2..30000", "--k", "2,4,6,12", "--mode", "prime"]],
    ids=["short", "sweep"],
)
def test_a_closed_stdout_is_exit_1_without_a_traceback(argv):
    # the reader's end of stdout is closed before the request starts, so
    # every write to it fails: unbuffered, in the print; buffered, in the
    # flush before the process ends
    root = os.path.dirname(os.path.dirname(dimfactor.__file__))
    env = {**os.environ, "PYTHONPATH": root}
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "dimfactor", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env={**env, **unbuffered})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, ""), unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_stdout_is_exit_1_with_one_error_line():
    # every write to /dev/full fails with ENOSPC: unbuffered, in the
    # print; buffered, in the flush before the process ends
    root = os.path.dirname(os.path.dirname(dimfactor.__file__))
    env = {**os.environ, "PYTHONPATH": root}
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "dimfactor", "dim", "A", "2", "11"],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env={**env, **unbuffered})
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert proc.returncode == 1, unbuffered
        assert len(errors) == 1 and os.strerror(errno.ENOSPC) in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr, unbuffered


def test_help_states_the_user_contract(capsys):
    # the description is the cli module docstring: it speaks to users, so
    # it names every exit code and no maintainer detail
    code, out, _ = run_cli(capsys, "--help")
    text = " ".join(out.split())
    assert code == 0
    for exit_code in (0, 1, 2, 64):
        assert f"{exit_code} for " in text, exit_code
    for detail in ("__main__", "RHO_STEPS", "``"):
        assert detail not in out, detail


# runs the CLI on argv, then prints whether numpy and dataclasses were ever
# imported, and the dimfactor submodules that ran: a lazily registered one
# that never ran is not of type ModuleType, a check that reads no attribute
_CLI_THEN_NUMPY = (
    "import sys, types; from dimfactor.cli import main; main(sys.argv[1:]); "
    "print('numpy' in sys.modules, 'dataclasses' in sys.modules, *sorted("
    "n for n, m in sys.modules.items() if n.startswith('dimfactor.') and type(m) is types.ModuleType))"
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
    # and a wider one in numpy; no request imports dataclasses, and each
    # runs only the layers its subcommand calls
    out = _child("-c", _CLI_THEN_NUMPY, *argv)
    assert out.returncode == 0, out.stderr
    numpy_seen, dataclasses_seen, *ran = out.stdout.splitlines()[-1].split()
    assert numpy_seen == str(numpy_loaded)
    assert dataclasses_seen == "False"
    ran = {name.removeprefix("dimfactor.") for name in ran}
    if argv[0] == "sweep":
        assert {"detectors", "kernels", "sweeps"} <= ran
        assert not ran & {"reductions", "bounds"}, ran
    else:
        assert not ran & {"kernels", "sweeps"}, ran
        assert ("reductions" in ran) == (argv[0] == "factor"), ran


# runs the CLI on argv with numpy blocked, as where it is not installed
_CLI_WITHOUT_NUMPY = "import sys; sys.modules['numpy'] = None; from dimfactor.__main__ import run; run()"


@pytest.mark.parametrize("mode", ["squarefree", "prime"])
def test_a_wide_sweep_without_numpy_is_refused_in_one_line(mode):
    # without numpy a window wider than SMALL_WINDOW is refused before any
    # block is sieved, with one error line and no traceback; a narrower one
    # runs in pure Python and prints what it prints with numpy
    wide = _child("-c", _CLI_WITHOUT_NUMPY, "sweep", "2..100000", "--k", "2", "--mode", mode)
    assert (wide.returncode, wide.stdout) == (64, "")
    assert len(wide.stderr.splitlines()) == 1 and wide.stderr.startswith("error: ")
    assert "numpy" in wide.stderr and str(SMALL_WINDOW) in wide.stderr
    assert "Traceback" not in wide.stderr
    narrow = ["sweep", "2..30000", "--k", "2", "--mode", mode, "--json"]
    without, with_numpy = _child("-c", _CLI_WITHOUT_NUMPY, *narrow), _child("-m", "dimfactor", *narrow)
    assert (without.returncode, with_numpy.returncode) == (0, 0), without.stderr
    assert without.stdout == with_numpy.stdout and json.loads(without.stdout)["violations"] == []


def test_library_calls_do_not_load_numpy():
    out = _child("-c", "import sys, dimfactor as d; d.dim_A(2, d.factor_trial(11)); "
                 "print('numpy' in sys.modules)")
    assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr


def test_importing_the_package_runs_no_submodule():
    out = _child("-c", "import sys, types, dimfactor; print(sorted(n for n, m in sys.modules.items() "
                 "if n.startswith('dimfactor.') and type(m) is types.ModuleType))")
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr


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
# nothing on stdout).  Levels and oracle values reach 10^400, weights
# just under the 4,300-digit limit on converting an int to a string; the
# default oracle's rho runs with a 2^12-step bound, so each example stays
# short whatever level it draws.  Sweep HI values stay at most 10^4 or go
# above the cap, so no draw builds a large table.

_WEIGHTS = (2, 4, 6, 12, 14, 26)
_weights = st.one_of(
    st.sampled_from(_WEIGHTS), st.integers(-4, 30), st.sampled_from([1 << 20, (1 << 20) + 2, 10**9]),
    st.integers(-4, 10**400), st.integers(10**4000, 10**4299 - 1),
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
          ("--a1", _values), ("--a2", _values), ("--b", _values), ("--seed", _values)),
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
_common = st.lists(st.just(["--json"]), max_size=3).map(lambda opts: [x for o in opts for x in o])
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


# builds whole tables with every benchmark span installed and switched
# on, then prints the tracer's summary as JSON
_TRACED_TABLES = """
import importlib.util, json, sys
import dimfactor.cli
from dimfactor import kernels
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
tracer.on = True
kernels.dimension_tables(4, kernels.build_star_tables(0, 5000))
summary = tracer.summary()
print(json.dumps({"counters": summary["counters"], "peaks": summary["peaks"]}))
"""


def test_traced_benchmark_runs_read_the_whole_tables():
    # a traced run hands both tables to the tracer, which reads their
    # arrays and limit; in a child, so the wrappers stay out of this process
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = _child("-c", _TRACED_TABLES, os.path.join(root, "perfbench", "spans.py"))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["counters"]["sweeps.entries"] == 5001
    assert summary["peaks"]["kernels.table_bytes"] > 0
