"""Command-line interface: goldens, JSON schema, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import modgb
from conftest import timed
from modgb import fan as fan_module
from modgb.cli import COMMANDS, main
from test_pipeline import KATSURA5
from modgb.gb_integer import strong_gb

LINEAR = "ring QQ[x,y,z] degrevlex;\nideal(x + 2*z, x + 2*y);\n"
DELTONE = "ring QQ[x,y,z] degrevlex;\nideal(x^2 - y, x*y + z + 1, z^2 + x);\n"
MANYBAD = "ring QQ[x,y,z] degrevlex;\nideal(%s);\n"
DOUBLING = "ring QQ[x,y,z] lex;\nideal(2*x - y, 2*y - z);\n"
ZERO = "ring QQ[x,y] degrevlex;\nideal();\n"


@pytest.fixture()
def write(tmp_path):
    def _write(text):
        f = tmp_path / "in.txt"
        f.write_text(text)
        return str(f)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gb_golden(write, capsys):
    code, out, _ = run(capsys, "gb", write(LINEAR))
    assert code == 0
    assert out.strip() == "[x + 2*z, y - z]"


def test_gb_with_order_flag(write, capsys):
    code, out, _ = run(capsys, "gb", "--order", "lex", write(DOUBLING))
    assert code == 0
    assert out.strip() == "[x - 1/4*z, y - 1/2*z]"


MANYBAD_LEX = "ring QQ[x,y,z] lex;\nideal(x^2*y + 7*x*y^2 - 2, y^3 + x^2*z, z^3 + x^2 - y);\n"
# The lex basis of the many-bad-primes ideal prints 8225 characters; the
# digest pins all of them, the last element is spelled out.
MANYBAD_LEX_SHA256 = "956c707e07151c98ca512e6ec19127837561e08880049dd131f2fec4ed46e49a"
MANYBAD_LEX_LAST = (
    ", z^26 + 117649*z^25 + 49*z^24 + 28812*z^21 + 16*z^20 - 196*z^18 + 1764*z^17"
    " + 9604*z^16 + 67232*z^15 + 80*z^14 + 16*z^13 - 1176*z^12 + 8624*z^11"
    " + 67228*z^10 + 32*z^9 + 128*z^8 - 68*z^7 + 2352*z^6 + 15092*z^5 + 4*z^4"
    " + 32*z^3 + 96*z^2 + 128*z + 64]\n"
)
MANYBAD_LEX_RAD = (
    "rad(den) = 1577196049018615416910149161817345198512834060799701284382278522715195786\n"
    "rad(lcm) = 1577196049018615416910149161817345198512834060799701284382278522715195786\n"
    "equal\n"
)


def test_lex_goldens_of_the_many_bad_primes_ideal(write, capsys):
    path = write(MANYBAD_LEX)
    code, out, _ = run(capsys, "gb", "--order", "lex", path)
    assert code == 0
    assert out.endswith(MANYBAD_LEX_LAST)
    assert hashlib.sha256(out.encode()).hexdigest() == MANYBAD_LEX_SHA256
    code, out, _ = run(capsys, "rad-check", "--order", "lex", path)
    assert code == 0
    assert out == MANYBAD_LEX_RAD


def test_universal_denominator_golden(write, capsys):
    code, out, _ = run(capsys, "universal-denominator", write(DELTONE))
    assert code == 0
    assert out.strip() == "28 = 2^2 * 7"


def test_json_output(write, capsys):
    code, out, _ = run(capsys, "--json", "gb", write(LINEAR))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["basis"] == ["x + 2*z", "y - z"]
    code, out, _ = run(capsys, "--json", "universal-denominator", write(DELTONE))
    doc = json.loads(out)
    assert doc == {"schema": 1, "delta": "28", "factorization": "2^2 * 7"}


def test_nf(write, capsys):
    code, out, _ = run(capsys, "nf", "--poly", "x + 2*y", write(LINEAR))
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "nf", "--poly", "x + 2*y + 2*z", write(LINEAR))
    assert out.strip() == "2*z"


def test_nf_rejects_trailing_input(write, capsys):
    path = write("ring QQ[x,y] degrevlex;\nideal(x^2 - y);\n")
    for poly, col in (("x^2 ) garbage", 5), ("x^2, y", 4)):
        code, out, err = run(capsys, "nf", "--poly", poly, path)
        assert code == 1 and out == ""
        assert "line 1, column %d" % col in err


def test_classify(write, capsys):
    code, out, _ = run(
        capsys, "--json", "classify", "--primes", "2,5", write(DOUBLING)
    )
    assert code == 0
    doc = json.loads(out)
    by_prime = {r["prime"]: r for r in doc["primes"]}
    assert by_prime["2"]["status"] == "SIGMA_BAD"
    assert by_prime["5"]["status"] == "SIGMA_GOOD"
    assert by_prime["5"]["pauer"] == "PAUER_LUCKY"


def test_classify_builds_one_strong_basis_for_all_primes(write, capsys, monkeypatch):
    from modgb import cli, primes

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return strong_gb(*args, **kwargs)

    monkeypatch.setattr(cli, "strong_gb", counted)
    monkeypatch.setattr(primes, "strong_gb", counted)
    code, out, _ = run(capsys, "classify", "--primes", "3,5,7,11,13", write(DOUBLING))
    assert (code, out) == (0, "".join("%d: SIGMA_GOOD, PAUER_LUCKY\n" % p for p in (3, 5, 7, 11, 13)))
    assert len(calls) == 1
    # no strong basis when every prime is sigma-bad
    calls.clear()
    code, out, _ = run(capsys, "classify", "--primes", "2", write(DOUBLING))
    assert (code, out, calls) == (0, "2: SIGMA_BAD\n", [])


def test_strong_gb(write, capsys):
    code, out, _ = run(capsys, "strong-gb", write(DOUBLING))
    assert code == 0
    assert "lcm of leading coefficients: 2" in out


def test_rad_check(write, capsys):
    code, out, _ = run(capsys, "--json", "rad-check", write(DOUBLING))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"schema": 1, "rad_den": "2", "rad_lcm": "2", "equal": True}


def test_detect_bad(write, capsys):
    text = "ring QQ[x,y,z] degrevlex;\nideal(2*x - y, 2*y - z);\n"
    code, out, _ = run(
        capsys,
        "--json",
        "detect-bad",
        "--tau",
        "lex",
        "--primes",
        "3,5",
        write(text),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert {r["prime"] for r in doc["primes"]} == {"3", "5"}
    assert all(r["status"] == "UNDECIDED" for r in doc["primes"])


def test_detect_bad_elimination_orderings(write, capsys):
    text = (
        "ring QQ[x,y,z,w,s,t] degrevlex;\n"
        "ideal(x - t^3, y - s*t^2 + 2*s^2, z - s^2*t + 5, w - s^3 + 7*t);\n"
    )
    code, out, _ = run(
        capsys,
        "--json",
        "detect-bad",
        "--sigma",
        "elim(x,y,z,w)",
        "--tau",
        "elim(s,t)",
        "--primes",
        "2,3,5,7",
        write(text),
    )
    assert code == 0
    doc = json.loads(out)
    status = {r["prime"]: r["status"] for r in doc["primes"]}
    assert status == {
        "2": "TAU_BAD_CERTIFIED",
        "3": "TAU_BAD_CERTIFIED",
        "5": "UNDECIDED",
        "7": "TAU_BAD_CERTIFIED",
    }


def test_fan(write, capsys):
    code, out, _ = run(capsys, "fan", write(DELTONE))
    assert code == 0
    assert out.count("cone ") == 12
    assert "universal denominator: 28 = 2^2 * 7" in out


def test_modular_gb(write, capsys):
    code, out, _ = run(
        capsys, "modular-gb", "--order", "lex", "--seed", "7", write(DOUBLING)
    )
    assert code == 0
    assert out.splitlines()[0] == "[x - 1/4*z, y - 1/2*z]"


TAU_BAD = "ring QQ[x,y] lex;\nideal(x^2 - 5*y + 43, x*y + y^2 + 6*x + 1);\n"


def test_modular_gb_renders_rejected_primes_as_verdicts(write, capsys):
    argv = ("modular-gb", "--prime-bits", "6", "--max-primes", "7", "--seed", "0")
    argv += (write(TAU_BAD),)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    line = "rejected 37: TAU_BAD_CERTIFIED  tuple=[y^3, x*y, x^2]  beaten_by=[y^4, x]"
    assert [l for l in out.splitlines() if l.startswith("rejected")] == [line]
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert json.loads(out)["rejected"] == [
        {
            "prime": "37",
            "status": "TAU_BAD_CERTIFIED",
            "tuple": "[y^3, x*y, x^2]",
            "beaten_by": "[y^4, x]",
        }
    ]


def test_detect_bad_reports_sigma_bad_prime_and_judges_the_rest(write, capsys):
    argv = ("detect-bad", "--tau", "lex", "--primes", "37,41,43", write(TAU_BAD))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "37: SIGMA_BAD  witness_denominator=37",
        "41: UNDECIDED  tuple=[y^4, x]",
        "43: UNDECIDED  tuple=[y^4, x]",
    ]
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert json.loads(out)["primes"] == [
        {"prime": "37", "status": "SIGMA_BAD", "witness_denominator": "37"},
        {"prime": "41", "status": "UNDECIDED", "tuple": "[y^4, x]"},
        {"prime": "43", "status": "UNDECIDED", "tuple": "[y^4, x]"},
    ]


@pytest.mark.parametrize("command", ["fan", "universal-denominator"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_cones_below_one_exits_2(write, capsys, command, value):
    code, out, err = run(capsys, command, "--max-cones", value, write(DOUBLING))
    assert code == 2 and out == ""
    assert "must be at least 1" in err


@pytest.mark.parametrize("command", ["fan", "universal-denominator"])
@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_reduction_budget_exits_2_before_any_work(write, capsys, monkeypatch, command, value):
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was computed")

    monkeypatch.setattr(fan_module, "buchberger_reduced", no_basis)
    monkeypatch.setenv("MGB_BUDGET", value)
    code, out, err = run(capsys, command, write(DELTONE))
    assert code == 2 and out == ""
    assert "MGB_BUDGET must be a positive integer, got '%s'" % value in err


def test_empty_reduction_budget_means_the_default(write, capsys, monkeypatch):
    monkeypatch.setenv("MGB_BUDGET", "")
    code, out, _ = run(capsys, "universal-denominator", write(DELTONE))
    assert code == 0 and out.strip() == "28 = 2^2 * 7"


def test_universal_denominator_of_the_zero_ideal_exits_1(write, capsys):
    code, out, err = run(capsys, "universal-denominator", write(ZERO))
    assert code == 1 and out == ""
    assert "the zero ideal has no universal denominator" in err


def test_fan_of_the_zero_ideal_exits_1(write, capsys):
    code, out, err = run(capsys, "fan", write(ZERO))
    assert code == 1 and out == ""
    assert "the zero ideal has no universal denominator" in err


@pytest.mark.parametrize("command", ["fan", "universal-denominator"])
def test_exceeded_reduction_budget_exits_1(write, capsys, monkeypatch, command):
    monkeypatch.setenv("MGB_BUDGET", "30")
    code, out, err = run(capsys, command, write(DELTONE))
    assert code == 1 and out == ""
    assert re.search(r"reduction budget of 30 exhausted \(\d+ cones found\)", err)


@pytest.mark.parametrize("command", ["classify", "detect-bad"])
@pytest.mark.parametrize("value", ["0", "1", "4", "-3"])
def test_primes_flag_rejects_non_primes(write, capsys, command, value):
    code, out, err = run(capsys, command, "--primes", value, write(DOUBLING))
    assert code == 1 and out == ""
    assert "%s is not prime" % value in err


def test_out_of_memory_exits_1_with_one_line(write, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("modgb.cli.universal_denominator", exhausted)
    code, out, err = run(capsys, "universal-denominator", write(DELTONE))
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_modular_gb_exhausted_primes_exit_1(write, capsys):
    code, _, err = run(
        capsys, "modular-gb", "--order", "lex", "--prime-bits", "3", "--seed", "1",
        write(MANYBAD % "x^2*y + 7*x*y^2 - 2, y^3 + x^2*z, z^3 + x^2 - y"),
    )
    assert code == 1
    assert "used up" in err


@pytest.mark.parametrize("flag,value", [("--prime-bits", "1"), ("--max-primes", "0")])
def test_modular_gb_rejects_bad_budget(write, capsys, flag, value):
    code, _, err = run(capsys, "modular-gb", flag, value, write(DOUBLING))
    assert code == 2
    assert "must be at least" in err


@pytest.mark.parametrize("gens", ["2*x - y, 3*y^2 + x", "x - y, y^2 + x"])
@pytest.mark.parametrize("command", [["gb"], ["nf", "--poly", "x"]])
def test_integer_coefficients_exit_1_from_the_field_engine(write, capsys, gens, command):
    code, out, err = run(capsys, *command, write("ring ZZ[x,y] degrevlex;\nideal(%s);\n" % gens))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "ZZ is not a field" in err
    assert "Traceback" not in err


def test_parse_error_exits_1(write, capsys):
    code, _, err = run(capsys, "gb", write("ring QQ[x lex; ideal(x);"))
    assert code == 1
    assert "error:" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "gb", "/nonexistent/input.txt")
    assert code == 1
    assert "error:" in err


def test_bad_usage_exits_2_and_prints_grammar(capsys):
    code, _, err = run(capsys, "frobnicate", "x")
    assert code == 2
    assert "input file grammar" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(LINEAR))
    code, out, _ = run(capsys, "gb", "-")
    assert code == 0
    assert out.strip() == "[x + 2*z, y - z]"


def test_non_decimal_digit_exits_1_with_its_position(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("ring QQ[x] lex;\nideal(x^²);\n"))
    code, out, err = run(capsys, "gb", "-")
    assert code == 1 and out == ""
    assert "lexical at line 2, column 9" in err
    assert "Traceback" not in err


def test_strong_gb_over_integers_golden(write, capsys):
    code, out, _ = run(capsys, "strong-gb", write("ring ZZ[x,y] lex;\nideal(2*x - y, 2*y - x);\n"))
    assert code == 0
    assert out == "[x + y, 3*y]\nlcm of leading coefficients: 3\n"


@pytest.mark.parametrize(
    "command,message",
    [("strong-gb", "strong-gb needs coefficients in QQ or ZZ"), ("fan", "fan needs rational coefficients")],
)
def test_prime_field_coefficients_exit_1(write, capsys, command, message):
    code, out, err = run(capsys, command, write("ring ZZ/(7)[x,y] lex;\nideal(2*x - y, 2*y - x);\n"))
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_universal_denominator_one_prints_1(write, capsys):
    code, out, _ = run(capsys, "universal-denominator", write("ring QQ[x,y] lex;\nideal(x - y);\n"))
    assert (code, out) == (0, "1\n")


def test_input_without_ideal_exits_1(write, capsys):
    code, out, err = run(capsys, "gb", write("ring QQ[x,y] lex;\n"))
    assert (code, out, err) == (1, "", "error: input contains no ideal declaration\n")


@pytest.mark.parametrize("primes,message", [("3,x", "bad prime list '3,x'"), (",", "empty prime list")])
def test_malformed_prime_list_exits_1(write, capsys, primes, message):
    code, out, err = run(capsys, "classify", "--primes", primes, write(DOUBLING))
    assert (code, out, err) == (1, "", "error: %s\n" % message)


HELP_SHA256 = {
    "": "4ad1149097a744c4dcca417190fcead1545a98fa0ed99fc8934acdb62d3a6f0b",
    "gb": "065815ce2d6ac2e5a561df375e570eea3727ccd2fd6f52a2e0c3eaae0b4c778d",
    "strong-gb": "1efcc73d5bc30f6c4980fe853b9612783b8cbd293fee8e79af13d24790fcafef",
    "nf": "2aacb3ffca86674a1aba927a39b2fcb5ab2d2856ccfe73e398130e05430ab054",
    "classify": "05d9ffc2075772cb5555158e1c5aaac2c898b03c23ad051c94fc530a603adfb5",
    "detect-bad": "ed62d7a8e061eaee8d5f6f71346cf1194be1b3245c7f48a8d1f17f98971e4a10",
    "rad-check": "2cee6bddbe08e243939910a9eb749d60e9a93db4d6db94cbe0ce36ae10c6bfd4",
    "fan": "0c302e031328e63470510541f464ce31eddb49494544ae0f60be9e95df00f949",
    "universal-denominator": "e666f4f25811015e59d58837462b2d17b9e6f7de2a9f62071a1eaed611592ee9",
    "modular-gb": "77546b4e88d3d3a5096c6f5c70ba8564a2a71df1a3ba419be8989c5c63f08652",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_golden(capsys, monkeypatch, command):
    # argparse wraps help to COLUMNS; Python 3.10 titles the options
    # section "optional arguments:", later versions "options:"
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    out = out.replace("\noptional arguments:\n", "\noptions:\n")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_one_variable_basis_is_not_converted(write, capsys):
    # in one indeterminate every ordering has the same leading terms, so
    # the lex basis is the degrevlex one (FGLM would walk 10^20 monomials)
    code, out, _ = run(capsys, "gb", write("ring QQ[x] lex;\nideal(x^99999999999999999999);\n"))
    assert (code, out) == (0, "[x^99999999999999999999]\n")


@pytest.mark.parametrize(
    "argv", [["gb", "--order", ""], ["detect-bad", "--sigma", "", "--primes", "3"],
             ["detect-bad", "--tau", "", "--primes", "3"], ["modular-gb", "--sigma", ""]]
)
def test_empty_ordering_text_exits_1_with_its_position(write, capsys, argv):
    code, out, err = run(capsys, *argv, write(LINEAR))
    assert (code, out) == (1, "")
    assert err == "error: syntax at line 1, column 1: expected a term ordering, found 'end of input'\n"


@pytest.mark.parametrize(
    "argv", [["classify", "--primes", "3"], ["strong-gb"]], ids=["classify", "strong-gb"]
)
def test_reduction_budget_bounds_the_strong_basis(write, capsys, monkeypatch, argv):
    # the strong basis of the lex generators of the many-bad-primes ideal
    # runs for minutes; MGB_BUDGET ends it with one line on stderr
    monkeypatch.setenv("MGB_BUDGET", "1000")
    path = write(MANYBAD_LEX)
    with timed(20.0):
        code, out, err = run(capsys, *argv, path)
    assert code == 1 and out == ""
    assert "reduction budget" in err and "Traceback" not in err


# The flags each subcommand needs on katsura-5; the others need none.
KATSURA5_FLAGS = {
    "nf": ["--poly", "u0"],
    "classify": ["--primes", "101"],
    "detect-bad": ["--tau", "lex", "--primes", "101,103"],
    "modular-gb": ["--seed", "1"],
}


@pytest.mark.parametrize("command", [entry[0] for entry in COMMANDS])
def test_reduction_budget_bounds_every_subcommand(write, command):
    # every subcommand needs more than 1,000 reduction steps on katsura-5;
    # each runs in a child process, so one that ignores MGB_BUDGET cannot
    # hang the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(modgb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, MGB_BUDGET="1000")
    argv = [sys.executable, "-m", "modgb.cli", command, *KATSURA5_FLAGS.get(command, [])]
    with timed(5.0):
        proc = subprocess.run(
            argv + [write(KATSURA5)], capture_output=True, text=True, timeout=20, env=env
        )
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr[-2000:]
    assert "reduction budget of 1000 exhausted" in proc.stderr
    assert "Traceback" not in proc.stderr
