"""Text front end: grammar coverage, positioned errors, round-trips."""

from fractions import Fraction

import pytest

from modgb import parse_input, parse_order_text, serialize_input, serialize_order
from modgb.parsing import (
    ArityError,
    LexicalError,
    NonPrimeModulusError,
    ParseError,
    SyntaxError_,
    UnknownIndeterminateError,
)
from modgb.poly import GF, QQ, ZZ, poly_str

DELTONE = """\
ring QQ[x,y,z] degrevlex;
ideal(x^2 - y, x*y + z + 1, z^2 + x);
"""


def test_parse_deltone_input():
    spec, ideals, directives = parse_input(DELTONE)
    assert spec.domain is QQ
    assert spec.names == ("x", "y", "z")
    assert spec.ordering.canonical()[0] == "degrevlex"
    assert directives == []
    assert len(ideals) == 1
    gens = ideals[0].gens
    assert [poly_str(g, spec.ordering) for g in gens] == [
        "x^2 - y",
        "x*y + z + 1",
        "z^2 + x",
    ]


def test_coefficient_domains():
    assert parse_input("ring ZZ[x] lex; ideal(2*x);")[0].domain is ZZ
    assert parse_input("ring ZZ/(7)[x] lex; ideal(x);")[0].domain == GF(7)


def test_fractional_and_implicit_coefficients():
    spec, ideals, _ = parse_input("ring QQ[x,y] lex; ideal(4/3x^2y - 2y, x);")
    f = ideals[0].gens[0]
    assert f.terms == {(2, 1): Fraction(4, 3), (0, 1): Fraction(-2)}
    # like terms merge, and terms that cancel leave no zero coefficient
    spec, ideals, _ = parse_input("ring QQ[x,y] lex; ideal(x + 2*x - 3*x + y, 1/2*x + 1/2*x);")
    assert [g.terms for g in ideals[0].gens] == [{(0, 1): 1}, {(1, 0): 1}]
    spec, ideals, _ = parse_input("ring ZZ/(7)[x,y] lex; ideal(x + 6*x + y, 3*y + 5*y + x);")
    assert [g.terms for g in ideals[0].gens] == [{(0, 1): 1}, {(0, 1): 1, (1, 0): 1}]


def test_empty_ideal_and_multiple_ideals():
    spec, ideals, _ = parse_input("ring QQ[x] lex; ideal(); ideal(x);")
    assert ideals[0].gens == []
    assert len(ideals[1].gens) == 1


def test_orderings_in_header():
    for text, head in [
        ("lex", "lex"),
        ("deglex", "deglex"),
        ("degrevlex", "degrevlex"),
        ("elim(x,y)", "elim"),
        ("matrix([1,1,1],[1,0,0],[0,1,0])", "matrix"),
    ]:
        spec, _, _ = parse_input("ring QQ[x,y,z] %s; ideal(x);" % text)
        assert spec.ordering.canonical()[0] == head


def test_lexical_error_position():
    with pytest.raises(LexicalError) as exc:
        parse_input("ring QQ[x] lex;\nideal(x $ y);")
    assert exc.value.line == 2 and exc.value.col == 9


def test_syntax_error_position():
    with pytest.raises(SyntaxError_) as exc:
        parse_input("ring QQ[x] lex; ideal(x + );")
    assert exc.value.line == 1 and exc.value.col == 27


def test_arity_error_on_matrix_row_length():
    with pytest.raises(ArityError):
        parse_input("ring QQ[x,y] matrix([1,1],[1]); ideal(x);")


def test_arity_error_on_singular_matrix():
    with pytest.raises(ArityError):
        parse_input("ring QQ[x,y] matrix([1,1],[2,2]); ideal(x);")


def test_unknown_indeterminate_errors():
    with pytest.raises(UnknownIndeterminateError):
        parse_input("ring QQ[x,y] lex; ideal(x + w);")
    with pytest.raises(UnknownIndeterminateError):
        parse_input("ring QQ[x,y] elim(w); ideal(x);")


def test_ordering_errors_point_at_the_offending_token():
    with pytest.raises(UnknownIndeterminateError) as exc:
        parse_order_text("elim(x, q)", ["x", "y"])
    assert (exc.value.line, exc.value.col) == (1, 9)
    with pytest.raises(ArityError) as exc:
        parse_order_text("matrix([1,2],[1,2,3])", ["x", "y"])
    assert (exc.value.line, exc.value.col) == (1, 14)
    with pytest.raises(UnknownIndeterminateError) as exc:
        parse_input("ring QQ[x,y]\n  elim(y,\n w); ideal(x);")
    assert (exc.value.line, exc.value.col) == (3, 2)
    # rank and validation errors concern the whole matrix: the keyword
    with pytest.raises(ArityError) as exc:
        parse_order_text("matrix([1,1],[2,2])", ["x", "y"])
    assert (exc.value.line, exc.value.col) == (1, 1)


def test_repeated_name_points_at_the_repeat():
    cases = (
        (lambda: parse_order_text("elim(x, x, y)", ["x", "y", "z"]), 9),
        (lambda: parse_input("ring QQ[x,x,y] lex;"), 11),
        (lambda: parse_input("ring QQ[x,y,x,z] lex;"), 13),
    )
    for parse, col in cases:
        with pytest.raises(ArityError) as exc:
            parse()
        assert (exc.value.line, exc.value.col) == (1, col)


def test_non_prime_modulus_error():
    with pytest.raises(NonPrimeModulusError):
        parse_input("ring ZZ/(6)[x] lex; ideal(x);")


def test_all_error_kinds_are_parse_errors():
    for cls in (
        LexicalError,
        SyntaxError_,
        ArityError,
        UnknownIndeterminateError,
        NonPrimeModulusError,
    ):
        assert issubclass(cls, ParseError)
        assert issubclass(cls, ValueError)


def test_trailing_garbage_rejected():
    with pytest.raises(SyntaxError_):
        parse_input("ring QQ[x] lex; ideal(x); junk")


def test_parse_order_text():
    o = parse_order_text("matrix([2,1],[1,0])", ("x", "y"))
    assert o.canonical()[0] == "matrix"
    with pytest.raises(SyntaxError_):
        parse_order_text("lex extra", ("x",))


def test_serialize_round_trip():
    for text in (
        DELTONE,
        "ring ZZ[a,b] deglex; ideal(2*a^2 - 3*b);",
        "ring ZZ/(5)[x,y] elim(x); ideal(x + 2*y);",
        "ring QQ[x,y] matrix([1,2],[1,0]); ideal(1/2*x - y); ideal();",
    ):
        spec, ideals, _ = parse_input(text)
        out = serialize_input(spec, ideals)
        spec2, ideals2, _ = parse_input(out)
        assert spec2 == spec
        assert serialize_order(spec2.ordering, spec2.names) == serialize_order(
            spec.ordering, spec.names
        )
        assert len(ideals2) == len(ideals)
        for I, J in zip(ideals, ideals2):
            assert I.gens == J.gens


def test_only_decimal_digits_are_numbers():
    # '²' is a digit to str.isdigit but not to int(): a positioned lexical
    # error, not a bare ValueError from int()
    with pytest.raises(LexicalError) as exc:
        parse_input("ring QQ[x] lex;\nideal(x^²);")
    assert (exc.value.line, exc.value.col) == (2, 9)
    # an Arabic-Indic digit is decimal, so int() reads it
    spec, ideals, _ = parse_input("ring QQ[x] lex;\nideal(x^٣);")
    assert ideals[0].gens[0].terms == {(3,): 1}


def test_leading_plus_and_negative_matrix_entries_round_trip():
    spec, ideals, _ = parse_input("ring QQ[x,y] lex;\nideal(+x - y, + 2*y);")
    assert [g.terms for g in ideals[0].gens] == [{(1, 0): 1, (0, 1): -1}, {(0, 1): 2}]
    text = "ring QQ[x,y,z] matrix([1,2,3],[0,-1,0],[1,1,1]);\nideal(x - y);"
    spec, ideals, _ = parse_input(text)
    out = serialize_input(spec, ideals)
    assert out.startswith("ring QQ[x,y,z] matrix([1,2,3],[0,-1,0],[1,1,1]);")
    spec2, ideals2, _ = parse_input(out)
    assert spec2 == spec and ideals2[0].gens == ideals[0].gens


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("ring QQ[x] lex;\nideal(x + 1/0);", 2, 13),
        ("ring QQ[x] lexx;\nideal(x);", 1, 12),
        ("ring QQ[x,y] lex;\nideal(x*);", 2, 9),
        ("ring ZZ[x] lex;\nideal(1/2*x);", 2, 12),
    ],
    ids=["zero_denominator", "unknown_ordering", "dangling_star", "fraction_in_ZZ"],
)
def test_syntax_error_branches_point_at_their_token(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert type(exc.value) is SyntaxError_
    assert (exc.value.line, exc.value.col) == (line, col)


def test_readme_and_usage_print_the_one_grammar_text():
    from pathlib import Path

    from modgb.cli import GRAMMAR as USAGE
    from modgb.parsing import GRAMMAR

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "```\n" + GRAMMAR + "```\n" in readme
    assert all("  " + line in USAGE for line in GRAMMAR.splitlines())


@pytest.mark.parametrize(
    "factor,col", [("1" * 5000 + "*x", 7), ("x^" + "1" * 5000, 9)], ids=["coefficient", "exponent"]
)
def test_literals_beyond_the_int_digit_limit_are_positioned(factor, col):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default); where it has no limit the literal simply parses
    text = "ring QQ[x] lex;\nideal(%s);" % factor
    try:
        int("1" * 5000)
    except ValueError:
        with pytest.raises(LexicalError) as exc:
            parse_input(text)
        assert (exc.value.line, exc.value.col) == (2, col)
    else:
        spec, ideals, _ = parse_input(text)
        assert len(ideals[0].gens[0].terms) == 1
