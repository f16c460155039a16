"""Acceptance gate: the end-to-end behavior contract, with timing bounds."""

import random
from fractions import Fraction

import pytest

from conftest import (
    chained_doubling_ideal,
    graph_ideal_six_vars,
    many_bad_primes_ideal,
    mixed_denominator_ideal,
    pair_of_linear_gens,
    ring_qq,
    timed,
    twelve_cone_ideal,
)
from modgb import (
    Ideal,
    check_rad_identity,
    enumerate_fan,
    lcm_sigma,
    ordered_tuple,
    os_of_ideal,
    parse_input,
    poly_str,
    prim,
    reduce_mod_p,
    reduction_universal,
    represent,
    serialize_input,
    strong_gb,
)
from modgb.gb_integer import leading_monomial_set
from modgb.orderings import degrevlex, lex, matrix_order
from modgb.parsing import ParseError
from modgb.primes import (
    NOT_PAUER_LUCKY,
    SIGMA_GOOD,
    TAU_BAD_CERTIFIED,
    UNDECIDED,
    classify_prime,
    den_sigma,
    detect_tau_bad,
    pauer_lucky,
    reduction_tuple,
)
from modgb.tuples import LtTuple, PRECEDES, precedes


def _strings(basis, order):
    return [poly_str(g, order) for g in reversed(list(basis))]


def test_criterion_1_reduced_gb_goldens():
    with timed(1.0):
        R, F = pair_of_linear_gens()
        s = degrevlex(3)
        G = Ideal(R, F).reduced_gb(s)
        assert _strings(G, s) == ["x + 2*z", "y - z"]
        # images of the generators modulo 2 collapse to a single element
        F2 = [reduce_mod_p(f, 2) for f in F]
        G2 = Ideal(F2[0].ring, F2).reduced_gb(s)
        assert _strings(G2, s) == ["x"]
        # images of prim of the reduced basis generate a strictly larger ideal
        GP = [reduce_mod_p(prim(g, s), 2) for g in G]
        G3 = Ideal(GP[0].ring, GP).reduced_gb(s)
        assert _strings(G3, s) == ["x", "y + z"]


def test_criterion_2_representation_columns():
    R, F = pair_of_linear_gens()
    s = degrevlex(3)
    G = list(Ideal(R, F).reduced_gb(s))
    G.reverse()  # [x + 2z, y - z]
    cols = represent(G, F, s)
    half = Fraction(1, 2)
    assert cols == [[R.one(), R.zero()], [R.const(-half), R.const(half)]]


def test_criterion_3_denominators():
    with timed(5.0):
        # the denominator depends on the ordering: 1 against 2
        R2 = ring_qq("x", "y")
        x, y = R2.gens()
        I2 = Ideal(R2, [x + y.scale(2)])
        assert den_sigma(I2, lex(2)) == 1
        assert den_sigma(I2, matrix_order([[0, 1], [1, 0]], 2)) == 2
    with timed(5.0):
        # den 4, strong-GB lc lcm 2, equal radicals
        R, I = chained_doubling_ideal()
        s = degrevlex(3)
        assert den_sigma(I, s) == 4
        F = [prim(g, s) for g in I.gens]
        assert lcm_sigma(strong_gb(F, s)) == 2
        assert check_rad_identity(I, s) == (2, 2, True)
    with timed(5.0):
        # den 30, lcm over prim of the generators 210, 7 good but not lucky
        R, I = mixed_denominator_ideal()
        s = degrevlex(3)
        assert den_sigma(I, s) == 30
        F = [prim(g, s) for g in I.gens]
        assert lcm_sigma(strong_gb(F, s)) == 210
        assert classify_prime(I, s, 7).status == SIGMA_GOOD
        assert pauer_lucky(F, s, 7).status == NOT_PAUER_LUCKY


def test_criterion_4_strong_gb_leading_data():
    with timed(1.0):
        from conftest import ring_zz

        Z = ring_zz("x", "y")
        x, y = Z.gens()
        s = degrevlex(2)
        B1 = strong_gb([x * x, x.scale(2)], s)
        assert leading_monomial_set(B1) == {((2, 0), 1), ((1, 0), 2)}
        B2 = strong_gb([x.scale(2), y.scale(3)], s)
        assert leading_monomial_set(B2) == {((1, 0), 2), ((0, 1), 3), ((1, 1), 1)}
        # worked linear pair: leading coefficients 3 and 2
        R = ring_qq("x", "y")
        xq, yq = R.gens()
        g1 = yq - R.const(Fraction(1, 3))
        g2 = xq - R.const(Fraction(1, 6))
        B3 = strong_gb([prim(g1, s), prim(g2, s)], s)
        lms = leading_monomial_set(B3)
        assert ((0, 1), 3) in lms and ((1, 0), 2) in lms


def _pp(names, text):
    pp = [0] * len(names)
    for factor in text.split("*"):
        if factor == "1":
            continue
        if "^" in factor:
            name, e = factor.split("^")
            pp[names.index(name)] += int(e)
        else:
            pp[names.index(factor)] += 1
    return tuple(pp)


def test_criterion_5_tuple_goldens():
    with timed(1.0):
        N = ("x", "y", "z")
        s = lex(3)

        def T(*texts):
            return LtTuple(s, [_pp(N, t) for t in texts])

        assert precedes(T("z", "y", "x"), T("z", "y")) == PRECEDES
        assert precedes(T("z", "y"), T("z", "y^2", "x")) == PRECEDES
        d = degrevlex(3)
        prime_set = [_pp(N, t) for t in
                     ("x*y*z", "x^3", "x^2*z^2", "x*y^2", "y^7", "x^2*y^8")]
        o = ordered_tuple(prime_set, d)
        assert o.render(N) == "[x*y*z, x*y^2, x^3, x^2*z^2, y^7]"
        b_set = [_pp(N, t) for t in ("x", "x^2", "y^4", "z^4")]
        ob = ordered_tuple(b_set, d)
        # sigma-increasing form of the interreduced set {x, y^4, z^4}
        assert ob.entries == tuple(_pp(N, t) for t in ("x", "z^4", "y^4"))
        assert precedes(LtTuple(d, [_pp(N, "x"), _pp(N, "y^3")]), ob) == PRECEDES
        R, I = many_bad_primes_ideal()
        assert os_of_ideal(I, d).render(N) == "[z^3, y^3, x^2*y, x^4*z, x^6]"


DETECTION_TUPLES = {
    2: "[y^2, z^5, y*z^4, y*t, y*s, x*t, x*s, z^3*t, z^3*s, t^2, z*s*t, z*s^2,"
       " s^2*t, s^3]",
    3: "[z^5, y*z^4, y^2*z^3, y^3*z^2, x*y^2*z^2, y^4*z, x*y^3*z, y^5, x*y^4,"
       " y^4*w^2, x*z^3*w^3, x*z^4*w^2, x*y*z^3*w^2, x^2*z^3*w^2, x^2*z^4*w,"
       " x^2*y*z^3*w, x^3*z^3*w, z*s, y*s, x*s, z^2*t, y*z*t, x*z*t, y^2*t,"
       " x*y*t, x^2*t, w^3*t, w^3*s, z*w^2*t, y*w^2*t, x*w^2*t, t^2, s*t, s^2]",
    5: "[z^5, y*z^4, y^2*z^3, y^3*z^2, x*y^2*z^2, y^4*z, x*y^3*z, y^5, x*y^4,"
       " y^4*w^2, y^2*z^2*w^3, x*z^4*w^2, x*y*z^3*w^2, x^2*z^3*w^2, x^2*z^4*w,"
       " x^2*y*z^3*w, x^3*z^3*w, z*s, y*s, x*s, z^2*t, y*z*t, x*z*t, y^2*t,"
       " x*y*t, x^2*t, w^3*t, w^3*s, z*w^2*t, y*w^2*t, x*w^2*t, t^2, s*t, s^2]",
    7: "[z^3, y^2*z^2, y^3*z, y^4, z*s, y*s, x*s, w^2*t, w^2*s, z*w*t, z^2*t,"
       " y*z*t, y^2*t, w*t^2, w*s*t, w*s^2, t^3, s*t^2, s^2*t, s^3]",
}


def test_criterion_6_detection_end_to_end():
    with timed(2.0):
        R, J, sigma, tau = graph_ideal_six_vars()
        for p, expected in DETECTION_TUPLES.items():
            assert reduction_tuple(J, sigma, tau, p).render(R.names) == expected
        verdicts = {v.prime: v for v in detect_tau_bad(J, sigma, tau, [2, 3, 5, 7])}
        assert verdicts[2].status == TAU_BAD_CERTIFIED
        assert verdicts[3].status == TAU_BAD_CERTIFIED
        assert verdicts[7].status == TAU_BAD_CERTIFIED
        assert verdicts[5].status == UNDECIDED
    R, I = many_bad_primes_ideal()
    s, t = degrevlex(3), lex(3)
    names = R.names
    for p in (2, 3, 5, 7, 11):
        with timed(30.0):
            assert (
                reduction_tuple(I, s, s, p).render(names)
                == "[z^3, y^3, x^2*y, x^4*z, x^6]"
            )
    expected_tau = {
        2: "[z^17, y*z, y^3, x*z^6, x*y^2, x^2]",
        7: "[z^13, y, x^2]",
        11: "[z^25, y*z, y^2, x]",
        55817: "[z^25, y*z, y^2, x]",
    }
    for p, text in expected_tau.items():
        with timed(30.0):
            assert reduction_tuple(I, s, t, p).render(names) == text


def test_criterion_7_fan():
    with timed(120.0):
        R, I = twelve_cone_ideal()
        fan = enumerate_fan(I)
        assert len(fan) == 12
        assert fan.denominator() == 28
        # the images modulo 3 of all twelve bases generate one ideal
        reduction_universal(I, 3, verify=True)


def test_criterion_8_property_suites():
    import prop_suites

    with timed(120.0):
        for suite in prop_suites.ALL_SUITES:
            suite(count=200)


def test_criterion_9_parser_round_trip_and_fuzz():
    for text in (
        "ring QQ[x,y,z] degrevlex;\nideal(x^2 - y, x*y + z + 1, z^2 + x);\n",
        "ring ZZ/(5)[a,b] elim(a); ideal(3*a - b); ideal();",
        "ring ZZ[u,v] matrix([1,2],[1,0]); ideal(2*u^3 - 5*v);",
    ):
        spec, ideals, _ = parse_input(text)
        spec2, ideals2, _ = parse_input(serialize_input(spec, ideals))
        assert spec2 == spec
        assert [I.gens for I in ideals2] == [I.gens for I in ideals]

    rng = random.Random(424242)
    fragments = [
        "ring", "ideal", "QQ", "ZZ", "ZZ/(7)", "ZZ/(6)", "lex", "deglex",
        "degrevlex", "elim", "matrix", "x", "y", "z", "w", "[", "]", "(", ")",
        ";", ",", "+", "-", "*", "^", "/", "0", "1", "2", "13", "9999",
        "4/3", " ", "\n", "$", "é", "_a",
    ]
    for _ in range(10**5):
        text = "".join(rng.choice(fragments) for _ in range(rng.randint(1, 25)))
        try:
            parse_input(text)
        except ParseError:
            pass


def test_readme_library_quick_start_runs_verbatim(capsys):
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```\n", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "['y - 1/2*z', 'x - 1/4*z']\n"
