"""Buchberger engine over fields: normal forms, reduced bases, representation."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import modgb
from conftest import (
    graph_ideal_six_vars,
    many_bad_primes_ideal,
    pair_of_linear_gens,
    rand_ideal,
    rand_poly,
    ring_qq,
    twelve_cone_ideal,
)
from modgb import (
    BudgetExceeded,
    GF,
    Ideal,
    PolyRing,
    QQ,
    ReducedGB,
    ZZ,
    buchberger_reduced,
    check_rad_identity,
    detect_tau_bad,
    fglm,
    is_groebner,
    leading,
    min_lt,
    modular_gb,
    monic,
    normal_form,
    parse_input,
    poly_str,
    reduce_mod_p,
    represent,
    s_polynomial,
)
from modgb import fan
from modgb import gb_field
from modgb.fan import _flip_ordering
from modgb.gb_field import _codes, _Codes, _Work, budget, is_zero_dimensional
from modgb.orderings import deglex, degrevlex, elim, lex, matrix_order
from modgb.poly import pp_divides, pp_mul, pp_str
from modgb.primes import reduction


def test_reduced_gb_linear_pair():
    R, F = pair_of_linear_gens()
    s = degrevlex(3)
    G = Ideal(R, F).reduced_gb(s)
    assert [poly_str(g, s) for g in G] == ["y - z", "x + 2*z"]


def test_reduced_gb_modular_images_differ():
    R, F = pair_of_linear_gens()
    s = degrevlex(3)
    R2 = PolyRing(GF(2), R.names)
    G_of_F = Ideal(R2, [reduce_mod_p(f, 2) for f in F]).reduced_gb(s)
    assert [poly_str(g, s) for g in G_of_F] == ["x"]
    G = Ideal(R, F).reduced_gb(s)
    G_of_G = Ideal(R2, [reduce_mod_p(g, 2) for g in G]).reduced_gb(s)
    assert [poly_str(g, s) for g in G_of_G] == ["y + z", "x"]


def test_zero_and_unit_ideal():
    R = ring_qq("x", "y")
    s = degrevlex(2)
    assert len(buchberger_reduced([], s)) == 0
    G = buchberger_reduced([R.const(3)], s)
    assert len(G) == 1 and G[0] == R.one()
    x, y = R.gens()
    G = buchberger_reduced([x, x + R.one()], s)
    assert list(G) == [R.one()]


def test_normal_form_rejects_a_basis_from_another_ring():
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x * x - y.scale(3), y * y - R.one()])
    s = degrevlex(2)
    G7 = reduction(I, s, 7).reduced_gb(s)
    with pytest.raises(ValueError, match="different rings"):
        normal_form(x * x * x, G7, s)
    assert normal_form(reduce_mod_p(x * x * x, 7), G7, s) == reduce_mod_p(x * y.scale(3), 7)


def test_normal_form_against_no_basis_is_the_polynomial():
    R = ring_qq("x", "y")
    x, y = R.gens()
    f = x * y + y.scale(Fraction(1, 3))
    assert normal_form(f, [], degrevlex(2)) is f


def test_normal_form_drops_zero_divisors():
    R = ring_qq("x", "y")
    x, y = R.gens()
    s = degrevlex(2)
    f = x * y + x
    assert normal_form(f, [R.zero(), y], s) == normal_form(f, [y], s) == x
    assert normal_form(f, [R.zero()], s) is f


def test_s_polynomial_of_zero_raises():
    R = ring_qq("x", "y")
    x, y = R.gens()
    for f, g in ((R.zero(), y), (x, R.zero())):
        with pytest.raises(ValueError, match="zero polynomial has no leading term"):
            s_polynomial(f, g, degrevlex(2))


def test_normal_form_properties():
    rng = random.Random(9)
    for _ in range(30):
        ring, I = rand_ideal(rng, maxdeg=3)
        s = degrevlex(ring.n)
        G = I.reduced_gb(s)
        from conftest import rand_poly

        f = rand_poly(rng, ring, maxdeg=3)
        r = normal_form(f, G, s)
        # idempotence and membership of the difference
        assert normal_form(r, G, s) == r
        assert normal_form(f - r, G, s).is_zero()
        # no term of the remainder is divisible by a basis leading term
        lts = G.leading_terms()
        for t in r.terms:
            assert not any(all(a <= b for a, b in zip(lt, t)) for lt in lts)


def test_reduced_basis_is_self_reduced():
    rng = random.Random(10)
    for _ in range(25):
        ring, I = rand_ideal(rng, maxdeg=3)
        for s in (degrevlex(ring.n), lex(ring.n)):
            G = I.reduced_gb(s)
            assert is_groebner(list(G), s)
            for i, g in enumerate(G):
                assert leading(g, s)[1] == 1
                others = [h for j, h in enumerate(G) if j != i]
                if others:
                    assert normal_form(g, others, s) == g
            # generators are members
            for f in I.gens:
                assert normal_form(f, G, s).is_zero()


def test_matches_sympy_oracle():
    import sympy

    rng = random.Random(12)
    checked = 0
    for _ in range(25):
        ring, I = rand_ideal(rng, maxdeg=3)
        xs = sympy.symbols(ring.names)
        if not isinstance(xs, tuple):
            xs = (xs,)
        sym_gens = []
        for g in I.gens:
            e = 0
            for pp, c in g.terms.items():
                m = sympy.Rational(c.numerator, c.denominator)
                for v, a in zip(xs, pp):
                    m *= v**a
                e += m
            sym_gens.append(e)
        for order, mine in (("grevlex", degrevlex(ring.n)), ("lex", lex(ring.n))):
            expected = sympy.groebner(sym_gens, *xs, order=order)
            got = {poly_str(g, mine) for g in I.reduced_gb(mine)}
            want = set()
            for e in expected.exprs:
                p = sympy.Poly(e, *xs)
                terms = [(tuple(int(a) for a in mono), Fraction(int(c.p), int(c.q)))
                         for mono, c in p.terms()]
                want.add(poly_str(monic(ring.from_terms(terms), mine), mine))
            assert got == want
            checked += 1
    assert checked == 50


def test_s_polynomial_reduces_to_zero_on_basis():
    rng = random.Random(13)
    for _ in range(10):
        ring, I = rand_ideal(rng, maxdeg=3)
        s = degrevlex(ring.n)
        G = list(I.reduced_gb(s))
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                sp = s_polynomial(G[i], G[j], s)
                assert normal_form(sp, G, s).is_zero()


def _all_pairs_groebner(polys, s):
    """Reference check: every S-polynomial reduces to zero, no pair skipped."""
    return all(
        normal_form(s_polynomial(f, g, s), polys, s).is_zero()
        for i, f in enumerate(polys)
        for g in polys[i + 1 :]
    )


def test_is_groebner_matches_all_pairs_reference():
    # the pairs that the product and chain criteria skip never change the verdict
    rng = random.Random(29)
    verdicts = []
    for _ in range(40):
        ring = PolyRing(QQ, ("x", "y", "z")[: rng.randint(2, 3)])
        s = rng.choice((lex, deglex, degrevlex))(ring.n)
        F = [f for f in (rand_poly(rng, ring, maxdeg=3) for _ in range(rng.randint(2, 4))) if f]
        G = list(Ideal(ring, F).reduced_gb(s))
        extra = [f for f in [rand_poly(rng, ring, maxdeg=2)] if f]
        for polys in (F, G, G[:-1], G + F[:1], G + extra):
            got = is_groebner(polys, s)
            assert got == _all_pairs_groebner(polys, s), (polys, s)
            verdicts.append(got)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_min_lt():
    R = ring_qq("x", "y")
    x, y = R.gens()
    G = Ideal(R, [x * x, y]).reduced_gb(degrevlex(2))
    assert min_lt(G) == {(2, 0), (0, 1)}


def test_budget_exceeded():
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    gens = [x * x - y, x * y + z + R.one(), z * z + x]
    with pytest.raises(BudgetExceeded), budget(0):
        buchberger_reduced(gens, lex(3))


def _normal_form_of_a_product(I, s):
    f, g, h = I.gens
    return normal_form(f * g * h, [f, g, h], s)


# Each entry point on a fresh twelve-cone ideal, whose reduced bases are not
# yet cached: a budget reaches every reduction step under it.
_ENTRY_POINTS = {
    "reduced_gb": lambda I, s: list(I.reduced_gb(s)),
    "modular_gb": lambda I, s: list(modular_gb(I, s, rng=random.Random(1)).basis),
    "detect_tau_bad": lambda I, s: [
        v.to_dict() for v in detect_tau_bad(I, s, lex(3), [101, 103])
    ],
    "check_rad_identity": check_rad_identity,
    "normal_form": _normal_form_of_a_product,
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_budget_bounds_every_entry_point(name):
    run, s = _ENTRY_POINTS[name], degrevlex(3)
    unbounded = run(twelve_cone_ideal()[1], s)
    with pytest.raises(BudgetExceeded, match="^reduction budget of 1 exhausted$"):
        with budget(1):
            run(twelve_cone_ideal()[1], s)
    with budget(10**6) as b:
        assert run(twelve_cone_ideal()[1], s) == unbounded
    assert b.left < 10**6


def test_no_budget_is_active_after_a_block():
    R, I = twelve_cone_ideal()
    with budget(10**6):
        buchberger_reduced(I.gens, lex(3))
    assert gb_field._ACTIVE.get() is None
    with pytest.raises(BudgetExceeded), budget(0):
        buchberger_reduced(I.gens, lex(3))
    assert gb_field._ACTIVE.get() is None


def test_nested_budgets_spend_only_the_inner_one():
    R, I = twelve_cone_ideal()
    with budget(10**6) as outer:
        with budget(10**6) as inner:
            buchberger_reduced(I.gens, lex(3))
        spent = 10**6 - inner.left
        assert spent > 0 and outer.left == 10**6
        assert gb_field._ACTIVE.get() is outer
        buchberger_reduced(I.gens, lex(3))
        assert 10**6 - outer.left == spent


def test_represent_golden_columns():
    R, F = pair_of_linear_gens()
    s = degrevlex(3)
    G = list(Ideal(R, F).reduced_gb(s))
    G.reverse()  # basis as [x + 2z, y - z]
    cols = represent(G, F, s)
    half = Fraction(1, 2)
    assert cols[0] == [R.one(), R.zero()]
    assert cols[1] == [R.const(-half), R.const(half)]


def test_represent_reproduces_basis():
    rng = random.Random(14)
    for _ in range(10):
        ring, I = rand_ideal(rng, maxdeg=3)
        s = degrevlex(ring.n)
        G = list(I.reduced_gb(s))
        cols = represent(G, I.gens, s)
        for g, col in zip(G, cols):
            acc = ring.zero()
            for f, c in zip(I.gens, col):
                acc = acc + f * c
            assert acc == g


def test_represent_rejects_non_member():
    R = ring_qq("x", "y")
    x, y = R.gens()
    for F in ([x * x, y], []):
        with pytest.raises(ValueError):
            represent([x + R.one()], F, degrevlex(2))


def test_represent_zero_generator_has_zero_entry():
    R = ring_qq("x", "y")
    x, y = R.gens()
    F = [x * x - y, R.zero(), x * y]
    cols = represent([y * y, x * x - y], F, degrevlex(2))
    assert [col[1] for col in cols] == [R.zero(), R.zero()]
    for g, col in zip([y * y, x * x - y], cols):
        assert sum((f * c for f, c in zip(F, col)), R.zero()) == g


# The reduction-step counts below pin the pair order and the reducer-selection
# rule: S-pairs are taken least sugar first, head reduction in buchberger
# takes the first-inserted divisor, normal forms the sigma-smallest one (ties
# by position).  A change of either rule changes them.

_UNSPENT = 10**9


def _steps(gens, sigma):
    with budget(_UNSPENT) as counter:
        buchberger_reduced(gens, sigma)
    return _UNSPENT - counter.left


def test_reduction_steps_graph_ideal_elim():
    R, J, sigma, tau = graph_ideal_six_vars()
    assert _steps(reduction(J, sigma, 7).gens, tau) == 267


def test_reduction_steps_graph_ideal_elim_from_degrevlex():
    # the F_p elimination basis seeded by the F_p degrevlex basis; taking
    # pairs by lcm alone would spend 10533 steps
    R, J, sigma, tau = graph_ideal_six_vars()
    seed = reduction(J, sigma, 3).reduced_gb(degrevlex(6))
    assert _steps(seed.elements, tau) == 2389


# The four conversions detect_tau_bad makes on the graph ideal: each F_p
# reduction of its elim(x,y,z,w) basis, taken to elim(s,t).  Per prime: the
# reduction steps and the leading terms in element order.
_DETECT_ELIM = {
    2: (218, ["y^2", "z^5", "y*z^4", "y*t", "y*s", "x*t", "x*s", "z^3*t", "z^3*s",
              "t^2", "z*s*t", "z*s^2", "s^2*t", "s^3"]),
    3: (2210, ["z^5", "y*z^4", "y^2*z^3", "y^3*z^2", "x*y^2*z^2", "y^4*z", "x*y^3*z",
               "y^5", "x*y^4", "y^4*w^2", "x*z^3*w^3", "x*z^4*w^2", "x*y*z^3*w^2",
               "x^2*z^3*w^2", "x^2*z^4*w", "x^2*y*z^3*w", "x^3*z^3*w", "z*s", "y*s",
               "x*s", "z^2*t", "y*z*t", "x*z*t", "y^2*t", "x*y*t", "x^2*t", "w^3*t",
               "w^3*s", "z*w^2*t", "y*w^2*t", "x*w^2*t", "t^2", "s*t", "s^2"]),
    5: (2442, ["z^5", "y*z^4", "y^2*z^3", "y^3*z^2", "x*y^2*z^2", "y^4*z", "x*y^3*z",
               "y^5", "x*y^4", "y^4*w^2", "y^2*z^2*w^3", "x*z^4*w^2", "x*y*z^3*w^2",
               "x^2*z^3*w^2", "x^2*z^4*w", "x^2*y*z^3*w", "x^3*z^3*w", "z*s", "y*s",
               "x*s", "z^2*t", "y*z*t", "x*z*t", "y^2*t", "x*y*t", "x^2*t", "w^3*t",
               "w^3*s", "z*w^2*t", "y*w^2*t", "x*w^2*t", "t^2", "s*t", "s^2"]),
    7: (267, ["z^3", "y^2*z^2", "y^3*z", "y^4", "z*s", "y*s", "x*s", "w^2*t", "w^2*s",
              "z*w*t", "z^2*t", "y*z*t", "y^2*t", "w*t^2", "w*s*t", "w*s^2", "t^3",
              "s*t^2", "s^2*t", "s^3"]),
}


@pytest.mark.parametrize("p", sorted(_DETECT_ELIM))
def test_reduction_steps_detect_elim(p):
    R, J, sigma, tau = graph_ideal_six_vars()
    seed = reduction(J, sigma, p).reduced_gb(sigma)
    with budget(_UNSPENT) as counter:
        H = buchberger_reduced(seed.elements, tau)
    lts = [pp_str(t, R.names) for t in H.leading_terms()]
    assert (_UNSPENT - counter.left, lts) == _DETECT_ELIM[p]


def test_reduction_steps_many_bad_primes_lex():
    R, I = many_bad_primes_ideal()
    assert _steps(reduction(I, degrevlex(3), 1000003).gens, lex(3)) == 621


def test_reduction_steps_fan(monkeypatch):
    made = []

    class Recording(budget):
        def __init__(self, steps):
            super().__init__(steps)
            made.append(self)

    monkeypatch.setattr(fan, "budget", Recording)
    R, I = twelve_cone_ideal()
    assert len(fan.enumerate_fan(I)) == 12
    assert [fan.DEFAULT_BUDGET - c.left for c in made] == [55]


# Instance #104 of the rad_identity property suite (random.Random(101)).  It
# is positive-dimensional (it contains the z-axis), so FGLM is checked on it
# cut down to finitely many points by one more generator.
RAD_104 = (
    "ring QQ[x,y,z] degrevlex;\n"
    "ideal(-7/2*x^2*z^2 + 3*y*z^2, 9*x*y^2 + 2*y^2*z + 3*x, -3/2*x^3*z - 5/2*x*y^2 + y);\n"
)


def _rad_104_cut():
    spec, ideals, _ = parse_input(RAD_104.replace(");", ", z^3 + x - 2);"))
    return spec.ring(), ideals[0]


_TAUS = (lex(3), deglex(3), elim([0, 1], 3), matrix_order([[1, 2, 3], [0, 0, 1], [0, 1, 0]]))


@pytest.mark.parametrize(
    "make",
    [many_bad_primes_ideal, twelve_cone_ideal, _rad_104_cut],
    ids=["many_bad_primes", "twelve_cone", "rad_104_cut"],
)
def test_fglm_matches_buchberger(make):
    (R, I), s = make(), degrevlex(3)
    for p in (None, 2, 3, 11, 13, 2147483647, 18446744073709551557):
        J = I if p is None else reduction(I, s, p)
        G = J.reduced_gb(s)
        assert is_zero_dimensional(G)
        for t in _TAUS:
            assert fglm(G, t) == buchberger_reduced(J.gens, t), (p, t)


def test_fp_fglm_spends_the_active_budget():
    # over F_p only the normal forms of the border, each reduced once,
    # spend steps: 28 here, where reducing every visited monomial's normal
    # form from its parent's took 319
    R, I = many_bad_primes_ideal()
    s, t, p = degrevlex(3), lex(3), 18446744073709551557
    unbounded = reduction(I, s, p).reduced_gb(t)
    red = reduction(I, s, p)
    red.reduced_gb(s)  # the seed, outside the budget
    with budget(10**6) as b:
        assert red.reduced_gb(t) == unbounded
    assert 10**6 - b.left == 28
    red = reduction(I, s, p)
    red.reduced_gb(s)
    with pytest.raises(BudgetExceeded), budget(27):
        red.reduced_gb(t)


def test_reduced_gb_converts_a_cached_zero_dimensional_basis(monkeypatch):
    R, I = many_bad_primes_ideal()
    red = reduction(I, degrevlex(3), 11)
    converted = []

    def no_buchberger(*args, **kwargs):
        raise AssertionError("a zero-dimensional reduction ran Buchberger")

    monkeypatch.setattr(gb_field, "buchberger_reduced", no_buchberger)
    monkeypatch.setattr(
        gb_field, "fglm", lambda G, t: converted.append(t) or fglm(G, t)
    )
    assert red.reduced_gb(lex(3)).leading_terms()[0] == (0, 0, 25)
    assert converted == [lex(3)]


def test_fresh_ideal_returns_its_buchberger_degrevlex_basis(monkeypatch):
    R, I = many_bad_primes_ideal()
    built = []
    buchberger = gb_field.buchberger_reduced

    def traced(gens, sigma):
        built.append(buchberger(gens, sigma))
        return built[-1]

    def no_convert(G, tau):
        raise AssertionError("the degrevlex basis was converted to degrevlex")

    monkeypatch.setattr(gb_field, "buchberger_reduced", traced)
    monkeypatch.setattr(gb_field, "_convert", no_convert)
    G = I.reduced_gb(degrevlex(3))
    assert len(built) == 1 and G is built[0]
    assert I.reduced_gb(degrevlex(3)) is G


@pytest.mark.parametrize(
    "make", [many_bad_primes_ideal, twelve_cone_ideal], ids=["many_bad_primes", "twelve_cone"]
)
def test_reduced_gb_reaches_lex_through_the_degrevlex_basis(make, engine_calls):
    R, I = make()
    s, t = degrevlex(3), lex(3)
    G = I.reduced_gb(t)
    assert engine_calls == [("bb", s), ("fglm", s, t)]
    D = I.reduced_gb(s)
    assert len(engine_calls) == 2
    assert G == buchberger_reduced(I.gens, t)
    assert D == buchberger_reduced(I.gens, s)


def test_reduced_gb_of_the_unit_and_zero_ideals(engine_calls):
    R = ring_qq("x", "y")
    x, y = R.gens()
    G = Ideal(R, [x, x + R.one()]).reduced_gb(lex(2))
    assert list(G) == [R.one()] and G.ordering == lex(2)
    assert engine_calls == [("bb", degrevlex(2))]
    del engine_calls[:]
    Z = Ideal(R, [R.zero()])
    G = Z.reduced_gb(lex(2))
    assert list(G) == [] and G.ordering == lex(2)
    assert list(Z.reduced_gb(degrevlex(2))) == []
    assert engine_calls == [("bb", degrevlex(2))]


@pytest.mark.parametrize("a,b", [(2, 3), (1, 1)])
def test_the_field_engine_rejects_integer_coefficients(a, b):
    # ZZ is not a field: every entry point of the field engine refuses it,
    # whether the leading coefficients are non-units (2, 3) or units (1)
    R = PolyRing(ZZ, ("x", "y"))
    x, y = R.gens()
    F = [x.scale(a) - y, y * y.scale(b) + x]
    s = degrevlex(2)
    calls = [
        lambda: Ideal(R, F).reduced_gb(s),
        lambda: buchberger_reduced(F, s),
        lambda: normal_form(x, F, s),
        lambda: is_groebner(F, s),
        lambda: s_polynomial(F[0], F[1], s),
        lambda: fan.universal_denominator(Ideal(R, F)),
        lambda: fglm(ReducedGB(s, F), lex(2)),
        lambda: represent(F, F, s),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="ZZ is not a field|rational"):
            call()


def test_fglm_of_the_unit_ideal():
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x, x + R.one()])
    G = I.reduced_gb(degrevlex(2))
    assert list(G) == [R.one()] and not is_zero_dimensional(G)
    assert list(I.reduced_gb(lex(2))) == [R.one()]
    assert list(fglm(G, lex(2))) == [R.one()]


FGLM_INFINITE = """
import time
from modgb import GF, Ideal, PolyRing, QQ, ReducedGB, budget, fglm
from modgb.orderings import degrevlex, lex

s = degrevlex(2)
for ring in (PolyRing(QQ, ["x", "y"]), PolyRing(GF(7), ["x", "y"])):
    x, y = ring.gens()
    for G in (Ideal(ring, [x * y]).reduced_gb(s), Ideal(ring, [y]).reduced_gb(s), ReducedGB(s, [])):
        for steps in (None, 1000):
            t0 = time.monotonic()
            try:
                if steps is None:
                    fglm(G, lex(2))
                else:
                    with budget(steps):
                        fglm(G, lex(2))
            except ValueError as e:
                assert time.monotonic() - t0 < 1.0
                print(e)
"""


def test_fglm_rejects_infinitely_many_standard_monomials():
    # standard monomials spend no budget step, so a walk over infinitely many
    # would never end; it runs in a child process, so a hang fails the test
    # instead of hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(modgb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", FGLM_INFINITE], capture_output=True, text=True, timeout=20, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.count("fglm needs a zero-dimensional ideal") == 12, proc.stdout


@pytest.mark.parametrize(
    "make", [many_bad_primes_ideal, twelve_cone_ideal], ids=["many_bad_primes", "twelve_cone"]
)
def test_rational_results_have_fraction_coefficients(make):
    # the engine computes over QQ on integers; every coefficient it returns
    # must still be a Fraction, which Polynomial.__eq__ alone would not show
    R, I = make()
    s = degrevlex(3)
    x, y, z = R.gens()
    G = buchberger_reduced(I.gens, s)
    f = x * x * x * y + (y * z * z).scale(Fraction(5, 3)) + R.const(Fraction(1, 7))
    results = list(G) + list(fglm(G, lex(3))) + [normal_form(f, G, s)]
    results += [s_polynomial(G[0], G[-1], s), s_polynomial(I.gens[0], I.gens[1], s)]
    results += [c for column in represent(G[:2], I.gens, s) for c in column]
    assert all(g for g in results[: len(G) + 3])
    assert all(type(c) is Fraction for g in results for c in g.terms.values())


# Sigma-codes: inside the engines a power product is one int (gb_field's
# module docstring).  Matrix rows with negative and rational entries, as a
# fan cone's ordering has, are made non-negative first.
_CODE_ORDERS = {
    "lex": lex(3),
    "deglex": deglex(3),
    "degrevlex": degrevlex(3),
    "elim": elim([0, 2], 3),
    "matrix": matrix_order([["1/2", "1/3", 2], [0, "-3/4", 1], [0, 0, 1]], 3),
    "fan_cone": _flip_ordering([1, 2, 3], [1, -1, 0], 3),
}


@pytest.mark.parametrize("name", sorted(_CODE_ORDERS))
def test_codes_compare_multiply_and_divide_as_power_products(name):
    sigma = _CODE_ORDERS[name]
    rng = random.Random(29)
    R = ring_qq("x", "y", "z")
    pps = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    codes = _codes(sigma, [R.from_terms((t, 1) for t in pps)])
    guard = codes.guard
    for a in pps:
        ca = codes.encode(a)
        assert codes.decode(ca) == a
        for b in pps:
            cb = codes.encode(b)
            assert (ca < cb) == (sigma.key(a) < sigma.key(b))
            assert (ca == cb) == (a == b)
            assert codes.encode(pp_mul(a, b)) == ca + cb
            assert (((cb | guard) - ca) & guard == guard) == pp_divides(a, b)
            assert codes.divides(ca, ca + cb)


def test_codes_round_trip_a_67_bit_exponent():
    R = ring_qq("x", "y", "z")
    pp = (2**66 + 12345, 0, 7)
    for sigma in _CODE_ORDERS.values():
        codes = _codes(sigma, [R.from_terms([(pp, 1)])])
        assert codes.decode(codes.encode(pp)) == pp


def test_codes_raise_on_a_field_overflow():
    codes = _Codes(lex(2), 4)  # four-bit fields
    assert codes.decode(codes.encode((15, 3))) == (15, 3)
    with pytest.raises(OverflowError, match="4-bit fields"):
        codes.encode((16, 0))
    x15 = codes.encode((15, 0))
    work = _Work({x15: 1}, codes, 0)
    with pytest.raises(OverflowError, match="4-bit fields"):
        work.sub(1, codes.encode((1, 0)), [(x15, 1)])
