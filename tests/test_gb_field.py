"""Buchberger engine over fields: normal forms, reduced bases, representation."""

import random
from fractions import Fraction

import pytest

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
    fglm,
    is_groebner,
    leading,
    min_lt,
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
from modgb.gb_field import _Counter, is_zero_dimensional
from modgb.orderings import deglex, degrevlex, elim, lex, matrix_order
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
    with pytest.raises(BudgetExceeded):
        buchberger_reduced(gens, lex(3), counter=_Counter(0))


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
    counter = _Counter(_UNSPENT)
    buchberger_reduced(gens, sigma, counter=counter)
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


def test_reduction_steps_many_bad_primes_lex():
    R, I = many_bad_primes_ideal()
    assert _steps(reduction(I, degrevlex(3), 1000003).gens, lex(3)) == 621


def test_reduction_steps_fan(monkeypatch):
    made = []

    class Recording(_Counter):
        def __init__(self, budget):
            super().__init__(budget)
            made.append(self)

    monkeypatch.setattr(fan, "_Counter", Recording)
    R, I = twelve_cone_ideal()
    assert len(fan.enumerate_fan(I)) == 12
    assert [fan.DEFAULT_BUDGET - c.left for c in made] == [96]


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
    for p in (None, 11, 13, 2147483647):
        J = I if p is None else reduction(I, s, p)
        G = J.reduced_gb(s)
        assert is_zero_dimensional(G)
        for t in _TAUS:
            assert fglm(G, t) == buchberger_reduced(J.gens, t), (p, t)


def test_reduced_gb_converts_a_cached_zero_dimensional_basis(monkeypatch):
    R, I = many_bad_primes_ideal()
    red = reduction(I, degrevlex(3), 11)
    converted = []

    def no_buchberger(*args, **kwargs):
        raise AssertionError("a zero-dimensional reduction ran Buchberger")

    monkeypatch.setattr(gb_field, "buchberger_reduced", no_buchberger)
    monkeypatch.setattr(
        gb_field, "fglm", lambda G, t, counter=None: converted.append(t) or fglm(G, t, counter)
    )
    assert red.reduced_gb(lex(3)).leading_terms()[0] == (0, 0, 25)
    assert converted == [lex(3)]


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
