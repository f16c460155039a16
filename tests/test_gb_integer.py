"""Minimal strong Groebner bases over the integers."""

import random
from fractions import Fraction

import pytest

from conftest import rand_ideal, ring_qq, ring_zz, timed
from modgb import (
    check_rad_identity,
    leading,
    leading_monomial_set,
    lcm_sigma,
    parse_input,
    pauer_lucky,
    prim,
    strong_gb,
)
from modgb.gb_field import BudgetExceeded, _Counter, _Work
from modgb.gb_integer import _lm_divides, _strong_head_reduce
from modgb.orderings import degrevlex, lex
from modgb.poly import leading as lead


def test_monomial_pair():
    Z = ring_zz("x", "y")
    x, y = Z.gens()
    B = strong_gb([x * x, x.scale(2)], degrevlex(2))
    assert leading_monomial_set(B) == {((2, 0), 1), ((1, 0), 2)}


def test_mixed_coefficient_pair_needs_gcd_element():
    Z = ring_zz("x", "y")
    x, y = Z.gens()
    B = strong_gb([x.scale(2), y.scale(3)], degrevlex(2))
    assert leading_monomial_set(B) == {((1, 0), 2), ((0, 1), 3), ((1, 1), 1)}


def test_fractional_linear_pair():
    # prim of {y - 1/3, x - 1/6} is {3y - 1, 6x - 1}
    R = ring_qq("x", "y")
    x, y = R.gens()
    s = degrevlex(2)
    g1 = y - R.const(Fraction(1, 3))
    g2 = x - R.const(Fraction(1, 6))
    B = strong_gb([prim(g1, s), prim(g2, s)], s)
    lms = leading_monomial_set(B)
    assert ((0, 1), 3) in lms
    assert ((1, 0), 2) in lms
    assert lcm_sigma(B) == 6


def test_leading_monomial_set_is_generator_order_independent():
    rng = random.Random(21)
    for _ in range(20):
        ring, I = rand_ideal(rng, maxdeg=3)
        s = degrevlex(ring.n)
        gens = [prim(g, s) for g in I.gens]
        B1 = strong_gb(gens, s)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        B2 = strong_gb(shuffled, s)
        assert leading_monomial_set(B1) == leading_monomial_set(B2)
        assert lcm_sigma(B1) == lcm_sigma(B2)


def test_strong_reduction_of_members():
    # every ZZ-combination of the generators head-reduces to zero
    rng = random.Random(22)
    for _ in range(20):
        ring, I = rand_ideal(rng, maxdeg=3, maxgens=2)
        s = degrevlex(ring.n)
        gens = [prim(g, s) for g in I.gens]
        B = strong_gb(gens, s)
        entries = [(g, *lead(g, s)) for g in B]
        zring = B[0].ring
        acc = zring.zero()
        for g in gens:
            m = rand_multiplier(rng, zring)
            acc = acc + g * m
        assert _strong_head_reduce(_Work(dict(acc.terms), s.key, 0), entries) is None


def rand_multiplier(rng, ring):
    pps = []
    for _ in range(rng.randint(1, 2)):
        pp = tuple(rng.randint(0, 2) for _ in range(ring.n))
        pps.append((pp, rng.randint(-4, 4)))
    m = ring.from_terms(pps)
    return m if not m.is_zero() else ring.one()


def test_minimality_no_internal_lm_divisibility():
    rng = random.Random(23)
    for _ in range(20):
        ring, I = rand_ideal(rng, maxdeg=3)
        s = degrevlex(ring.n)
        B = strong_gb([prim(g, s) for g in I.gens], s)
        lms = B.leading_monomials()
        for i, (lt1, lc1) in enumerate(lms):
            for j, (lt2, lc2) in enumerate(lms):
                if i != j:
                    assert not _lm_divides(lt1, lc1, lt2, abs(lc2))
        # Euclidean tail reduction: no tail coefficient exceeds half the
        # leading coefficient of an element whose leading term divides it
        for g, (lt, _) in zip(B, lms):
            for t, c in g.terms.items():
                if t != lt:
                    for lt2, lc2 in lms:
                        if all(a <= b for a, b in zip(lt2, t)):
                            assert 2 * abs(c) <= abs(lc2)


def test_rejects_rational_input():
    R = ring_qq("x")
    with pytest.raises(ValueError):
        strong_gb(R.gens(), lex(1))


def test_lcm_sigma_forms():
    Z = ring_zz("x")
    x = Z.gens()[0]
    assert lcm_sigma([x.scale(4), x.scale(6)], lex(1)) == 12
    with pytest.raises(ValueError):
        lcm_sigma([x], None)
    with pytest.raises(ValueError):
        lcm_sigma([Z.zero()], lex(1))


# The many-bad-primes family <x^2 y + a x y^2 - b, y^3 + c x^2 z, z^3 + x^2 - y>
# under lex, and the invariants of the strong basis of its prim reduced basis:
# leading monomial set and lcm_sigma.
FAMILY = "ring QQ[x,y,z] lex;\nideal(x^2*y + {a}*x*y^2 - {b}, y^3 + {c}*x^2*z, z^3 + x^2 - y);\n"
FAMILY_STRONG = {
    (7, 2, 1): (25235136784297846670562386589077523176205344972795220550116456363443132576, {
        ((0, 0, 26), 1),
        ((0, 1, 0), 1802509770306989047897313327791251655443238926628230039294032597388795184),
        ((0, 1, 25), 450627442576747261974328331947812913860809731657057509823508149347198796),
        ((0, 2, 24), 901254885153494523948656663895625827721619463314115019647016298694397592),
        ((1, 0, 0), 25235136784297846670562386589077523176205344972795220550116456363443132576),
        ((1, 0, 24), 1577196049018615416910149161817345198512834060799701284382278522715195786),
        ((1, 0, 25), 14),
        ((1, 1, 24), 225313721288373630987164165973906456930404865828528754911754074673599398),
        ((1, 1, 25), 2),
    }),
    (2, 2, 1): (95985975189377280442696496150343616, {
        ((0, 0, 26), 1),
        ((0, 1, 0), 95985975189377280442696496150343616),
        ((0, 1, 14), 47992987594688640221348248075171808),
        ((0, 1, 19), 23996493797344320110674124037585904),
        ((0, 1, 25), 5999123449336080027668531009396476),
        ((1, 0, 0), 47992987594688640221348248075171808),
        ((1, 0, 24), 1499780862334020006917132752349119),
        ((1, 0, 25), 1),
        ((1, 1, 18), 23996493797344320110674124037585904),
    }),
}


def test_family_strong_bases_keep_their_invariants():
    for (a, b, c), (lcm, lms) in FAMILY_STRONG.items():
        spec, ideals, _ = parse_input(FAMILY.format(a=a, b=b, c=c))
        s = spec.ordering
        B = strong_gb([prim(g, s) for g in ideals[0].reduced_gb(s)], s)
        assert leading_monomial_set(B) == lms
        assert lcm_sigma(B) == lcm


# check_rad_identity under lex on two family members, from a fresh ideal:
# the lex basis comes by FGLM from the degrevlex basis.  Measured at about
# 0.3-0.4 s and 1.5-1.7 s on a noisy shared x86-64 host; most of the rest
# is arith.rad.
@pytest.mark.parametrize(
    "member, bound", [((5, 4, 2), 1.5), ((6, 3, 3), 5.0)], ids=["5-4-2", "6-3-3"]
)
def test_family_rad_identity_under_lex_is_timed(member, bound):
    a, b, c = member
    spec, ideals, _ = parse_input(FAMILY.format(a=a, b=b, c=c))
    with timed(bound):
        assert check_rad_identity(ideals[0], spec.ordering)[2]


# Instance #104 of the rad_identity property suite (random.Random(101)): its
# strong basis once took six minutes.
RAD_104 = (
    "ring QQ[x,y,z] degrevlex;\n"
    "ideal(-7/2*x^2*z^2 + 3*y*z^2, 9*x*y^2 + 2*y^2*z + 3*x, -3/2*x^3*z - 5/2*x*y^2 + y);\n"
)


def test_rad_identity_instance_104():
    spec, ideals, _ = parse_input(RAD_104)
    I, s = ideals[0], spec.ordering
    with timed(10.0):
        assert check_rad_identity(I, s)[2]
        B = strong_gb([prim(g, s) for g in I.reduced_gb(s)], s)
        assert lcm_sigma(B) == 287729082900


def test_strong_gb_spends_its_budget():
    Z = ring_zz("x", "y")
    x, y = Z.gens()
    F = [x.scale(2) - y, y * y.scale(3) + x]
    s = degrevlex(2)
    counter = _Counter(10**6)
    assert leading_monomial_set(strong_gb(F, s, counter)) == leading_monomial_set(strong_gb(F, s))
    spent = 10**6 - counter.left
    assert spent > 0
    with pytest.raises(BudgetExceeded):
        strong_gb(F, s, _Counter(spent - 1))
    with pytest.raises(BudgetExceeded):
        pauer_lucky(F, s, 5, _Counter(spent - 1))


def test_strong_gb_of_no_generators_is_empty():
    R = ring_zz("x", "y")
    B = strong_gb([], lex(2))
    assert list(B) == [] and lcm_sigma(B) == 1
    assert list(strong_gb([R.zero()], lex(2))) == []
