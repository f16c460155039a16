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
from modgb import gb_integer
from modgb.gb_field import BudgetExceeded, _codes, _Work, budget
from modgb.gb_integer import _strong_head_reduce
from modgb.orderings import degrevlex, lex
from modgb.poly import leading as lead
from modgb.poly import pp_divides


def _lm_divides(lt1, lc1, lt2, lc2):
    """Leading-monomial divisibility over ZZ: term divides and coefficient divides."""
    return pp_divides(lt1, lt2) and lc2 % lc1 == 0


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


@pytest.mark.parametrize("order", [lex, degrevlex])
def test_product_criterion_needs_coprime_coefficients(order):
    # the terms x and y are coprime but the coefficients 2 and 2 are not, so
    # criterion F keeps the S-pair: y*(2x + 1) - x*(2y) = y.  A product
    # criterion blind to coefficients would drop it and return {2x + 1, 2y}.
    Z = ring_zz("x", "y")
    x, y = Z.gens()
    B = strong_gb([x.scale(2) + Z.one(), y.scale(2)], order(2))
    assert leading_monomial_set(B) == {((0, 1), 1), ((1, 0), 2)}


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
        zring = B[0].ring
        acc = zring.zero()
        for g in gens:
            m = rand_multiplier(rng, zring)
            acc = acc + g * m
        # the head reduction runs on sigma-codes, as inside strong_gb
        codes = _codes(s, [acc, *B])
        entries = []
        for g in B:
            lt, lc = lead(g, s)
            entries.append((list(codes.encode_terms(g.terms).items()), codes.encode(lt), lc))
        assert _strong_head_reduce(_Work(codes.encode_terms(acc.terms), codes, 0), entries) is None


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
    (6, 3, 3): (116820304915835562081673731994724583762860604333233509571449952509166834014039002, {
        ((0, 0, 26), 1),
        ((0, 1, 0), 6490016939768642337870762888595810209047811351846306087302775139398157445224389),
        ((0, 1, 22), 2163338979922880779290254296198603403015937117282102029100925046466052481741463),
        ((0, 2, 18), 2163338979922880779290254296198603403015937117282102029100925046466052481741463),
        ((0, 2, 22), 721112993307626926430084765399534467671979039094034009700308348822017493913821),
        ((0, 3, 20), 721112993307626926430084765399534467671979039094034009700308348822017493913821),
        ((0, 3, 25), 240370997769208975476694921799844822557326346364678003233436116274005831304607),
        ((1, 0, 0), 116820304915835562081673731994724583762860604333233509571449952509166834014039002),
        ((1, 0, 13), 38940101638611854027224577331574861254286868111077836523816650836388944671346334),
        ((1, 0, 19), 12980033879537284675741525777191620418095622703692612174605550278796314890448778),
        ((1, 0, 23), 4326677959845761558580508592397206806031874234564204058201850092932104963482926),
        ((1, 0, 25), 18),
        ((1, 1, 25), 9),
        ((1, 2, 25), 3),
        ((1, 3, 25), 1),
    }),
    (5, 4, 2): (2133847322128020186287196353473094374971007656174975392797466832565760, {
        ((0, 0, 26), 1),
        ((0, 1, 0), 213384732212802018628719635347309437497100765617497539279746683256576),
        ((0, 1, 19), 106692366106401009314359817673654718748550382808748769639873341628288),
        ((0, 1, 22), 53346183053200504657179908836827359374275191404374384819936670814144),
        ((0, 1, 25), 13336545763300126164294977209206839843568797851093596204984167703536),
        ((0, 2, 19), 53346183053200504657179908836827359374275191404374384819936670814144),
        ((0, 2, 21), 26673091526600252328589954418413679687137595702187192409968335407072),
        ((0, 2, 25), 6668272881650063082147488604603419921784398925546798102492083851768),
        ((0, 3, 18), 106692366106401009314359817673654718748550382808748769639873341628288),
        ((1, 0, 0), 2133847322128020186287196353473094374971007656174975392797466832565760),
        ((1, 0, 15), 533461830532005046571799088368273593742751914043743848199366708141440),
        ((1, 0, 24), 8335341102062578852684360755754274902230498656933497628115104814710),
        ((1, 0, 25), 10),
        ((1, 1, 15), 106692366106401009314359817673654718748550382808748769639873341628288),
        ((1, 1, 24), 1667068220412515770536872151150854980446099731386699525623020962942),
        ((1, 1, 25), 2),
        ((1, 2, 18), 53346183053200504657179908836827359374275191404374384819936670814144),
    }),
    (7, 4, 1): (52688443293638336091042474666709101303355713806391758884755161281473837223543808, {
        ((0, 0, 26), 1),
        ((0, 1, 0), 3763460235259881149360176761907792950239693843313697063196797234390988373110272),
        ((0, 1, 19), 1881730117629940574680088380953896475119846921656848531598398617195494186555136),
        ((0, 1, 25), 117608132351871285917505523809618529694990432603553033224899913574718386659696),
        ((0, 2, 24), 940865058814970287340044190476948237559923460828424265799199308597747093277568),
        ((1, 0, 0), 52688443293638336091042474666709101303355713806391758884755161281473837223543808),
        ((1, 0, 24), 411628463231549500711269333333664853932466514112435616287149697511514353308936),
        ((1, 0, 25), 14),
        ((1, 1, 18), 1881730117629940574680088380953896475119846921656848531598398617195494186555136),
        ((1, 1, 24), 58804066175935642958752761904809264847495216301776516612449956787359193329848),
        ((1, 1, 25), 2),
    }),
    (8, 5, 1): (53413760837270319650181743919832137095788141021788905394841913062225738967307910975000, {
        ((0, 0, 26), 1),
        ((0, 1, 0), 6676720104658789956272717989979017136973517627723613174355239132778217370913488871875),
        ((0, 1, 19), 1335344020931757991254543597995803427394703525544722634871047826555643474182697774375),
        ((0, 1, 25), 53413760837270319650181743919832137095788141021788905394841913062225738967307910975),
        ((1, 0, 0), 53413760837270319650181743919832137095788141021788905394841913062225738967307910975000),
        ((1, 0, 24), 427310086698162557201453951358657096766305128174311243158735304497805911738463287800),
        ((1, 0, 25), 8),
        ((1, 1, 18), 1335344020931757991254543597995803427394703525544722634871047826555643474182697774375),
        ((1, 1, 24), 53413760837270319650181743919832137095788141021788905394841913062225738967307910975),
        ((1, 1, 25), 1),
    }),
    (5, 1, 3): (115462620019277072330835455691038534199222312157906055743852912447489486288642552880415, {
        ((0, 0, 26), 9),
        ((0, 1, 0), 2565836000428379385129676793134189648871606936842356794307842498833099695303167841787),
        ((0, 1, 26), 1),
        ((1, 0, 0), 12829180002141896925648383965670948244358034684211783971539212494165498476515839208935),
        ((1, 0, 25), 5),
        ((1, 0, 26), 1),
        ((1, 1, 25), 1),
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

# The invariants of the strong basis of prim of its reduced degrevlex basis.
RAD_104_STRONG = (287729082900, {
    ((0, 1, 3), 195804),
    ((0, 1, 4), 27972),
    ((0, 1, 5), 3996),
    ((0, 2, 1), 5638430),
    ((0, 2, 2), 518),
    ((0, 2, 5), 74),
    ((0, 3, 0), 39690),
    ((0, 3, 1), 70),
    ((0, 3, 2), 14),
    ((0, 3, 5), 2),
    ((1, 0, 3), 2916),
    ((1, 1, 1), 41958),
    ((1, 1, 2), 2),
    ((1, 2, 0), 25372935),
    ((1, 2, 1), 259),
    ((1, 2, 2), 1),
    ((1, 3, 0), 441),
    ((1, 3, 1), 7),
    ((2, 0, 1), 80549),
    ((2, 0, 2), 1),
    ((2, 1, 0), 135975),
    ((2, 1, 1), 259),
    ((2, 2, 0), 3885),
    ((2, 3, 0), 21),
    ((3, 0, 0), 951825),
    ((3, 0, 1), 259),
})


# Measured at 0.57-0.83 s (median 0.77 s of five pytest runs) on a shared
# x86-64 host; the bound is about 4x that.
def test_rad_identity_instance_104():
    spec, ideals, _ = parse_input(RAD_104)
    I, s = ideals[0], spec.ordering
    with timed(3.0):
        assert check_rad_identity(I, s)[2]
        B = strong_gb([prim(g, s) for g in I.reduced_gb(s)], s)
        assert lcm_sigma(B) == 287729082900


def strong_basis_104():
    spec, ideals, _ = parse_input(RAD_104)
    s = spec.ordering
    return strong_gb([prim(g, s) for g in ideals[0].reduced_gb(s)], s)


def test_rad_104_strong_basis_keeps_its_invariants():
    B = strong_basis_104()
    assert (lcm_sigma(B), leading_monomial_set(B)) == RAD_104_STRONG


def test_rad_104_strong_basis_halves_its_zero_reductions(monkeypatch):
    # 1,499 of 1,629 head reductions came out zero with the chain criterion
    # checked at pop time; the Gebauer-Moeller update leaves at most half
    zeros = []
    head_reduce = gb_integer._strong_head_reduce

    def counted(work, basis):
        head = head_reduce(work, basis)
        zeros.append(head is None)
        return head

    monkeypatch.setattr(gb_integer, "_strong_head_reduce", counted)
    assert lcm_sigma(strong_basis_104()) == RAD_104_STRONG[0]
    assert 0 < sum(zeros) <= 749


def test_strong_gb_spends_its_budget():
    Z = ring_zz("x", "y")
    x, y = Z.gens()
    F = [x.scale(2) - y, y * y.scale(3) + x]
    s = degrevlex(2)
    with budget(10**6) as counter:
        B = strong_gb(F, s)
    assert leading_monomial_set(B) == leading_monomial_set(strong_gb(F, s))
    spent = 10**6 - counter.left
    assert spent > 0
    with pytest.raises(BudgetExceeded), budget(spent - 1):
        strong_gb(F, s)
    with pytest.raises(BudgetExceeded), budget(spent - 1):
        pauer_lucky(F, s, 5)


def test_strong_gb_of_no_generators_is_empty():
    R = ring_zz("x", "y")
    B = strong_gb([], lex(2))
    assert list(B) == [] and lcm_sigma(B) == 1
    assert list(strong_gb([R.zero()], lex(2))) == []
