"""Polynomial arithmetic, denominators, primitive parts, modular images,
and the input checks of the library."""

from fractions import Fraction

import pytest

from conftest import ring_qq, ring_zz
from modgb import (
    BadPrimeForInput,
    GF,
    Ideal,
    PolyRing,
    Polynomial,
    QQ,
    ZZ,
    check_rad_identity,
    content,
    den,
    den_of_set,
    leading,
    monic,
    poly_str,
    prim,
    reduce_mod_p,
)
from modgb.arith import crt_pair, rational_reconstruct
from modgb.gb_field import s_polynomial
from modgb.orderings import MatrixOrder, degrevlex, elim, lex


def test_ring_construction_validates_names():
    with pytest.raises(ValueError):
        PolyRing(QQ, ("x", "x"))
    with pytest.raises(ValueError):
        PolyRing(QQ, ())


def test_arithmetic():
    R = ring_qq("x", "y")
    x, y = R.gens()
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (f - f).is_zero()
    assert f + R.zero() == f
    assert f * R.one() == f
    assert -(-f) == f


def test_from_terms_merges_and_drops_zeros():
    R = ring_qq("x")
    f = R.from_terms([((1,), 2), ((1,), -2), ((0,), 5)])
    assert f == R.const(5)
    with pytest.raises(ValueError):
        R.from_terms([((1, 2), 1)])


def test_leading_and_monic():
    R = ring_qq("x", "y")
    x, y = R.gens()
    f = x * y.scale(3) + x
    assert leading(f, degrevlex(2)) == ((1, 1), Fraction(3))
    assert leading(monic(f, degrevlex(2)), degrevlex(2))[1] == 1
    with pytest.raises(ValueError):
        leading(R.zero(), lex(2))


def test_den():
    R = ring_qq("x", "y")
    x, y = R.gens()
    f = x.scale(Fraction(1, 4)) + y.scale(Fraction(5, 6))
    assert den(f) == 12
    assert den(R.zero()) == 1
    assert den_of_set([f, x.scale(Fraction(1, 9))]) == 36
    assert den_of_set([]) == 1


def test_content_and_prim():
    Z = ring_zz("x", "y")
    x, y = Z.gens()
    f = x.scale(4) - y.scale(6)
    assert content(f) == 2
    p = prim(f, degrevlex(2))
    assert p == x.scale(2) - y.scale(3)


def test_prim_is_scaling_invariant():
    R = ring_qq("x", "y")
    x, y = R.gens()
    f = x.scale(Fraction(2, 3)) - y.scale(Fraction(1, 6))
    s = degrevlex(2)
    p = prim(f, s)
    assert p.ring.domain is ZZ
    assert content(p) == 1
    assert leading(p, s)[1] > 0
    assert prim(f.scale(Fraction(-7, 5)), s) == p


def test_reduce_mod_p():
    R = ring_qq("x")
    x = R.gens()[0]
    f = x.scale(Fraction(1, 3)) + R.const(5)
    g = reduce_mod_p(f, 7)
    assert g.ring.domain == GF(7)
    # 1/3 mod 7 = 5
    assert g.terms == {(1,): 5, (0,): 5}
    with pytest.raises(BadPrimeForInput):
        reduce_mod_p(f, 3)
    # terms that vanish mod p disappear
    assert reduce_mod_p(x.scale(7), 7).is_zero()


def test_prime_field_arithmetic():
    F = GF(5)
    assert F.coerce(Fraction(1, 2)) == 3
    assert F.invert(3) == 2
    with pytest.raises(ValueError):
        GF(6)


def test_fp_arithmetic_is_canonical():
    # sums, negations and products over F_p keep residues in [1, p)
    R = PolyRing(GF(5), ("x", "y"))
    x, y = R.gens()
    f, g = x * x + y.scale(3), x * y + R.one()
    s = s_polynomial(f, g, degrevlex(2))
    assert s.terms == {(0, 2): 3, (1, 0): 4}
    for h in (s, f * g, f * f * f, -f, f - g, f + f + f):
        assert all(1 <= c < 5 for c in h.terms.values())


def test_arithmetic_rejects_operands_from_another_ring():
    # a GF(7) and a QQ polynomial in x, y, and a QQ polynomial in u alone:
    # no operator may mix their coefficients or their exponent tuples
    x = ring_qq("x", "y").gens()[0]
    a = PolyRing(GF(7), ("x", "y")).gens()[0]
    u = ring_qq("u").gens()[0]
    for f, g in ((a.scale(3), x.scale(Fraction(1, 2))), (x, a.scale(10)), (x, u)):
        for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g):
            for left, right in ((f, g), (g, f)):
                with pytest.raises(ValueError, match="different rings"):
                    op(left, right)


def test_operators_normalize_through_the_ring():
    R = PolyRing(GF(7), ("x", "y"))
    x, y = R.gens()
    assert x.scale(10).terms == {(1, 0): 3}
    assert x.scale(Fraction(1, 2)).terms == {(1, 0): 4}
    assert x.mul_term((0, 1), 14).is_zero() and x.scale(0).is_zero()
    assert (x.scale(3) + x.scale(4)).is_zero()
    assert (-y).terms == {(0, 1): 6}
    assert R.const(-1) == R.one().scale(6) and R.const(7).is_zero()
    with pytest.raises(BadPrimeForInput):
        x.scale(Fraction(1, 7))
    with pytest.raises(ValueError):
        x.mul_term((1,), 1)


def test_public_constructor_applies_the_coefficient_rule():
    R = PolyRing(GF(7), ("x",))
    x = R.gens()[0]
    f = Polynomial(R, {(1,): 10, (0,): 14})
    assert f.terms == {(1,): 3}
    assert f == x.scale(3) == f + R.zero()
    assert Polynomial(ring_qq("x"), {(1,): 2}).terms == {(1,): Fraction(2)}
    with pytest.raises(BadPrimeForInput):
        Polynomial(R, {(0,): Fraction(1, 7)})
    with pytest.raises(ValueError):
        Polynomial(R, {(1, 0): 1})


def test_ideal_drops_zero_gens_and_caches():
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x, R.zero(), y])
    assert len(I.gens) == 2
    s = degrevlex(2)
    assert I.reduced_gb(s) is I.reduced_gb(s)


def test_poly_str_canonical():
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    s = degrevlex(3)
    assert poly_str(x + z.scale(2), s) == "x + 2*z"
    assert poly_str(y - z, s) == "y - z"
    assert poly_str(-x + y.scale(Fraction(3, 5)), s) == "-x + 3/5*y"
    assert poly_str(x * x * y.scale(2) - R.one(), s) == "2*x^2*y - 1"
    assert poly_str(R.zero(), s) == "0"
    assert poly_str(R.const(-3), s) == "-3"


def test_hash_consistency():
    R = ring_qq("x")
    x = R.gens()[0]
    assert hash(x + R.one()) == hash(R.one() + x)
    assert x + R.one() == R.one() + x


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: crt_pair(0, 1, 0, 5), "moduli must be >= 2"),
        (lambda: rational_reconstruct(7, 5), "residue out of range"),
        (lambda: MatrixOrder([]), "matrix ordering needs at least one row"),
        (lambda: MatrixOrder([[1, 1], [1]]), "matrix ordering rows must all have length 2"),
        (lambda: elim([5], 2), r"elimination block must be a non-empty subset of 0\.\.n-1"),
        (lambda: den(ring_zz("x").var(0)), "den is defined for rational coefficients only"),
        (lambda: content(ring_qq("x").var(0)), "content is defined over ZZ"),
        (lambda: prim(ring_qq("x").zero(), lex(1)), "prim of the zero polynomial is undefined"),
        (
            lambda: prim(PolyRing(GF(7), ("x",)).var(0), lex(1)),
            "prim needs coefficients in QQ or ZZ",
        ),
        (
            lambda: Ideal(ring_qq("x", "y"), [ring_qq("x").var(0)]),
            "all generators must live in the ambient ring",
        ),
        (
            lambda: check_rad_identity(Ideal(ring_qq("x"), []), lex(1)),
            "the zero ideal has no denominator identity",
        ),
    ],
    ids=[
        "crt_modulus_below_2",
        "residue_out_of_range",
        "matrix_without_rows",
        "ragged_matrix_rows",
        "elim_block_out_of_range",
        "den_over_zz",
        "content_over_qq",
        "prim_of_zero",
        "prim_over_fp",
        "generator_from_another_ring",
        "rad_identity_of_zero_ideal",
    ],
)
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()
