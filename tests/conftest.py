"""Shared builders for the worked examples used across the test suite, and
a fixture that logs the engine calls of Ideal.reduced_gb."""

import time
from fractions import Fraction

import pytest

from modgb import GF, Ideal, PolyRing, QQ, ZZ, gb_field
from modgb.orderings import degrevlex, elim, lex


def ring_qq(*names):
    return PolyRing(QQ, names)


def ring_zz(*names):
    return PolyRing(ZZ, names)


def poly(ring, *terms):
    """Build a polynomial from (coeff, exponent tuple) pairs."""
    return ring.from_terms([(pp, c) for c, pp in terms])


def pair_of_linear_gens():
    """F = [x + 2z, x + 2y] in QQ[x,y,z]; two bases of the same ideal."""
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    F = [x + z.scale(2), x + y.scale(2)]
    return R, F


def chained_doubling_ideal():
    """I = <2x - y, 2y - z> in QQ[x,y,z]; denominator 4 under degrevlex."""
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    return R, Ideal(R, [x.scale(2) - y, y.scale(2) - z])


def mixed_denominator_ideal():
    """I = <x^2 y - (7/2) y, x y^2 - (3/5) x>; denominator 30 under degrevlex."""
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    F = [x * x * y - y.scale(Fraction(7, 2)), x * y * y - x.scale(Fraction(3, 5))]
    return R, Ideal(R, F)


def twelve_cone_ideal():
    """I = <x^2 - y, x y + z + 1, z^2 + x>; twelve fan cones, Delta = 28."""
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    return R, Ideal(R, [x * x - y, x * y + z + R.one(), z * z + x])


def many_bad_primes_ideal():
    """I = <x^2 y + 7 x y^2 - 2, y^3 + x^2 z, z^3 + x^2 - y>; bad lex primes."""
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    F = [
        x * x * y + (x * y * y).scale(7) - R.const(2),
        y * y * y + x * x * z,
        z * z * z + x * x - y,
    ]
    return R, Ideal(R, F)


def graph_ideal_six_vars():
    """J = <x - t^3, y - st^2 + 2s^2, z - s^2 t + 5, w - s^3 + 7t> with the
    two elimination orderings used by the detection walkthrough."""
    R = ring_qq("x", "y", "z", "w", "s", "t")
    x, y, z, w, s, t = R.gens()
    f1 = t * t * t
    f2 = s * t * t - (s * s).scale(2)
    f3 = s * s * t - R.const(5)
    f4 = s * s * s - t.scale(7)
    J = Ideal(R, [x - f1, y - f2, z - f3, w - f4])
    sigma = elim([0, 1, 2, 3], 6)
    tau = elim([4, 5], 6)
    return R, J, sigma, tau


def rand_poly(rng, ring, maxdeg=4, maxterms=3, denoms=(1, 1, 2, 3)):
    """Random sparse polynomial with small rational coefficients."""
    n = ring.n
    terms = []
    for _ in range(rng.randint(1, maxterms)):
        while True:
            pp = tuple(rng.randint(0, maxdeg) for _ in range(n))
            if sum(pp) <= maxdeg:
                break
        c = Fraction(rng.randint(-9, 9), rng.choice(denoms))
        terms.append((pp, c))
    return ring.from_terms(terms)


def rand_ideal(rng, maxvars=3, maxdeg=4, maxgens=3, names=("x", "y", "z")):
    """Random small ideal over QQ with 1..maxvars indeterminates."""
    n = rng.randint(1, maxvars)
    ring = PolyRing(QQ, names[:n])
    gens = []
    while not gens:
        gens = [
            f
            for f in (
                rand_poly(rng, ring, maxdeg) for _ in range(rng.randint(1, maxgens))
            )
            if not f.is_zero()
        ]
    return ring, Ideal(ring, gens)


def timed(bound):
    """Context manager asserting the wrapped block finishes within bound seconds."""

    class _T:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                assert time.monotonic() - self.t0 < bound

    return _T()


@pytest.fixture()
def engine_calls(monkeypatch):
    """The engine calls that Ideal.reduced_gb makes, in order:
    ("bb", sigma) for buchberger_reduced and ("fglm", sigma, tau)."""
    calls = []
    bb, fglm = gb_field.buchberger_reduced, gb_field.fglm

    def traced_bb(gens, sigma, *args, **kwargs):
        calls.append(("bb", sigma))
        return bb(gens, sigma, *args, **kwargs)

    def traced_fglm(G, tau):
        calls.append(("fglm", G.ordering, tau))
        return fglm(G, tau)

    monkeypatch.setattr(gb_field, "buchberger_reduced", traced_bb)
    monkeypatch.setattr(gb_field, "fglm", traced_fglm)
    return calls
