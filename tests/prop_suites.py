"""Randomized property suites, invoked once from the acceptance gate.

Each suite runs at least 200 random instances with at most 3
indeterminates, degree at most 4 and at most 3 generators.  They are kept
out of pytest collection so the full cost is paid exactly once.
"""

import random

from conftest import rand_ideal, rand_poly
from modgb import (
    Ideal,
    check_rad_identity,
    lcm_sigma,
    modular_gb,
    os_of_ideal,
    os_of_polys,
    prim,
    reduce_mod_p,
    strong_gb,
)
from modgb.gb_field import buchberger_reduced, is_groebner, normal_form
from modgb.orderings import degrevlex, lex
from modgb.primes import den_sigma, pauer_lucky, PAUER_LUCKY, reduction_tuple
from modgb.tuples import PRECEDES, precedes

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def suite_rad_identity(count=200, seed=101):
    """rad of the basis denominator equals rad of the strong-GB lc lcm."""
    rng = random.Random(seed)
    for _ in range(count):
        ring, I = rand_ideal(rng, maxdeg=4)
        a, b, ok = check_rad_identity(I, degrevlex(ring.n))
        assert ok, (I.gens, a, b)


def suite_lucky_equals_good(count=200, seed=102):
    """p is Pauer-lucky for prim of the reduced basis iff p is sigma-good."""
    rng = random.Random(seed)
    for _ in range(count):
        ring, I = rand_ideal(rng, maxdeg=4)
        s = degrevlex(ring.n)
        den = den_sigma(I, s)
        G = [prim(g, s) for g in I.reduced_gb(s)]
        lc_lcm = lcm_sigma(strong_gb(G, s))
        for p in SMALL_PRIMES:
            assert (den % p != 0) == (lc_lcm % p != 0), (I.gens, p, den, lc_lcm)
        p = rng.choice(SMALL_PRIMES)
        assert (pauer_lucky(G, s, p).status == PAUER_LUCKY) == (den % p != 0)


def suite_same_reduction(count=200, seed=103):
    """For a doubly good prime the two reductions generate the same ideal,
    whose reduced tau-basis is the image of the rational tau-basis."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        ring, I = rand_ideal(rng, maxdeg=3)
        s, t = degrevlex(ring.n), lex(ring.n)
        den = den_sigma(I, s) * den_sigma(I, t)
        p = next((q for q in SMALL_PRIMES if den % q != 0), None)
        if p is None:
            continue
        gs = [reduce_mod_p(g, p) for g in I.reduced_gb(s)]
        gt = [reduce_mod_p(g, p) for g in I.reduced_gb(t)]
        ring_p = gs[0].ring
        from_s = Ideal(ring_p, gs).reduced_gb(t)
        assert list(from_s) == sorted(gt, key=lambda g: t.key(max(g.terms, key=t.key)))
        from_t = Ideal(ring_p, gt).reduced_gb(s)
        assert list(from_t) == sorted(gs, key=lambda g: s.key(max(g.terms, key=s.key)))
        done += 1


def suite_tuple_orderings(count=200, seed=104):
    """The ideal tuple equals the generator tuple exactly for Groebner
    generating sets, and strictly precedes it otherwise; growing the ideal
    strictly shrinks the tuple."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        ring, I = rand_ideal(rng, maxdeg=4)
        s = degrevlex(ring.n)
        o_ideal = os_of_ideal(I, s)
        o_gens = os_of_polys(I.gens, s)
        if is_groebner(I.gens, s):
            assert o_ideal == o_gens
        else:
            assert precedes(o_ideal, o_gens) == PRECEDES
        extra = rand_poly(rng, ring, maxdeg=3)
        if extra.is_zero():
            continue
        if normal_form(extra, I.reduced_gb(s), s).is_zero():
            continue  # J would equal I
        J = Ideal(ring, I.gens + [extra])
        assert precedes(os_of_ideal(J, s), o_ideal) == PRECEDES
        done += 1


def suite_sigma_tau(count=200, seed=105):
    """A sigma-good prime gives the exact tau-tuple when tau-good, and a
    strictly preceding, never prefix-extending tuple when tau-bad."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        ring, I = rand_ideal(rng, maxdeg=3)
        s, t = degrevlex(ring.n), lex(ring.n)
        den_s = den_sigma(I, s)
        den_t = den_sigma(I, t)
        o_tau = os_of_ideal(I, t)
        used = False
        for p in SMALL_PRIMES[:8]:
            if den_s % p == 0:
                continue
            tup = reduction_tuple(I, s, t, p)
            if den_t % p != 0:
                assert tup == o_tau, (I.gens, p)
            else:
                assert precedes(tup, o_tau) == PRECEDES, (I.gens, p)
                assert not (
                    len(o_tau) > len(tup)
                    and o_tau.entries[: len(tup)] == tup.entries
                ), (I.gens, p)
            used = True
        if used:
            done += 1


def suite_pipeline_matches_direct(count=200, seed=106):
    """The modular pipeline reconstructs exactly the direct rational basis."""
    rng = random.Random(seed)
    for i in range(count):
        ring, I = rand_ideal(rng, maxdeg=3)
        t = lex(ring.n)
        result = modular_gb(I, t, rng=random.Random(seed * 1000 + i))
        # Buchberger from the generators, not I.reduced_gb(t), which would
        # convert the sigma-basis the pipeline cached on I
        assert list(result.basis) == list(buchberger_reduced(I.gens, t)), I.gens


ALL_SUITES = (
    suite_rad_identity,
    suite_lucky_equals_good,
    suite_same_reduction,
    suite_tuple_orderings,
    suite_sigma_tau,
    suite_pipeline_matches_direct,
)
