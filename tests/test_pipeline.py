"""Modular basis pipeline: runs, filtering, lifting, verification."""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    chained_doubling_ideal,
    many_bad_primes_ideal,
    rand_ideal,
    ring_qq,
    timed,
    twelve_cone_ideal,
)
from modgb import GF, ZZ, Ideal, PolyRing, buchberger_reduced, detect_tau_bad, modular_gb
from modgb import Polynomial, parse_input
from modgb import pipeline
from modgb.gb_field import is_groebner, is_zero_dimensional
from modgb.orderings import degrevlex, lex
from modgb.pipeline import (
    LiftState,
    lift_and_reconstruct,
    run_prime,
    verify_candidate,
)
from modgb.poly import leading, poly_str
from modgb.primes import SIGMA_BAD, TAU_BAD_CERTIFIED, UNDECIDED
from modgb.tuples import PRECEDES, LtTuple, count_standard, precedes


def lifted(I, sigma, tau, primes):
    """A LiftState that has absorbed the F_p bases of the given primes."""
    bases = [run_prime(I, sigma, tau, p) for p in primes]
    state = LiftState(LtTuple(tau, bases[0].leading_terms()))
    for basis in bases:
        state.absorb(basis)
    return state


def test_run_prime_golden():
    R, I = many_bad_primes_ideal()
    s, t = degrevlex(3), lex(3)
    basis = run_prime(I, s, t, 11)
    assert basis[0].ring.domain.characteristic == 11
    assert LtTuple(t, basis.leading_terms()).render(R.names) == "[z^25, y*z, y^2, x]"


def test_run_prime_rejects_sigma_bad():
    R, I = chained_doubling_ideal()
    with pytest.raises(ValueError):
        run_prime(I, degrevlex(3), lex(3), 2)


def test_lift_state_tracks_modulus_and_residues():
    R, I = chained_doubling_ideal()
    s, t = degrevlex(3), lex(3)
    b5 = run_prime(I, s, t, 5)
    b7 = run_prime(I, s, t, 7)
    state = LiftState(LtTuple(t, b5.leading_terms()))
    state.absorb(b5)
    assert state.modulus == 5
    state.absorb(b7)
    assert state.modulus == 35
    assert state.primes == [5, 7]
    with pytest.raises(ValueError):
        state.absorb(run_prime(many_bad_primes_ideal()[1], s, t, 13))


def test_lift_and_reconstruct_small():
    # <2x - y, 2y - z> under lex: {x - z/4, y - z/2}
    R, I = chained_doubling_ideal()
    s, t = degrevlex(3), lex(3)
    candidate = lift_and_reconstruct(lifted(I, s, t, (5, 7, 11)), R.names)
    assert candidate is not None
    rendered = sorted(poly_str(g, t) for g in candidate)
    assert rendered == ["x - 1/4*z", "y - 1/2*z"]
    assert verify_candidate(candidate, I, t)
    assert sorted(candidate, key=lambda g: t.key(leading(g, t)[0])) == list(
        buchberger_reduced(I.gens, t)
    )


def test_single_prime_is_not_enough():
    # with modulus 5 the residue for -1/4 cannot reconstruct within the bound
    R, I = chained_doubling_ideal()
    s, t = degrevlex(3), lex(3)
    assert lift_and_reconstruct(lifted(I, s, t, (5,)), R.names) is None


def test_monomial_ideal_lifts_from_one_prime():
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x * x, y])
    t = lex(2)
    candidate = lift_and_reconstruct(lifted(I, degrevlex(2), t, (5,)), R.names)
    assert candidate is not None
    assert verify_candidate(candidate, I, t)
    assert sorted(candidate, key=lambda g: t.key(leading(g, t)[0])) == list(
        buchberger_reduced(I.gens, t)
    )


def test_verify_candidate_rejects_perturbation():
    R, I = chained_doubling_ideal()
    t = lex(3)
    G = list(I.reduced_gb(t))
    assert verify_candidate(G, I, t)
    bad = [G[0], G[1] + R.one().scale(Fraction(1, 3))]
    assert not verify_candidate(bad, I, t)
    assert not verify_candidate([G[0].scale(2), G[1]], I, t)  # not monic
    assert not verify_candidate([G[0]], I, t)  # generators do not reduce
    assert verify_candidate([], Ideal(R, []), t)


def test_verify_candidate_checks_both_containments():
    R, I = twelve_cone_ideal()
    t = lex(3)
    assert verify_candidate(list(I.reduced_gb(t)), I, t)
    # too large: the unit ideal contains I but is not I
    assert not verify_candidate([R.one()], I, t)
    assert not verify_candidate([R.one()], I, t, sigma=lex(3))
    # too small: a reduced basis of a proper subideal
    smaller = list(Ideal(R, I.gens[:2]).reduced_gb(t))
    assert not verify_candidate(smaller, I, t)


def test_verify_candidate_rejects_zero_unreduced_and_non_groebner_candidates():
    R = ring_qq("x", "y")
    x, y = R.gens()
    t = lex(2)
    gens = [x * x - y, x * y - R.one()]
    I = Ideal(R, gens)
    assert not verify_candidate([R.zero(), y], I, t)
    assert not verify_candidate([y, x + y], I, t)  # lt y divides x + y's tail
    # monic, self-reduced and inside I, but not a Groebner basis: its leading
    # terms x^2 and x*y leave every y^k standard, so the count rejects it
    assert not is_groebner(gens, t)
    assert not verify_candidate(gens, I, t)


def test_verify_candidate_rejects_random_wrong_ideals():
    rng = random.Random(21)
    for _ in range(10):
        ring, I = rand_ideal(rng, maxvars=3, maxdeg=3, maxgens=2)
        t = lex(ring.n)
        G = list(I.reduced_gb(t))
        if G == [ring.one()]:
            continue
        assert verify_candidate(G, I, t)
        assert not verify_candidate([ring.one()], I, t)
        # x * I is a proper subideal of I
        x = ring.gens()[0]
        smaller = list(Ideal(ring, [f * x for f in I.gens]).reduced_gb(t))
        assert not verify_candidate(smaller, I, t)


def zero_dimensional_pair():
    """I = <x^2 - y, y^2> in QQ[x,y]: zero-dimensional, dim R/I = 4."""
    R = ring_qq("x", "y")
    x, y = R.gens()
    return R, Ideal(R, [x * x - y, y * y])


def forbid(monkeypatch, *names):
    """Make the named pipeline functions fail the test if they are called."""
    for name in names:
        def called(*args, name=name):
            raise AssertionError("%s was called" % name)

        monkeypatch.setattr(pipeline, name, called)


def test_verify_candidate_counts_standard_monomials_when_zero_dimensional(monkeypatch):
    R, I = zero_dimensional_pair()
    x, y = R.gens()
    t = lex(2)
    G = list(I.reduced_gb(t))
    # no Groebner check on the counting path
    forbid(monkeypatch, "is_groebner")
    assert verify_candidate(G, I, t)
    # too large: <x^2 - y, x*y, y^2> has dim 3
    assert not verify_candidate([x * x - y, x * y, y * y], I, t)
    # too small: the proper subideals <x^2 - y, y^3> (dim 6) and <x^2 - y>
    assert not verify_candidate([x * x - y, y * y * y], I, t)
    assert not verify_candidate([x * x - y], I, t)
    # the right leading terms with a wrong tail
    assert not verify_candidate([x * x - y + R.one(), y * y], I, t)


def test_verify_candidate_rejects_a_larger_ideal_with_the_same_count(monkeypatch):
    R, I = zero_dimensional_pair()
    x, y = R.gens()
    t = lex(2)
    C = [x * x - y, x * y, y * y * y]
    # #std<x^2, x*y, y^3> = #{1, x, y, y^2} = 4 = dim R/I, but C is not a
    # Groebner basis: its ideal holds y^2 and strictly contains I
    assert count_standard([leading(g, t)[0] for g in C], 2) == 4
    assert not is_groebner(C, t)
    J = Ideal(R, C)
    assert list(J.reduced_gb(t)) == [y * y, x * y, x * x - y]
    forbid(monkeypatch, "is_groebner")
    assert not verify_candidate(C, I, t)


def test_verify_candidate_rejects_unbounded_counts_quickly(monkeypatch):
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x, y])
    t = lex(2)
    forbid(monkeypatch, "is_groebner", "normal_form")
    with timed(0.5):
        # lt(C) leaves every y^k standard
        assert not verify_candidate([x], I, t)
        # the walk stops once the count passes #std(lt G) = 1, long before x^(10^12)
        assert not verify_candidate([R.from_terms([((10**12, 0), 1)]), y], I, t)


def test_verify_candidate_counts_a_huge_pure_power_by_slices():
    R = ring_qq("x")
    power = R.from_terms([((10**12,), 1)])
    I = Ideal(R, [power])
    with timed(0.5):
        assert verify_candidate([power], I, lex(1))
        assert not verify_candidate([R.from_terms([((10**12 - 1,), 1)])], I, lex(1))


def test_verify_candidate_keeps_the_two_sided_check_otherwise(monkeypatch):
    checked = []
    groebner = pipeline.is_groebner
    monkeypatch.setattr(
        pipeline, "is_groebner", lambda C, tau: checked.append(len(C)) or groebner(C, tau)
    )
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    t = lex(3)
    # the unit ideal: G = [1] is not zero-dimensional by its leading terms
    unit = Ideal(R, [x, x + R.one()])
    assert verify_candidate([R.one()], unit, t)
    assert not verify_candidate([x], unit, t)
    # a positive-dimensional ideal
    I = Ideal(R, [x * x - y * z, x * y - z])
    assert not is_zero_dimensional(I.reduced_gb(degrevlex(3)))
    G = list(Ideal(R, I.gens).reduced_gb(t))
    assert verify_candidate(G, I, t)
    # G without its first element still generates I, but is no Groebner basis
    assert not verify_candidate(G[1:], I, t)
    assert checked == [1, len(G), len(G) - 1]


@pytest.mark.parametrize("bits", [2, 3, 4, 5])
def test_modular_gb_raises_when_primes_run_out(bits):
    R, I = many_bad_primes_ideal()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="used up"):
        modular_gb(I, lex(3), prime_bits=bits, rng=random.Random(bits))
    assert time.monotonic() - start < 10.0


def test_modular_gb_raises_after_max_primes_without_a_verified_basis():
    # a candidate is lifted from three primes at the earliest
    R, I = chained_doubling_ideal()
    with pytest.raises(RuntimeError, match="no verified basis after 2 primes"):
        modular_gb(I, lex(3), max_primes=2, rng=random.Random(0))


def test_modular_gb_validates_its_budget():
    R, I = chained_doubling_ideal()
    with pytest.raises(ValueError):
        modular_gb(I, lex(3), prime_bits=1)
    with pytest.raises(ValueError):
        modular_gb(I, lex(3), max_primes=0)


def test_modular_gb_matches_direct_computation():
    R, I = many_bad_primes_ideal()
    t = lex(3)
    result = modular_gb(I, t, rng=random.Random(7))
    # Buchberger from the generators: I.reduced_gb(t) would convert the
    # sigma-basis the pipeline cached on I
    assert list(result.basis) == list(buchberger_reduced(I.gens, t))
    assert len(result.used_primes) >= 3
    assert result.attempts >= len(result.used_primes)
    assert result.seconds >= 0
    for r in result.rejected:
        assert r.status in (SIGMA_BAD, TAU_BAD_CERTIFIED)


@pytest.mark.parametrize("domain", [GF(7), ZZ])
def test_modular_gb_rejects_non_rational_input_at_once(domain, monkeypatch):
    def no_prime(*args):
        raise AssertionError("a prime was drawn")

    monkeypatch.setattr(pipeline, "random_prime", no_prime)
    R = PolyRing(domain, ("x", "y"))
    x, y = R.gens()
    with pytest.raises(ValueError, match="rational"):
        modular_gb(Ideal(R, [x * x - y, x * y + R.one()]), lex(2))


def test_modular_gb_rejects_tau_bad_prime_with_detect_verdict():
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x * x - y.scale(5) + R.const(43), x * y + y * y + x.scale(6) + R.one()])
    result = modular_gb(I, lex(2), prime_bits=6, max_primes=7, rng=random.Random(0))
    assert [(v.prime, v.status) for v in result.rejected] == [(37, TAU_BAD_CERTIFIED)]
    verdict = result.rejected[0]
    detected = detect_tau_bad(I, degrevlex(2), lex(2), [37, *result.used_primes])
    assert verdict.evidence["tuple"] == detected[0].evidence["tuple"]
    assert precedes(verdict.evidence["tuple"], verdict.evidence["beaten_by"]) == PRECEDES
    assert all(v.status == UNDECIDED for v in detected[1:])


def test_modular_gb_rejects_sigma_bad_primes_with_their_denominators():
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    I = Ideal(R, [x.scale(37) - y, y.scale(41) - z])
    result = modular_gb(I, lex(3), prime_bits=6, rng=random.Random(1))
    ledger = [(v.prime, v.status, v.evidence["witness_denominator"]) for v in result.rejected]
    assert ledger == [(37, SIGMA_BAD, 1517), (41, SIGMA_BAD, 41)]


def recorded_states(monkeypatch):
    """The LiftStates that modular_gb absorbs into, in order of first use."""
    states = []
    absorb = LiftState.absorb

    def recording(self, basis):
        if self not in states:
            states.append(self)
        absorb(self, basis)

    monkeypatch.setattr(LiftState, "absorb", recording)
    return states


# many-bad-primes and the benchmark's pool of family members
FAMILY_TEXTS = [
    "ring QQ[x,y,z] lex;\nideal(x^2*y + 7*x*y^2 - 2, y^3 + x^2*z, z^3 + x^2 - y);\n",
    "ring QQ[x,y,z] lex;\nideal(x^2*y + 8*x*y^2 - 2, y^3 + x^2*z, z^3 + x^2 - y);\n",
    "ring QQ[x,y,z] lex;\nideal(x^2*y + 7*x*y^2 - 1, y^3 + x^2*z, z^3 + x^2 - y);\n",
    "ring QQ[x,y,z] lex;\nideal(x^2*y + 5*x*y^2 - 5, y^3 + x^2*z, z^3 + x^2 - y);\n",
    "ring QQ[x,y,z] lex;\nideal(x^2*y + 6*x*y^2 - 4, y^3 + x^2*z, z^3 + x^2 - y);\n",
    "ring QQ[x,y,z] lex;\nideal(x^2*y + 6*x*y^2 - 2, y^3 + x^2*z, z^3 + x^2 - y);\n",
]


@pytest.mark.parametrize(
    "text, shape",
    [
        # shape position, but f = y^2 is never squarefree: no Newton prime
        ("ring QQ[x,y] lex;\nideal(x, y^2);\n", True),
        ("ring QQ[x,y] lex;\nideal(x^2 - 1, y^2 - 1);\n", False),
        ("ring QQ[x,y] lex;\nideal(x^2 + y, y^2 - 1/3);\n", False),
        ("ring QQ[x] lex;\nideal(x^3 - 2);\n", False),
        ("ring QQ[x,y] lex;\nideal(1);\n", False),
        (FAMILY_TEXTS[0].replace("lex", "degrevlex"), False),
    ],
)
def test_modular_gb_keeps_the_table_route_without_a_newton_prime(text, shape, monkeypatch):
    states = recorded_states(monkeypatch)
    forbid(monkeypatch, "_expand_shape")
    spec, ideals, _ = parse_input(text)
    I, tau = ideals[0], spec.ordering
    result = modular_gb(I, tau, rng=random.Random(7))
    assert list(result.basis) == list(buchberger_reduced(I.gens, tau))
    assert states and all((s.kronecker is not None) == shape for s in states)
    assert not shape or all(pipeline._newton_seed(s) is None for s in states)


def test_shape_position_sweep_agrees_with_the_direct_basis():
    rng = random.Random(29)
    done = expanded = 0
    while done < 30:
        ring, I = rand_ideal(rng, maxvars=3, maxdeg=3)
        t = lex(ring.n)
        G = list(buchberger_reduced(I.gens, t))
        if not pipeline._in_shape_position(LtTuple(t, [leading(g, t)[0] for g in G])):
            continue
        result = modular_gb(I, t, rng=random.Random(done))
        assert list(result.basis) == G
        # the Kronecker route alone, from the same primes
        state = lifted(I, degrevlex(ring.n), t, result.used_primes)
        if pipeline._newton_seed(state) is not None:
            assert pipeline._shape_candidate(state, ring) == G
            expanded += 1
        done += 1
    # the others are not radical, like <x, y^2>
    assert expanded >= 10


@pytest.mark.parametrize("text", FAMILY_TEXTS)
def test_modular_gb_lifts_shape_position_from_three_primes(text):
    # the lex basis needs about 500 bits per coefficient (9 primes of 64
    # bits); its Kronecker form needs about 30
    spec, ideals, _ = parse_input(text)
    I = ideals[0]
    result = modular_gb(I, lex(3), rng=random.Random(7))
    assert len(result.used_primes) == 3
    assert list(result.basis) == list(buchberger_reduced(I.gens, lex(3)))


def test_a_wrong_kronecker_coefficient_stops_the_lift_at_its_cap(monkeypatch):
    levels, runs = [], []
    mulmod, expand = pipeline._mulmod, pipeline._expand_shape
    monkeypatch.setattr(
        pipeline, "_mulmod", lambda a, b, f, m: levels.append(m) or mulmod(a, b, f, m)
    )

    def wrong(f, ks, p, seed, known, M):
        ks = [k[:] for k in ks]
        ks[0][0] += 1
        levels.clear()
        hs = expand(f, ks, p, seed, known, M)
        # the cap 2H of _expand_shape, from f and the k_i alone
        cf = math.lcm(*(c.denominator for c in f))
        ck = math.lcm(*(c.denominator for k in ks for c in k))
        F = [c * cf for c in f]
        dF = [i * c for i, c in enumerate(F)][1:]
        H = sum(c * c for c in dF) ** (len(dF)) * sum(c * c for c in F) ** (len(dF) - 1)
        H *= max(max(sum((c * cf * ck) ** 2 for c in k) for k in ks), ck * ck)
        runs.append((hs, p, max(levels), 2 * H))
        return hs

    monkeypatch.setattr(pipeline, "_expand_shape", wrong)
    R, I = many_bad_primes_ideal()
    t = lex(3)
    with timed(1.0):
        result = modular_gb(I, t, rng=random.Random(7))
    assert list(result.basis) == list(buchberger_reduced(I.gens, t))
    assert len(result.used_primes) > 3
    assert runs
    for hs, p, last, cap in runs:
        assert hs is None
        # the last precision is the first p^(2^j) at or past the cap
        assert last >= cap and (last == p or math.isqrt(last) < cap)


def test_modular_gb_many_bad_primes_lex_time_bound():
    # per-prime lex bases come by FGLM from the reduced sigma-basis mod p
    # (by Buchberger over F_p this took about 3 s), and three of them give
    # the Kronecker form: at most 34 ms in twenty runs each under Python
    # 3.10, 3.11 and 3.12 (x86-64), so the bound is twice the slowest
    R, I = many_bad_primes_ideal()
    with timed(0.07):
        result = modular_gb(I, lex(3), rng=random.Random(7))
    assert len(result.used_primes) >= 3


def test_modular_gb_lifts_each_kept_run_once(monkeypatch):
    absorbed = []
    absorb = LiftState.absorb

    def counting(self, basis):
        absorbed.append(basis[0].ring.domain.characteristic)
        absorb(self, basis)

    monkeypatch.setattr(LiftState, "absorb", counting)
    R, I = many_bad_primes_ideal()
    result = modular_gb(I, lex(3), rng=random.Random(7))
    assert sorted(absorbed) == sorted(set(absorbed))
    assert set(result.used_primes) <= set(absorbed)


def test_modular_gb_deterministic_for_a_fixed_seed():
    R, I = chained_doubling_ideal()
    t = lex(3)
    r1 = modular_gb(I, t, rng=random.Random(99))
    r2 = modular_gb(I, t, rng=random.Random(99))
    assert r1.used_primes == r2.used_primes
    assert list(r1.basis) == list(r2.basis)


def test_modular_gb_zero_ideal():
    R = ring_qq("x")
    result = modular_gb(Ideal(R, []), lex(1))
    assert len(result.basis) == 0
    assert result.used_primes == []


def test_modular_gb_random_ideals_agree_with_direct():
    rng = random.Random(13)
    done = 0
    while done < 10:
        ring, I = rand_ideal(rng, maxvars=3, maxdeg=3, maxgens=2)
        t = lex(ring.n)
        result = modular_gb(I, t, rng=random.Random(done))
        assert list(result.basis) == list(buchberger_reduced(I.gens, t))
        done += 1


KATSURA5 = (
    "ring QQ[u0,u1,u2,u3,u4,u5] lex;\n"
    "ideal(u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 + 2*u5 - 1,"
    " u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 + 2*u5^2 - u0,"
    " 2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 + 2*u4*u5 - u1,"
    " 2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 + 2*u3*u5 - u2,"
    " 2*u0*u3 + 2*u1*u2 + 2*u1*u4 + 2*u2*u5 - u3,"
    " 2*u0*u4 + 2*u1*u3 + u2^2 + 2*u1*u5 - u4);\n"
)


def test_modular_gb_katsura5_from_at_most_five_primes():
    spec, ideals, _ = parse_input(KATSURA5)
    I, t = ideals[0], spec.ordering
    result = modular_gb(I, t, rng=random.Random(1))
    assert len(result.used_primes) <= 5
    # the direct route, on an ideal without the pipeline's cached bases
    assert list(result.basis) == list(parse_input(KATSURA5)[1][0].reduced_gb(t))


def test_katsura5_verification_is_timed():
    # The reverse normal forms of the lex basis against the degrevlex basis
    # took 3.1 s to accept and 4.1 s to reject with Fraction arithmetic,
    # and about 0.25 s each fraction-free (x86-64, Python 3.11).
    spec, ideals, _ = parse_input(KATSURA5)
    I, t = ideals[0], spec.ordering
    G = list(I.reduced_gb(t))  # caches the degrevlex basis too
    g = G[-1]
    tail = next(s for s in g.terms if s != leading(g, t)[0])
    terms = dict(g.terms)
    terms[tail] += 1
    bad = G[:-1] + [Polynomial(g.ring, terms)]
    with timed(3.0):
        assert verify_candidate(G, I, t)
        assert not verify_candidate(bad, I, t)
