"""Prime classification, reductions, the modular bad-prime detector."""

import random

import pytest

from conftest import (
    chained_doubling_ideal,
    graph_ideal_six_vars,
    many_bad_primes_ideal,
    mixed_denominator_ideal,
    ring_qq,
    twelve_cone_ideal,
)
from modgb import (
    BadPrimeForInput,
    GF,
    ZZ,
    Ideal,
    PolyRing,
    buchberger_reduced,
    check_rad_identity,
    classify_prime,
    detect_tau_bad,
    modular_gb,
    prim,
)
from modgb import fan, primes
from modgb.gb_field import is_zero_dimensional
from modgb.orderings import degrevlex, lex, matrix_order
from modgb.primes import (
    NOT_PAUER_LUCKY,
    PAUER_LUCKY,
    SIGMA_BAD,
    SIGMA_GOOD,
    TAU_BAD_CERTIFIED,
    UNDECIDED,
    den_sigma,
    pauer_lucky,
    reduction,
    reduction_tuple,
)


def test_denominator_depends_on_ordering():
    # I = <x + 2y>: den 1 when x is the leading indeterminate, 2 when y is
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x + y.scale(2)])
    x_first = lex(2)
    y_first = matrix_order([[0, 1], [1, 0]], 2)
    assert den_sigma(I, x_first) == 1
    assert den_sigma(I, y_first) == 2
    assert classify_prime(I, x_first, 2).status == SIGMA_GOOD
    assert classify_prime(I, y_first, 2).status == SIGMA_BAD


def test_classification_and_denominators():
    R, I = chained_doubling_ideal()
    s = degrevlex(3)
    assert den_sigma(I, s) == 4
    assert classify_prime(I, s, 2).status == SIGMA_BAD
    assert classify_prime(I, s, 2).evidence["witness_denominator"] % 2 == 0
    assert classify_prime(I, s, 5).status == SIGMA_GOOD


def test_reduction_rejects_bad_prime():
    R, I = chained_doubling_ideal()
    s = degrevlex(3)
    with pytest.raises(ValueError):
        reduction(I, s, 2)
    red = reduction(I, s, 5)
    assert red.ring.domain.characteristic == 5
    assert len(red.gens) == 2


def test_reduction_names_the_denominator_it_found():
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    I = Ideal(R, [x.scale(37) - y, y.scale(41) - z])
    with pytest.raises(BadPrimeForInput, match="prime 37 divides the denominator 1517"):
        reduction(I, degrevlex(3), 37)


@pytest.mark.parametrize("domain", [GF(7), ZZ])
def test_reduction_needs_rational_coefficients(domain):
    R = PolyRing(domain, ("x", "y"))
    x, y = R.gens()
    I = Ideal(R, [x * x - y, x * y + R.one()])
    with pytest.raises(ValueError, match="rational"):
        reduction(I, degrevlex(2), 11)
    # detection takes only BadPrimeForInput for a sigma-bad prime
    with pytest.raises(ValueError, match="rational"):
        detect_tau_bad(I, degrevlex(2), lex(2), [3, 11])


def test_rational_coefficients_are_checked_before_any_work(engine_calls, monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was computed")

    monkeypatch.setattr(fan, "buchberger_reduced", no_basis)
    R = PolyRing(GF(7), ("x", "y"))
    x, y = R.gens()
    I = Ideal(R, [x * x - y, x * y + R.one()])
    s = degrevlex(2)
    for call in (
        lambda: classify_prime(I, s, 3),
        lambda: check_rad_identity(I, s),
        lambda: fan.universal_denominator(I),
        lambda: fan.reduction_universal(I, 3),
    ):
        with pytest.raises(ValueError, match="rational coefficients"):
            call()
    assert engine_calls == []


def test_moduli_are_checked_before_any_work(engine_calls, monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was computed")

    monkeypatch.setattr(fan, "buchberger_reduced", no_basis)
    monkeypatch.setattr(primes, "strong_gb", no_basis)
    R = ring_qq("x", "y")
    x, y = R.gens()
    I = Ideal(R, [x * x - y.scale(3), y * y - R.one()])
    s = degrevlex(2)
    F = [prim(g, s) for g in I.gens]
    for p in (4, 1):
        for call in (
            lambda: reduction(I, s, p),
            lambda: classify_prime(I, s, p),
            lambda: pauer_lucky(F, s, p),
            lambda: detect_tau_bad(I, s, lex(2), [3, p]),
            lambda: fan.reduction_universal(I, p),
        ):
            with pytest.raises(ValueError, match="%d is not prime" % p):
                call()
    assert engine_calls == []


def test_one_judge_of_sigma_badness(monkeypatch):
    R = ring_qq("x", "y", "z")
    x, y, z = R.gens()
    I = Ideal(R, [x.scale(37) - y, y.scale(41) - z])
    s, t = degrevlex(3), lex(3)
    expected = [
        {"prime": 37, "status": SIGMA_BAD, "witness_denominator": 1517},
        {"prime": 41, "status": SIGMA_BAD, "witness_denominator": 41},
    ]
    ledger = modular_gb(I, t, prime_bits=6, rng=random.Random(1)).rejected
    assert [v.to_dict() for v in ledger] == expected
    detected = detect_tau_bad(I, s, t, [37, 41, 43])
    assert [v.to_dict() for v in detected[:2]] == expected
    assert detected[2].status == UNDECIDED
    calls = []
    reduce = primes.reduction
    monkeypatch.setattr(primes, "reduction", lambda *a: calls.append(a) or reduce(*a))
    assert [classify_prime(I, s, p).to_dict() for p in (37, 41)] == expected
    assert calls == [(I, s, 37), (I, s, 41)]


def test_reduction_seeds_its_reduced_sigma_basis():
    # every prime below is sigma-good for all three: their sigma-denominators are 1
    R, J, sigma, tau = graph_ideal_six_vars()
    cases = [(J, sigma)]
    cases += [(mk()[1], degrevlex(3)) for mk in (many_bad_primes_ideal, twelve_cone_ideal)]
    for I, s in cases:
        for p in (2, 3, 5, 7, 11, 13, 2147483647):
            red = reduction(I, s, p)
            assert red.reduced_gb(s) == buchberger_reduced(red.gens, s), p


def test_positive_dimensional_reduction_runs_buchberger(engine_calls):
    # every basis is converted from the first one the ideal holds: a
    # reduction's seeded sigma-basis goes straight to tau by one Buchberger
    # run, while the rational J first computes its degrevlex basis from the
    # generators
    R, J, sigma, tau = graph_ideal_six_vars()
    s = degrevlex(6)
    for p in (None, 2, 3, 5, 7):
        I, o = (J, sigma) if p is None else (reduction(J, sigma, p), tau)
        if p is not None:
            assert not is_zero_dimensional(I.reduced_gb(sigma))
        del engine_calls[:]
        G = I.reduced_gb(o)
        want = [("bb", s), ("bb", o)] if p is None else [("bb", o)]
        assert engine_calls == want, p
        assert G == buchberger_reduced(I.gens, o), p


def test_zero_dimensional_reduction_converts_from_its_seed(engine_calls):
    # 13 is lex-good for many-bad-primes (11 is lex-bad); the reduction seeded
    # with the lex basis mod 13 reaches degrevlex by one FGLM run from it
    R, I = many_bad_primes_ideal()
    t, s = lex(3), degrevlex(3)
    J = reduction(I, t, 13)
    del engine_calls[:]
    G = J.reduced_gb(s)
    assert engine_calls == [("fglm", t, s)]
    assert G == buchberger_reduced(J.gens, s)


def test_pauer_luckiness_can_be_strictly_stronger():
    # den = 30, but the strong basis of prim(F) has leading-coefficient lcm 210:
    # 7 is good yet not Pauer-lucky for the generators
    R, I = mixed_denominator_ideal()
    s = degrevlex(3)
    assert den_sigma(I, s) == 30
    F = [prim(g, s) for g in I.gens]
    v = pauer_lucky(F, s, 7)
    assert v.status == NOT_PAUER_LUCKY
    assert v.evidence["offending_lc"] % 7 == 0
    assert classify_prime(I, s, 7).status == SIGMA_GOOD
    # while for prim of the reduced basis, luckiness matches goodness
    G = [prim(g, s) for g in I.reduced_gb(s)]
    assert pauer_lucky(G, s, 7).status == PAUER_LUCKY
    assert pauer_lucky(G, s, 5).status == NOT_PAUER_LUCKY
    assert pauer_lucky(F, s, 11).status == PAUER_LUCKY


def test_rad_identity_golden():
    R, I = chained_doubling_ideal()
    a, b, ok = check_rad_identity(I, degrevlex(3))
    assert (a, b, ok) == (2, 2, True)
    R, I = mixed_denominator_ideal()
    a, b, ok = check_rad_identity(I, degrevlex(3))
    assert (a, b, ok) == (30, 30, True)


def test_reduction_tuple_golden():
    R, I = many_bad_primes_ideal()
    s, t = degrevlex(3), lex(3)
    names = R.names
    assert reduction_tuple(I, s, t, 11).render(names) == "[z^25, y*z, y^2, x]"
    assert reduction_tuple(I, s, t, 7).render(names) == "[z^13, y, x^2]"


def test_detect_certifies_relatively_bad_primes():
    R, I = many_bad_primes_ideal()
    s, t = degrevlex(3), lex(3)
    verdicts = {v.prime: v for v in detect_tau_bad(I, s, t, [2, 7, 11, 13])}
    assert verdicts[2].status == TAU_BAD_CERTIFIED
    assert verdicts[7].status == TAU_BAD_CERTIFIED
    assert verdicts[11].status == TAU_BAD_CERTIFIED
    # 13 holds the best tuple: never promoted to "good", only undecided
    assert verdicts[13].status == UNDECIDED
    assert verdicts[13].evidence["tuple"].render(R.names) == "[z^26, y, x]"
    assert verdicts[2].evidence["beaten_by"] == verdicts[13].evidence["tuple"]


def test_detect_reports_sigma_bad_prime_and_judges_the_rest():
    R, I = chained_doubling_ideal()
    verdicts = detect_tau_bad(I, degrevlex(3), lex(3), [2, 3])
    assert [(v.prime, v.status) for v in verdicts] == [(2, SIGMA_BAD), (3, UNDECIDED)]
    assert verdicts[0].evidence["witness_denominator"] % 2 == 0


def test_all_equal_tuples_reject_nothing():
    R, I = many_bad_primes_ideal()
    s, t = degrevlex(3), lex(3)
    verdicts = detect_tau_bad(I, s, t, [13, 17, 19])
    assert all(v.status == UNDECIDED for v in verdicts)
