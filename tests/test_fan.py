"""Groebner fan traversal, universal denominators, ordering-free reduction."""

import hashlib
import random

import pytest

from conftest import ring_qq, twelve_cone_ideal
from modgb import (
    FanBudgetExceeded,
    GF,
    Ideal,
    PolyRing,
    buchberger_reduced,
    enumerate_fan,
    normal_form,
    reduction_universal,
    universal_denominator,
)
from modgb import fan as fan_module
from modgb.fan import _facet_point, _solve_strict, cone_vectors, key
from modgb.orderings import degrevlex, matrix_order
from modgb.poly import den_of_set


def test_twelve_cones_and_delta():
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    assert len(fan) == 12
    assert fan.denominator() == 28


def test_single_cone_for_monomial_ideal():
    R = ring_qq("x", "y")
    x, y = R.gens()
    fan = enumerate_fan(Ideal(R, [x, y]))
    assert len(fan) == 1
    assert fan.denominator() == 1


def test_principal_ideal_delta():
    R = ring_qq("x", "y")
    x, y = R.gens()
    assert universal_denominator(Ideal(R, [x + y.scale(2)])) == 2


def test_adjacency_is_symmetric_and_connected():
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    for i, nbrs in fan.adjacency.items():
        for j in nbrs:
            assert i in fan.adjacency[j]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in fan.adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert seen == set(range(len(fan)))


def test_every_sampled_ordering_lands_in_a_cone():
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    keys = {key(c) for c in fan.cones}
    rng = random.Random(41)
    found = 0
    for _ in range(50):
        while True:
            rows = [[rng.randint(1, 9) for _ in range(3)]]
            rows += [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
            try:
                order = matrix_order(rows, 3)
            except ValueError:
                continue
            break
        G = buchberger_reduced(I.gens, order)
        assert key(G) in keys
        found += 1
    assert found == 50


def test_den_divides_delta():
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    delta = fan.denominator()
    for cone in fan.cones:
        assert delta % den_of_set(cone.elements) == 0


def test_reduction_universal_agreement():
    R, I = twelve_cone_ideal()
    red = reduction_universal(I, 3, verify=True)
    assert red.ring.domain == GF(3)
    # the images of any two cone bases generate the same ideal
    fan = enumerate_fan(I)
    s = degrevlex(3)
    G0 = red.reduced_gb(s)
    from modgb import reduce_mod_p

    for cone in fan.cones:
        for g in cone.elements:
            assert normal_form(reduce_mod_p(g, 3), G0, s).is_zero()


def test_reduction_universal_rejects_divisor_of_delta():
    R, I = twelve_cone_ideal()
    for p in (2, 7):
        with pytest.raises(ValueError):
            reduction_universal(I, p)
    R2 = ring_qq("x", "y")
    x, y = R2.gens()
    with pytest.raises(ValueError):
        reduction_universal(Ideal(R2, [x + y.scale(2)]), 2)


def test_cone_budget_raises_with_partial_progress():
    R, I = twelve_cone_ideal()
    with pytest.raises(FanBudgetExceeded) as exc:
        enumerate_fan(I, max_cones=3)
    assert len(exc.value.fan) == 3


def test_reduction_budget_bounds_the_fglm_traversal():
    # the seed basis costs 2 reduction steps; the zero-dimensional flips,
    # by FGLM, spend the rest of the budget
    R, I = twelve_cone_ideal()
    with pytest.raises(FanBudgetExceeded, match="reduction budget") as exc:
        enumerate_fan(I, budget=30)
    assert 1 <= len(exc.value.fan) <= 11


def test_each_edge_is_flipped_once(monkeypatch):
    flips = []
    convert = fan_module._convert

    def counted(G, tau, counter=None):
        flips.append(tau)
        return convert(G, tau, counter)

    monkeypatch.setattr(fan_module, "_convert", counted)
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    edges = sum(len(nbrs) for nbrs in fan.adjacency.values()) // 2
    assert len(flips) == edges == 18


def test_cone_budget_below_one_is_rejected_before_any_work(monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was computed")

    monkeypatch.setattr(fan_module, "buchberger_reduced", no_basis)
    R, I = twelve_cone_ideal()
    for max_cones in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_fan(I, max_cones=max_cones)


def test_cached_fan_honours_the_cone_budget():
    # neither the fan of an equal ideal nor that of the same ideal under a
    # larger budget may stand in for a traversal limited to one cone
    R, I = twelve_cone_ideal()
    assert universal_denominator(I) == 28
    _, I2 = twelve_cone_ideal()
    for J in (I2, I):
        with pytest.raises(FanBudgetExceeded):
            universal_denominator(J, max_cones=1)
    assert universal_denominator(I2) == 28


def test_zero_ideal_rejected_for_delta():
    R = ring_qq("x")
    with pytest.raises(ValueError):
        universal_denominator(Ideal(R, []))


def test_zero_ideal_rejected_by_the_traversal_before_any_work(monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was computed")

    monkeypatch.setattr(fan_module, "buchberger_reduced", no_basis)
    R = ring_qq("x", "y")
    for gens in ([], [R.zero()]):
        with pytest.raises(ValueError, match="the zero ideal has no universal denominator"):
            enumerate_fan(Ideal(R, gens))


# -- the exact linear solver backing facet detection -----------------------


def test_solve_strict_feasible():
    # y1 > 0 and y1 + y2 > 0 and -y2 + 2 y1 > 0
    sol = _solve_strict([(1, 0), (1, 1), (2, -1)], 2)
    assert sol is not None
    y1, y2 = sol
    assert y1 > 0 and y1 + y2 > 0 and 2 * y1 - y2 > 0


def test_solve_strict_infeasible():
    sol = _solve_strict([(1,), (-1,)], 1)
    assert sol is None


def test_facet_point_properties():
    vectors = {(1, -1, 0), (0, 1, -1), (-1, 0, 2)}
    w = _facet_point(vectors, (1, -1, 0), 3)
    assert w is not None
    assert all(c > 0 for c in w)
    assert sum(a * b for a, b in zip(w, (1, -1, 0))) == 0
    for u in vectors - {(1, -1, 0)}:
        assert sum(a * b for a, b in zip(w, u)) > 0


def test_facet_point_infeasible_for_interior_vector():
    # -v is also required strictly positive: impossible
    vectors = {(1, 0), (-1, 0), (0, 1)}
    assert _facet_point(vectors, (1, 0), 2) is None


# SHA-256 of the twelve-cone traversal: for each cone in traversal order, its
# ordering's canonical form, then each sorted candidate vector v with the
# facet point found for it (None for a vector that spans no facet)
TWELVE_CONE_FACETS_SHA256 = "f52c413a661e304ddf3dee31ce1b614607b6c4d82f1c2a425cef913cef618ae0"


def test_twelve_cone_facet_points_are_pinned():
    R, I = twelve_cone_ideal()
    lines = []
    for cone in enumerate_fan(I).cones:
        vectors = cone_vectors(cone)
        lines.append(repr(cone.ordering.canonical()))
        lines += ["%s -> %s" % (v, _facet_point(vectors, v, 3)) for v in sorted(vectors)]
    assert len(lines) == 102
    assert lines[:3] == ["('degrevlex', 3)", "(-1, 0, 2) -> [22, 24, 11]", "(-1, 2, -1) -> [11, 12, 13]"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TWELVE_CONE_FACETS_SHA256
