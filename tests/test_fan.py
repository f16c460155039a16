"""Groebner fan traversal, universal denominators, ordering-free reduction."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

import modgb
from conftest import rand_ideal, ring_qq, timed, twelve_cone_ideal
from modgb import (
    FanBudgetExceeded,
    GF,
    Ideal,
    PolyRing,
    ReducedGB,
    buchberger_reduced,
    budget,
    enumerate_fan,
    min_lt,
    normal_form,
    parse_input,
    reduction_universal,
    universal_denominator,
)
from modgb import fan as fan_module
from modgb.fan import _facet_points, _flip_ordering, cone_vectors
from modgb.gb_field import _convert
from modgb.orderings import degrevlex, matrix_order
from modgb.poly import den_of_set


def test_twelve_cones_and_delta():
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    assert len(fan) == 12
    assert fan.denominator() == 28


# <x^a - y, x y + z + c, z^b + d x>, the benchmark's fan family: (2, 2, 1, 1)
# is the twelve-cone ideal, and the others are its four shapes (a, b) with
# one fixed choice of (c, d) each.  RAD_104 is positive-dimensional.
FAN_FAMILY = "ring QQ[x,y,z] degrevlex;\nideal(x^{a} - y, x*y + z + {c}, z^{b} + {d}*x);\n"
RAD_104 = (
    "ring QQ[x,y,z] degrevlex;\n"
    "ideal(-7/2*x^2*z^2 + 3*y*z^2, 9*x*y^2 + 2*y^2*z + 3*x, -3/2*x^3*z - 5/2*x*y^2 + y);\n"
)

# SHA-256 of each fan: every cone's sorted leading terms and its basis as a
# set, in traversal order, then each cone's sorted neighbours, then Delta.
# The input is a FAN_FAMILY parameter tuple or an input text; rand#s is
# rand_ideal(random.Random(s), maxdeg=4), a positive-dimensional ideal.
PINNED_FANS = {
    "twelve_cone": ((2, 2, 1, 1), 12, "a45cfeefa018b481e0becee601e78f9a3353a2760c3b419a49147d6ee355a591"),
    "fan(2,2,3,4)": ((2, 2, 3, 4), 12, "16d50be386243563219fe899ed3a7fe9a3b1dc930b2f70fdd30b9996a5c65fdb"),
    "fan(3,2,2,5)": ((3, 2, 2, 5), 24, "a052681207e9bd46c587cad558abe9d1cd77c35d78f7c09814081ca6d3f6ec73"),
    "fan(2,3,5,3)": ((2, 3, 5, 3), 17, "5b3d69a9442e31a213493252bec390438360d89f7cd5e3dcbc2055a3ecea16be"),
    "fan(3,3,4,2)": ((3, 3, 4, 2), 34, "3bf2a446447c2ea6b2a9088502226f63df92d9e2da18d1e399302a39e4429956"),
    "rad_104": (RAD_104, 88, "8030f5a6d23a87d5c782528d1a2266ebeecc01b4442ca95e40e54c9eb09c2339"),
    "rand#211": (
        "ring QQ[x,y,z] degrevlex;\n"
        "ideal(2*y*z^3 - 9/2*y^2*z + 4*x*z^2, 3*x*y^2*z + 6*x*y^2 - 9*y^3);\n",
        40,
        "87a7834eb6c1ad91b706e5b068e2decc5b48743790fa37f7cb7d1bc9a28ddbeb",
    ),
    "rand#236": (
        "ring QQ[x,y,z] degrevlex;\nideal(-8*y^3 - 7/3*x^2*z, -4*x^3*y + 2*x^2*z - 2*x);\n",
        25,
        "fa9b860dc36d0ebe2e737af79364489856421badadb5dd98bb15b2a5fbf20ec1",
    ),
    "rand#351": (
        "ring QQ[x,y,z] degrevlex;\n"
        "ideal(3*x^3*y + 4*x*y*z^2, 3/2*x^3*z + 8*z^4 + 8*x*z, 9*x^3*z - y^2*z^2 - 3*z^4);\n",
        45,
        "cdc1fcf10f4f309df5a948fa5419d9e9dfedef8fb5c2d20b6a685334b80e0179",
    ),
}


def _pinned_ideal(name):
    params = PINNED_FANS[name][0]
    text = params if isinstance(params, str) else FAN_FAMILY.format(**dict(zip("abcd", params)))
    return parse_input(text)[1][0]


@pytest.mark.parametrize("name", PINNED_FANS)
def test_fans_are_pinned(name):
    _, cones, digest = PINNED_FANS[name]
    fan = enumerate_fan(_pinned_ideal(name))
    lines = []
    for cone in fan.cones:
        lines.append(str(sorted(min_lt(cone))))
        lines.append(str(sorted(sorted((t, str(c)) for t, c in g.terms.items()) for g in cone)))
    lines += [str(sorted(fan.adjacency[i])) for i in range(len(fan))]
    lines.append(str(fan.denominator()))
    assert len(fan) == cones
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


# rand_ideal seeds whose fans have 3 to 55 cones; the first nine are
# zero-dimensional, so their flips run FGLM, the rest Buchberger
EDGE_CHECK_SEEDS = (13, 63, 96, 98, 219, 328, 362, 381, 389) + (
    24, 30, 68, 105, 130, 155, 241, 268, 365, 383
)


def _edge_check_ideals():
    for name in PINNED_FANS:
        yield name, _pinned_ideal(name)
    for seed in EDGE_CHECK_SEEDS:
        yield "rand#%d" % seed, rand_ideal(random.Random(seed), maxdeg=4)[1]


def test_every_edge_is_a_facet_flip():
    # the traversal converts only into new cones and finds the others by
    # lookup; flipping cone i across the facet it shares with each neighbour
    # k must land in k, in both directions of every edge
    for name, I in _edge_check_ideals():
        fan = enumerate_fan(I)
        n = I.ring.n
        vectors = [cone_vectors(cone) for cone in fan.cones]
        for i, nbrs in fan.adjacency.items():
            points = _facet_points(vectors[i], n)
            for k in nbrs:
                shared = [v for v in points if tuple(-x for x in v) in vectors[k]]
                assert len(shared) == 1, (name, i, k, shared)
                v = shared[0]
                flipped = _convert(fan.cones[i], _flip_ordering(points[v], v, n))
                assert min_lt(flipped) == min_lt(fan.cones[k]), (name, i, k)


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
    keys = {min_lt(c) for c in fan.cones}
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
        assert min_lt(G) in keys
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


def test_reduction_universal_verify_rejects_a_disagreeing_cone(monkeypatch):
    # every cone after the first is given the unit ideal as its image mod 5
    R, I = twelve_cone_ideal()
    reduce_basis = fan_module._reduce_basis
    seen = []

    def wrong_image(I, G, field):
        seen.append(G)
        if len(seen) > 1:
            G = ReducedGB(G.ordering, [R.one()])
        return reduce_basis(I, G, field)

    monkeypatch.setattr(fan_module, "_reduce_basis", wrong_image)
    with pytest.raises(ValueError, match="cone bases disagree modulo 5; 5 divides Delta"):
        reduction_universal(I, 5, verify=True)
    assert len(seen) > 1


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
        with budget(30):
            enumerate_fan(I)
    assert 1 <= len(exc.value.fan) <= 11


def test_fan_spends_an_active_budget_and_leaves_it_active():
    # the traversal opens no budget of its own inside an active one
    R, I = twelve_cone_ideal()
    with modgb.budget(10**6) as b:
        assert len(enumerate_fan(I)) == 12
        assert b.left == 10**6 - 55
        assert modgb.gb_field._ACTIVE.get() is b


# Run in a child process under a 1 GB address-space limit: a facet search
# whose memory grows faster than the reduction budget is spent must not be
# run unbounded in the test process.
GRAPH_FAN_UNDER_1GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))
from modgb import FanBudgetExceeded, budget, enumerate_fan, parse_input
_, ideals, _ = parse_input(
    "ring QQ[x,y,z,w,s,t] elim(x,y,z,w);"
    "ideal(x - t^3, y - s*t^2 + 2*s^2, z - s^2*t + 5, w - s^3 + 7*t);"
)
try:
    with budget(100000):
        enumerate_fan(ideals[0])
except FanBudgetExceeded as e:
    print(e)
"""


def test_graph_fan_stops_at_the_reduction_budget_within_1gb():
    src = os.path.dirname(os.path.dirname(os.path.abspath(modgb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with timed(15.0):
        proc = subprocess.run(
            [sys.executable, "-c", GRAPH_FAN_UNDER_1GB],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "reduction budget of 100000 exhausted" in proc.stdout


def test_each_new_cone_is_converted_once(monkeypatch):
    # the 18 - 11 = 7 edges into a cone already found are looked up, not flipped
    flips = []
    convert = fan_module._convert

    def counted(G, tau):
        flips.append(tau)
        return convert(G, tau)

    monkeypatch.setattr(fan_module, "_convert", counted)
    R, I = twelve_cone_ideal()
    fan = enumerate_fan(I)
    edges = sum(len(nbrs) for nbrs in fan.adjacency.values()) // 2
    assert edges == 18
    assert len(flips) == len(fan) - 1 == 11


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


# -- facet detection by double description ----------------------------------


def test_facet_point_properties():
    vectors = {(1, -1, 0), (0, 1, -1), (-1, 0, 2)}
    w = _facet_points(vectors, 3).get((1, -1, 0))
    assert w is not None
    assert all(c > 0 for c in w)
    assert sum(a * b for a, b in zip(w, (1, -1, 0))) == 0
    for u in vectors - {(1, -1, 0)}:
        assert sum(a * b for a, b in zip(w, u)) > 0


def test_facet_point_infeasible_for_interior_vector():
    # -v is also required strictly positive: impossible
    vectors = {(1, 0), (-1, 0), (0, 1)}
    assert _facet_points(vectors, 2).get((1, 0)) is None


def test_one_indeterminate_has_no_facet_to_flip():
    # C is the ray of e_1, whose only proper face is the origin
    assert _facet_points({(1,)}, 1) == {}


# SHA-256 of the twelve-cone traversal: for each cone in traversal order, its
# ordering's canonical form, then each sorted candidate vector v with the
# facet point found for it (None for a vector that spans no facet)
TWELVE_CONE_FACETS_SHA256 = "4d8707bd3134f2c528d8cb3bdec6064b80ab2a097e4c0619c2e3781715b25fe5"


def test_twelve_cone_facet_points_are_pinned():
    R, I = twelve_cone_ideal()
    lines = []
    for cone in enumerate_fan(I).cones:
        points = _facet_points(cone_vectors(cone), 3)
        lines.append(repr(cone.ordering.canonical()))
        lines += ["%s -> %s" % (v, points.get(v)) for v in sorted(cone_vectors(cone))]
    assert len(lines) == 102
    assert lines[:3] == ["('degrevlex', 3)", "(-1, 0, 2) -> (6, 7, 3)", "(-1, 2, -1) -> (1, 1, 1)"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TWELVE_CONE_FACETS_SHA256
