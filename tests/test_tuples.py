"""Ordered leading-term tuples: construction, comparison, witnesses, and
standard-monomial counts."""

import itertools
import random
from operator import le

import pytest

from conftest import ring_qq
from modgb import Ideal, ordered_tuple, os_of_ideal, os_of_polys
from modgb.orderings import degrevlex, lex
from modgb.tuples import (
    EQUAL,
    FOLLOWS,
    LtTuple,
    PRECEDES,
    count_standard,
    interreduce,
    lessthan_witness,
    precedes,
    tuple_max,
)


def _pp(names, text):
    """Tiny helper: "x^2*y" -> exponent tuple over names."""
    pp = [0] * len(names)
    for factor in text.split("*"):
        if factor == "1":
            continue
        if "^" in factor:
            name, e = factor.split("^")
            pp[names.index(name)] += int(e)
        else:
            pp[names.index(factor)] += 1
    return tuple(pp)


NAMES3 = ("x", "y", "z")


def T(sigma, *texts):
    return LtTuple(sigma, [_pp(NAMES3, t) for t in texts])


def test_validation():
    s = lex(3)
    with pytest.raises(ValueError):
        T(s, "x", "z")  # decreasing
    with pytest.raises(ValueError):
        T(s, "z", "z^2")  # not interreduced


def test_interreduce():
    pps = {_pp(NAMES3, t) for t in ("x", "x^2", "y^4", "z^4")}
    assert interreduce(pps) == {_pp(NAMES3, t) for t in ("x", "y^4", "z^4")}


def test_ordered_tuple_sorts():
    s = degrevlex(3)
    t = ordered_tuple([_pp(NAMES3, "y^3"), _pp(NAMES3, "x")], s)
    assert t.entries == (_pp(NAMES3, "x"), _pp(NAMES3, "y^3"))


def test_os_of_polys_interreduces():
    R = ring_qq("x", "y")
    x, y = R.gens()
    s = degrevlex(2)
    F = [x + y + R.one(), x * x + x.scale(2) + y + R.one(), y * y * y]
    t = os_of_polys(F, s)
    assert t.entries == ((1, 0), (0, 3))


def test_os_of_ideal_uses_reduced_basis():
    R = ring_qq("x", "y")
    x, y = R.gens()
    s = degrevlex(2)
    F = [x + y + R.one(), x * x + x.scale(2) + y + R.one(), y * y * y]
    t = os_of_ideal(Ideal(R, F), s)
    assert t.entries == ((0, 1), (1, 0))


def test_precedes_with_prefix_rule():
    s = lex(3)
    a = T(s, "z", "y", "x")
    b = T(s, "z", "y")
    assert precedes(a, b) == PRECEDES  # proper prefix: the longer one precedes
    assert precedes(b, a) == FOLLOWS
    c = T(s, "z", "y^2", "x")
    assert precedes(b, c) == PRECEDES  # y < y^2 at the first difference
    assert precedes(b, b) == EQUAL
    # every non-empty tuple precedes the empty tuple
    assert precedes(a, LtTuple(s, [])) == PRECEDES


def test_precedes_requires_same_ordering():
    with pytest.raises(ValueError):
        precedes(T(lex(3), "z"), T(degrevlex(3), "z"))


def test_tuple_max():
    s = lex(3)
    a = T(s, "z", "y", "x")
    b = T(s, "z", "y")
    c = T(s, "z", "y^2", "x")
    assert tuple_max([a, b, c]) == c


def test_witness_found():
    s = degrevlex(3)
    t = T(s, "x*y*z", "x^3", "x^2*y^2", "x*z^4", "y^6", "z^7")
    t_prime = [_pp(NAMES3, p) for p in
               ("x*y*z", "x^3", "x^2*z^2", "x*y^2", "y^7", "x^2*y^8")]
    assert lessthan_witness(t, t_prime) == (3, _pp(NAMES3, "x*y^2"))
    # and the conclusion holds: the interreduced tuple of T' precedes T
    assert precedes(ordered_tuple(t_prime, s), t) == PRECEDES


def test_witness_blocked_by_divisibility():
    s = degrevlex(3)
    t = T(s, "x", "y^3")
    t_prime = [_pp(NAMES3, p) for p in ("x", "x^2", "y^4", "z^4")]
    assert lessthan_witness(t, t_prime) is None
    o = ordered_tuple(t_prime, s)
    # increasing under degrevlex: z^4 < y^4
    assert o.entries == tuple(_pp(NAMES3, p) for p in ("x", "z^4", "y^4"))
    assert precedes(t, o) == PRECEDES


def test_witness_simple_case():
    s = degrevlex(3)
    t = T(s, "x")
    assert lessthan_witness(t, [_pp(NAMES3, "x"), _pp(NAMES3, "y")]) == (
        1,
        _pp(NAMES3, "y"),
    )


def test_witness_implies_precedence():
    import random

    rng = random.Random(31)
    s = degrevlex(3)
    for _ in range(300):
        pool = [
            tuple(rng.randint(0, 3) for _ in range(3))
            for _ in range(rng.randint(1, 5))
        ]
        pool = [p for p in pool if any(p)]
        if not pool:
            continue
        t = ordered_tuple(pool, s)
        t_prime = [
            tuple(rng.randint(0, 3) for _ in range(3))
            for _ in range(rng.randint(1, 5))
        ]
        t_prime = [p for p in t_prime if any(p)]
        if not t_prime:
            continue
        w = lessthan_witness(t, t_prime)
        if w is not None:
            o = ordered_tuple(t_prime, s)
            assert precedes(o, t) == PRECEDES
            # T is never a proper prefix of the interreduced tuple of T'
            assert not (
                len(o) > len(t) and o.entries[: len(t)] == t.entries
            )


def test_render():
    s = degrevlex(3)
    assert T(s, "z^3", "y^3").render(NAMES3) == "[z^3, y^3]"


def test_count_standard_matches_a_box_count_and_stops_past_its_bound():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 3)
        # pure powers of degree at most 5 keep every standard monomial in the box
        lts = [tuple(rng.randint(1, 5) if j == i else 0 for j in range(n)) for i in range(n)]
        lts += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        box = itertools.product(range(6), repeat=n)
        count = sum(not any(all(map(le, t, e)) for t in lts) for e in box)
        assert count_standard(lts, n) == count
        assert count_standard(lts, n, count) == count
        if count:
            assert count_standard(lts, n, count - 1) is None
    assert count_standard([], 0) == 1
    assert count_standard([(0, 0)], 2) == 0
    assert count_standard([], 1) is None
    assert count_standard([(0, 1)], 2) is None
    # one slice per run of equal slices, however long the run
    assert count_standard([(10**12, 0), (0, 2)], 2) == 2 * 10**12
    assert count_standard([(10**12, 0), (0, 2)], 2, 10**12) is None
