"""Term orderings: comparisons, validation, elimination and matrix forms."""

import random
from fractions import Fraction

import pytest

from modgb.fan import _flip_ordering
from modgb.orderings import _degrevlex_rows, _rank, deglex, degrevlex, elim, lex, matrix_order


def test_lex_basic():
    s = lex(3)
    assert s.greater((1, 0, 0), (0, 5, 5))
    assert s.greater((1, 1, 0), (1, 0, 5))
    assert s.compare((2, 0, 0), (2, 0, 0)) == 0


def test_deglex_basic():
    s = deglex(3)
    assert s.greater((0, 5, 5), (1, 0, 0))
    assert s.greater((1, 1, 0), (0, 2, 0))  # same degree, lex tie-break


def test_degrevlex_basic():
    s = degrevlex(3)
    # same degree: the smaller exponent in the last indeterminate wins
    assert s.greater((1, 2, 0), (2, 0, 1))
    assert s.greater((0, 2, 0), (1, 0, 1))
    assert s.greater((1, 0, 0), (0, 1, 0))
    assert s.greater((0, 0, 1), (0, 0, 0))


def test_degrevlex_differs_from_deglex():
    # x z^2 vs y^3: deglex says x z^2 > y^3, degrevlex says y^3 > x z^2
    assert deglex(3).greater((1, 0, 2), (0, 3, 0))
    assert degrevlex(3).greater((0, 3, 0), (1, 0, 2))


def test_one_is_minimal():
    for s in (lex(2), deglex(2), degrevlex(2), elim([0], 2)):
        for pp in ((1, 0), (0, 1), (3, 4)):
            assert s.greater(pp, (0, 0))


def test_multiplicative():
    rng = random.Random(2)
    orders = [lex(3), deglex(3), degrevlex(3), elim([1], 3),
              matrix_order([[2, 1, 1], [1, 0, 0], [0, 1, 0]], 3)]
    for _ in range(200):
        t = tuple(rng.randint(0, 5) for _ in range(3))
        s2 = tuple(rng.randint(0, 5) for _ in range(3))
        u = tuple(rng.randint(0, 5) for _ in range(3))
        tu = tuple(a + b for a, b in zip(t, u))
        su = tuple(a + b for a, b in zip(s2, u))
        for o in orders:
            if o.greater(t, s2):
                assert o.greater(tu, su)


def test_elim_block_dominates():
    s = elim([0, 1], 4)  # eliminate the first two indeterminates
    assert s.greater((1, 0, 0, 0), (0, 0, 9, 9))
    assert s.greater((0, 1, 0, 0), (0, 0, 9, 9))


def test_elim_restricts_to_degrevlex_on_complement():
    s = elim([2], 3)
    d = degrevlex(2)
    rng = random.Random(4)
    for _ in range(100):
        a = tuple(rng.randint(0, 4) for _ in range(2))
        b = tuple(rng.randint(0, 4) for _ in range(2))
        if a != b:
            assert s.greater(a + (0,), b + (0,)) == d.greater(a, b)


def test_elim_restricts_to_degrevlex_on_block():
    s = elim([0, 1], 3)
    d = degrevlex(2)
    rng = random.Random(5)
    for _ in range(100):
        a = tuple(rng.randint(0, 4) for _ in range(2))
        b = tuple(rng.randint(0, 4) for _ in range(2))
        if a != b:
            assert s.greater(a + (0,), b + (0,)) == d.greater(a, b)


def test_elim_block_degree_breaks_ties_before_complement():
    # with block {s, t} last, s*z < t*w^2 must compare by the complement part
    o = elim([2], 3)  # ring (x, y, t) eliminating t
    # t*x vs t^2: block degree 1 < 2
    assert o.greater((0, 0, 2), (1, 0, 1))


def test_matrix_order_realizes_degrevlex():
    rows = [[1, 1, 1], [0, 0, -1], [0, -1, 0]]
    m = matrix_order(rows, 3)
    d = degrevlex(3)
    rng = random.Random(6)
    for _ in range(200):
        a = tuple(rng.randint(0, 5) for _ in range(3))
        b = tuple(rng.randint(0, 5) for _ in range(3))
        if a != b:
            assert m.greater(a, b) == d.greater(a, b)


def test_matrix_order_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        matrix_order([[1, 1], [2, 2]], 2)
    # every indeterminate positive, yet the third row is the sum of the others
    with pytest.raises(ValueError, match="rank deficient"):
        matrix_order([[1, 1, 1], [1, 2, 3], [2, 3, 4]], 3)
    with pytest.raises(ValueError, match="rank deficient"):
        matrix_order([["1/2", "1/3"], [3, 2]], 2)


def test_rank_matches_sympy():
    import sympy

    rng = random.Random(23)

    def entries(r, c, lo=-9, hi=9):
        return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]

    cases = []
    for _ in range(150):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(entries(r, c))
        # a product through k < min(r, c) dimensions has rank at most k
        k = rng.randint(1, min(r, c))
        A, B = entries(r, k, -4, 4), entries(k, c, -4, 4)
        cases.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A])
        # zero columns
        m = entries(r, c)
        for j in rng.sample(range(c), rng.randint(1, c)):
            for row in m:
                row[j] = 0
        cases.append(m)
    # the (n+2) x n shape of a facet flip: [w; -v; degrevlex rows]
    for n in range(2, 7):
        for _ in range(20):
            w = [rng.randint(1, 30) for _ in range(n)]
            v = [rng.randint(-3, 3) for _ in range(n)]
            cases.append([w, [-x for x in v]] + _degrevlex_rows(list(range(n)), n))
    for m in cases:
        assert _rank(m) == sympy.Matrix(m).rank()


def test_matrix_order_rejects_non_term_order():
    # first nonzero weight of the second column is negative: x2 < 1
    with pytest.raises(ValueError):
        matrix_order([[1, -1], [0, -1]], 2)


def test_matrix_order_fraction_rows():
    m = matrix_order([["1/2", "1/3"], [1, 0]], 2)
    assert m.greater((1, 0), (0, 1))  # 1/2 > 1/3


def test_compare_arity_check():
    with pytest.raises(ValueError):
        lex(3).compare((1, 0), (0, 1))


def test_canonical_equality():
    assert degrevlex(3) == degrevlex(3)
    assert degrevlex(3) != deglex(3)
    assert elim([0, 1], 3) == elim([1, 0], 3)
    assert hash(lex(2)) == hash(lex(2))


def test_sorted_and_extrema():
    s = lex(2)
    pps = [(0, 1), (1, 0), (0, 0)]
    assert s.sorted(pps) == [(0, 0), (0, 1), (1, 0)]
    assert s.max(pps) == (1, 0)
    assert s.min(pps) == (0, 0)


def test_keys_are_flat_int_tuples():
    rng = random.Random(7)
    orders = [lex(3), deglex(3), degrevlex(3), elim([1], 3), elim([0, 2], 3),
              matrix_order([["1/2", "1/3", 2], [0, "-3/4", 1], [0, 0, 1]], 3),
              _flip_ordering([1, 2, 3], [1, -1, 0], 3)]
    for o in orders:
        for _ in range(20):
            k = o.key(tuple(rng.randint(0, 6) for _ in range(3)))
            assert isinstance(k, tuple)
            assert all(type(x) is int for x in k)


def _random_rows(rng, n):
    """Weight rows with fractional and negative entries that form a term order."""
    def weight(low):
        return Fraction(rng.randint(low, 9), rng.choice((1, 2, 3, 7, 12)))

    while True:
        rows = [[weight(1) for _ in range(n)]]
        rows += [[weight(-9) for _ in range(n)] for _ in range(n - 1)]
        try:
            return rows, matrix_order(rows, n)
        except ValueError:
            continue


def test_matrix_keys_order_as_fraction_rows():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows, m = _random_rows(rng, n)
        assert m.rows == tuple(tuple(row) for row in rows)
        for _ in range(50):
            a = tuple(rng.randint(0, 7) for _ in range(n))
            b = tuple(rng.randint(0, 7) for _ in range(n))
            ka = tuple(sum(w * e for w, e in zip(row, a)) for row in rows)
            kb = tuple(sum(w * e for w, e in zip(row, b)) for row in rows)
            assert (m.key(a) > m.key(b)) == (ka > kb)
            assert (m.key(a) == m.key(b)) == (ka == kb)
