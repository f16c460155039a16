"""Term orderings on power products: lex, deglex, degrevlex, elimination, matrix.

Power products are plain tuples of non-negative integer exponents.  Every
ordering exposes a sort ``key`` such that sigma-greater power products get
larger keys; all comparisons reduce to tuple comparison of keys.  A key is a
flat tuple of Python ints, so negating it entrywise reverses the ordering.
Matrix orderings keep their exact rational rows for display and identity, but
compute keys from copies scaled to integers: each row is multiplied by the
positive lcm of its denominators, which leaves the ordering unchanged.

Every ordering also has ``weight_rows()``: non-negative integer rows R such
that sigma compares power products by the weights R.e, row by row, and then
by their exponents as lex does.  The reduction engines pack these weights
and the exponents into one int per power product (gb_field's sigma-codes).

- lex: no rows;
- deglex: the degree, one row of ones;
- degrevlex: the prefix sums s_k = e_1 + ... + e_k for k = n, ..., 1;
  when s_n, ..., s_(k+1) agree, a larger s_k means a smaller e_(k+1);
- matrix and elimination orderings: their integer rows, each with multiples
  of earlier rows added until no entry is negative.  Where two power
  products have equal weights under the earlier rows, adding a multiple of
  one of them to a later row leaves the comparison unchanged.
"""

import math
from fractions import Fraction
from operator import mul, neg


class TermOrdering:
    """Base class: a total, multiplicative ordering with 1 as minimum."""

    kind = None

    def __init__(self, n):
        self.n = n

    def key(self, pp):
        raise NotImplementedError

    def weight_rows(self):
        """Non-negative integer rows whose weights, then lex, order as sigma."""
        raise NotImplementedError

    def greater(self, t, s):
        return self.key(t) > self.key(s)

    def sorted(self, pps):
        return sorted(pps, key=self.key)

    def max(self, pps):
        return max(pps, key=self.key)

    def min(self, pps):
        return min(pps, key=self.key)

    def canonical(self):
        """Hashable descriptor identifying this ordering (used as cache key)."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, TermOrdering) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return "%s(n=%d)" % (type(self).__name__, self.n)


class Lex(TermOrdering):
    kind = "lex"

    def key(self, pp):
        return pp

    def weight_rows(self):
        return ()

    def canonical(self):
        return ("lex", self.n)


class DegLex(TermOrdering):
    kind = "deglex"

    def key(self, pp):
        return (sum(pp),) + pp

    def weight_rows(self):
        return ((1,) * self.n,)

    def canonical(self):
        return ("deglex", self.n)


class DegRevLex(TermOrdering):
    kind = "degrevlex"

    def key(self, pp):
        # degree first; ties broken so that the *last* nonzero entry of the
        # exponent difference being negative means "greater".
        return (sum(pp), *map(neg, reversed(pp)))

    def weight_rows(self):
        n = self.n
        return tuple((1,) * k + (0,) * (n - k) for k in range(n, 0, -1))

    def canonical(self):
        return ("degrevlex", self.n)


class MatrixOrder(TermOrdering):
    """Ordering by a stack of exact rational (or integer) weight rows.

    The stacked rows must have rank n and give every indeterminate a
    positive first nonzero weight; both are validated on construction.
    """

    kind = "matrix"

    def __init__(self, rows, n=None):
        rows = tuple(tuple(Fraction(w) for w in row) for row in rows)
        if not rows:
            raise ValueError("matrix ordering needs at least one row")
        n = n if n is not None else len(rows[0])
        super().__init__(n)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix ordering rows must all have length %d" % n)
        self.rows = rows
        self._int_rows = tuple(_integer_row(row) for row in rows)
        self._validate()
        self._weights = _nonnegative_rows(self._int_rows)

    def _validate(self):
        # the integer rows are positive multiples of the rows: same signs, same rank
        for j in range(self.n):
            if next((row[j] for row in self._int_rows if row[j]), 0) < 1:
                raise ValueError("indeterminate %d is not greater than 1" % j)
        if _rank(self._int_rows) < self.n:
            raise ValueError("ordering matrix is rank deficient")

    def key(self, pp):
        return tuple([sum(map(mul, row, pp)) for row in self._int_rows])

    def weight_rows(self):
        return self._weights

    def canonical(self):
        return ("matrix", self.n, self.rows)


def _integer_row(row):
    """The row scaled by the positive lcm of its denominators."""
    d = math.lcm(*(w.denominator for w in row))
    return tuple(w.numerator * (d // w.denominator) for w in row)


def _nonnegative_rows(rows):
    """The integer rows with multiples of earlier rows added until no entry
    is negative.  A valid ordering gives each column a positive first nonzero
    entry, so a negative entry always has an earlier row, already made
    non-negative, with a positive entry in its column."""
    out = []
    for row in rows:
        row = list(row)
        for j in range(len(row)):
            if row[j] < 0:
                earlier = next(r for r in out if r[j] > 0)
                m = -(row[j] // earlier[j])
                row = [a + m * b for a, b in zip(row, earlier)]
        out.append(tuple(row))
    return tuple(out)


def _rank(rows):
    """Rank of an integer matrix by Bareiss fraction-free elimination.

    After each step the entries are minors of the input, so every division
    by the previous pivot is exact and the entries stay small.
    """
    m = [list(row) for row in rows]
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(top[c] * x - f * t) // prev for x, t in zip(m[i], top)]
        prev = top[c]
        rank += 1
    return rank


def _degrevlex_rows(indices, n):
    """Weight rows realizing degrevlex restricted to the given indeterminates."""
    rows = [[1 if j in indices else 0 for j in range(n)]]
    for j in reversed(indices[1:]):
        rows.append([-1 if k == j else 0 for k in range(n)])
    return rows


class Elim(MatrixOrder):
    """Elimination ordering: total degree in the block dominates, ties broken
    by degrevlex on the complement and then by degrevlex within the block."""

    kind = "elim"

    def __init__(self, block, n):
        block = tuple(sorted(block))
        if not block or any(j < 0 or j >= n for j in block):
            raise ValueError("elimination block must be a non-empty subset of 0..n-1")
        rest = tuple(j for j in range(n) if j not in block)
        rows = [[1 if j in block else 0 for j in range(n)]]
        if rest:
            rows += _degrevlex_rows(list(rest), n)
        rows += _degrevlex_rows(list(block), n)[1:]
        self.block = block
        super().__init__(rows, n)

    def canonical(self):
        return ("elim", self.n, self.block)


def lex(n):
    return Lex(n)


def deglex(n):
    return DegLex(n)


def degrevlex(n):
    return DegRevLex(n)


def elim(block, n):
    return Elim(block, n)


def matrix_order(rows, n=None):
    return MatrixOrder(rows, n)
