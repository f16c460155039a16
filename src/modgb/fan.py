"""Groebner fan enumeration, the universal denominator, and the
ordering-free reduction modulo a prime.

A cone is represented by its reduced basis, a ReducedGB whose leading terms
mark it.  Traversal starts from the degrevlex cone and flips facets: for a
facet with primitive normal v we pick an integer weight w in its relative
interior and convert the cone's basis to the matrix ordering [w; -v;
degrevlex rows] by gb_field._convert (FGLM when I is zero-dimensional),
once per edge.  The facet system's rows are integer vectors, which
Fourier-Motzkin keeps integral; only the back-substitution uses Fractions.
"""

import math
from collections import deque
from fractions import Fraction

from .arith import lcm as int_lcm
from .gb_field import BudgetExceeded, _Counter, _convert, buchberger_reduced, normal_form
from .orderings import _degrevlex_rows, degrevlex, matrix_order
from .poly import QQ, den_of_set
from .primes import _reduce_basis

DEFAULT_MAX_CONES = 2000
DEFAULT_BUDGET = 10**6


class FanBudgetExceeded(RuntimeError):
    """Raised when fan traversal exceeds its budget; carries the partial fan."""

    def __init__(self, message, fan):
        super().__init__(message)
        self.fan = fan


class Fan:
    """The set of cones of an ideal with their facet-flip adjacency."""

    __slots__ = ("cones", "adjacency")

    def __init__(self, cones, adjacency):
        self.cones = list(cones)
        self.adjacency = {i: set(nb) for i, nb in adjacency.items()}

    def __len__(self):
        return len(self.cones)

    def denominator(self):
        """lcm of den over all cones' bases."""
        return int_lcm(*[den_of_set(c) for c in self.cones]) if self.cones else 1

    def __repr__(self):
        return "Fan(%d cones)" % len(self.cones)


# ---------------------------------------------------------------------------
# exact linear feasibility over ZZ (Fourier-Motzkin with back-substitution)


def _primitive(a):
    """The integer vector a divided by the gcd of its entries, sign kept."""
    g = math.gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def _solve_strict(ineqs, d):
    """A primitive integer point y with a . y > 0 for every integer row a
    (each of length d), or None.  Elimination keeps the rows integral;
    only the back-substitution uses Fractions."""
    systems = [None] * (d + 1)
    cur = list({_primitive(a) for a in ineqs})
    for k in range(d, 0, -1):
        if any(not any(a) for a in cur):
            return None
        systems[k] = cur
        if k == 1:
            break
        low = [a for a in cur if a[k - 1] > 0]
        up = [a for a in cur if a[k - 1] < 0]
        nxt = [a[: k - 1] for a in cur if a[k - 1] == 0]
        for a in low:
            for b in up:
                nxt.append(
                    tuple(a[k - 1] * b[i] - b[k - 1] * a[i] for i in range(k - 1))
                )
        cur = list({_primitive(a) for a in nxt})
    if d == 0:
        return [] if not ineqs else None
    scalars = [a[0] for a in systems[1]]
    if any(s == 0 for s in scalars):
        return None
    if all(s > 0 for s in scalars):
        y = [Fraction(1)]
    elif all(s < 0 for s in scalars):
        y = [Fraction(-1)]
    else:
        return None
    for k in range(2, d + 1):
        lower, upper = None, None
        for a in systems[k]:
            if a[k - 1] == 0:
                continue
            bound = -sum(a[i] * y[i] for i in range(k - 1)) / a[k - 1]
            if a[k - 1] > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is None and upper is None:
            y.append(Fraction(0))
        elif lower is None:
            y.append(upper - 1)
        elif upper is None:
            y.append(lower + 1)
        else:
            y.append((lower + upper) / 2)
    # the system is homogeneous, so any positive multiple of y solves it
    den = math.lcm(*(x.denominator for x in y))
    return list(_primitive([x.numerator * (den // x.denominator) for x in y]))


def _facet_point(vectors, v, n):
    """Strictly positive integer weight w with w.v = 0 and w.u > 0 for the
    other cone vectors, or None when the facet system is infeasible.

    With c the first nonzero entry of v, the plane w.v = 0 has the integer
    basis b_j = sgn(v_c) (v_c e_j - v_j e_c), j != c, so every row of the
    projected system is an integer vector.
    """
    c = next(j for j, x in enumerate(v) if x)
    vc, sign = abs(v[c]), (1 if v[c] > 0 else -1)
    free = [j for j in range(n) if j != c]
    stricts = [u for u in vectors if u != v]
    stricts += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    ineqs = []
    for u in stricts:
        a = tuple(vc * u[j] - sign * v[j] * u[c] for j in free)
        if not any(a):
            return None
        ineqs.append(a)
    y = _solve_strict(ineqs, n - 1)
    if y is None:
        return None
    w = [0] * n
    for yj, j in zip(y, free):
        w[j] += vc * yj
        w[c] -= sign * v[j] * yj
    return list(_primitive(w))


# ---------------------------------------------------------------------------
# traversal


def _flip_ordering(w, v, n):
    rows = [list(w), [-x for x in v]] + _degrevlex_rows(list(range(n)), n)
    return matrix_order(rows, n)


def cone_vectors(G):
    """Primitive exponent-difference vectors exp(lt g) - exp(t) over the
    terms t of the elements g of the reduced basis G."""
    vs = set()
    for g, lt in zip(G, G.leading_terms()):
        for t in g.terms:
            if t == lt:
                continue
            vs.add(_primitive(tuple(a - b for a, b in zip(lt, t))))
    return vs


def key(G):
    """The set of leading terms of the reduced basis G, which marks its cone.

    Within one ideal the leading terms alone fix the reduced basis, since
    they generate its initial ideal.  The basis alone does not mark a cone:
    {x + y} is the reduced basis of two cones, marked by x in one and by y
    in the other.
    """
    return frozenset(G.leading_terms())


def enumerate_fan(I, max_cones=DEFAULT_MAX_CONES, budget=DEFAULT_BUDGET):
    """The reduced bases of all cones of I, by facet flips from degrevlex, one per edge."""
    if max_cones < 1:
        raise ValueError("max_cones must be at least 1, got %s" % max_cones)
    if not any(I.gens):
        raise ValueError("the zero ideal has no universal denominator")
    n = I.ring.n
    counter = _Counter(budget)
    sigma0 = degrevlex(n)
    cones = []
    adjacency = {}
    index = {}
    flipped = set()

    def partial(msg):
        return FanBudgetExceeded(msg, Fan(cones, adjacency))

    try:
        seed = buchberger_reduced(I.gens, sigma0, counter=counter)
        cones.append(seed)
        adjacency[0] = set()
        index[key(seed)] = 0
        queue = deque([0])
        while queue:
            i = queue.popleft()
            cone = cones[i]
            vectors = cone_vectors(cone)
            for v in sorted(vectors):
                if (i, v) in flipped:
                    continue
                w = _facet_point(vectors, v, n)
                if w is None:
                    continue
                tau = _flip_ordering(w, v, n)
                nb = _convert(cone, tau, counter)
                nb_key = key(nb)
                k = index.get(nb_key)
                if k is None:
                    if len(cones) >= max_cones:
                        raise partial("cone budget of %d exhausted" % max_cones)
                    k = len(cones)
                    cones.append(nb)
                    adjacency[k] = set()
                    index[nb_key] = k
                    queue.append(k)
                if k != i:
                    adjacency[i].add(k)
                    adjacency[k].add(i)
                    flipped.add((k, tuple(-x for x in v)))
    except BudgetExceeded:
        raise partial("reduction budget of %d exhausted" % budget) from None
    return Fan(cones, adjacency)


def universal_denominator(I, max_cones=DEFAULT_MAX_CONES, budget=DEFAULT_BUDGET):
    """Delta(I): the lcm of den over the reduced bases of all term orderings."""
    if I.ring.domain is not QQ:
        raise ValueError("the universal denominator needs rational coefficients")
    return enumerate_fan(I, max_cones, budget).denominator()


def reduction_universal(
    I, p, verify=False, max_cones=DEFAULT_MAX_CONES, budget=DEFAULT_BUDGET
):
    """The ordering-free reduction I_p, defined when p does not divide Delta(I).

    It is generated by the degrevlex cone's basis mod p, which it caches as
    its reduced degrevlex basis.  With verify=True every cone's basis is
    reduced modulo p the same way, and the images are checked to generate
    one and the same ideal over F_p.  Each call enumerates the fan afresh.
    """
    if I.ring.domain is not QQ:
        raise ValueError("the reduction mod p needs rational coefficients")
    fan = enumerate_fan(I, max_cones, budget)
    delta = fan.denominator()
    if delta % p == 0:
        raise ValueError("prime %d divides the universal denominator %d" % (p, delta))
    result = _reduce_basis(I, fan.cones[0], p)
    if verify:
        sigma0 = fan.cones[0].ordering
        G0 = result.reduced_gb(sigma0)
        for cone in fan.cones[1:]:
            Gc = _reduce_basis(I, cone, p).reduced_gb(cone.ordering)
            ok = all(normal_form(f, G0, sigma0).is_zero() for f in Gc) and all(
                normal_form(g, Gc, cone.ordering).is_zero() for g in G0
            )
            if not ok:
                raise ValueError(
                    "cone bases disagree modulo %d; %d divides Delta" % (p, p)
                )
    return result
