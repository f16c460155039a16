"""Groebner fan enumeration, the universal denominator, and the
ordering-free reduction modulo a prime.

A cone is represented by its reduced basis, a ReducedGB, and keyed by
its leading terms, gb_field.min_lt.  Traversal starts from the degrevlex
cone and flips facets.  Each cone's facets come from the extreme rays of
its closed cone in the positive orthant, found by one double-description
run over ZZ: a facet with primitive normal v gets as its point w the sum
of the rays on it, which lies in its relative interior.  The cone's basis
is converted to the matrix ordering [w; -v; degrevlex rows] by
gb_field._convert (FGLM when I is zero-dimensional) only when no known cone
contains w: the cone across a facet is looked up among the cones found so
far first, so there is one conversion per new cone, not one per edge.
"""

import math
from collections import deque
from operator import mul

from .gb_field import _ACTIVE, BudgetExceeded, _convert, budget, buchberger_reduced, min_lt, normal_form
from .orderings import _degrevlex_rows, _rank, degrevlex, matrix_order
from .poly import GF, QQ, den_of_set
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
        return math.lcm(*map(den_of_set, self.cones))

    def __repr__(self):
        return "Fan(%d cones)" % len(self.cones)


# ---------------------------------------------------------------------------
# facets by double description over ZZ


def _primitive(a):
    """The integer vector a divided by the gcd of its entries, sign kept."""
    g = math.gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def _facet_points(vectors, n):
    """Map each cone vector v that spans a flippable facet to its facet point:
    a primitive, strictly positive integer w with w.v = 0 and w.u > 0 for the
    other vectors u.

    The extreme rays of C = {w >= 0 : u.w >= 0 for u in vectors} come from
    double description (Fukuda-Prodon 1996): start from the orthant rays e_i
    and add one inequality at a time, keeping the rays on its nonnegative
    side and combining a positive ray with a negative one only when the two
    are adjacent.  Each ray carries the bit set of the inequalities tight at
    it, and the combinatorial test decides adjacency: at least n - 2 tight
    inequalities in common, and no third ray tight at all of them.

    v spans a flippable facet exactly when the rays tight at v have rank
    n - 1 and their sum, which lies in the facet's relative interior, is
    strictly positive; w is that sum made primitive.
    """
    ineqs = sorted(vectors)
    full = (1 << n) - 1
    rays = [(tuple(int(i == j) for j in range(n)), full ^ (1 << i)) for i in range(n)]
    for k, a in enumerate(ineqs, n):
        pos, neg, nxt = [], [], []
        for r, z in rays:
            s = sum(x * y for x, y in zip(a, r))
            if s > 0:
                pos.append((r, z, s))
                nxt.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                nxt.append((r, z | 1 << k))
        for p, zp, sp in pos:
            for q, zq, sq in neg:
                z = zp & zq
                if z.bit_count() < n - 2 or any(
                    z & zr == z for r, zr in rays if r is not p and r is not q
                ):
                    continue
                ray = _primitive(tuple(sp * y - sq * x for x, y in zip(p, q)))
                nxt.append((ray, z | 1 << k))
        rays = nxt
    points = {}
    for k, v in enumerate(ineqs, n):
        tight = [r for r, z in rays if z >> k & 1]
        w = [sum(r[j] for r in tight) for j in range(n)]
        if min(w) > 0 and _rank(tight) == n - 1:
            points[v] = _primitive(w)
    return points


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


def enumerate_fan(I, max_cones=DEFAULT_MAX_CONES):
    """The reduced bases of all cones of I, by facet flips from degrevlex.  It
    spends the active budget, or one of DEFAULT_BUDGET steps if none is.

    Before cone i is flipped across its facet F, with primitive normal v and
    facet point w, the known cones k != i that have -v among their cone
    vectors are tried: if u.w >= 0 for every cone vector u of k, then k is
    the cone across F, and the edge is recorded without a conversion.  This
    is sound because Groebner cones meet face to face (Mora-Robbiano 1988):
    w lies in the relative interior of F and is strictly positive, so any
    other cone whose closure contains w contains all of F and is the cone
    across it.  That closure is {w >= 0 : u.w >= 0 for its cone vectors u};
    F is not on the boundary of the orthant, so one of these inequalities
    cuts out F, and as both vectors are primitive that one is exactly -v.
    Only a facet whose point no known cone contains is flipped, so each new
    cone costs one conversion and a known one none.
    """
    if max_cones < 1:
        raise ValueError("max_cones must be at least 1, got %s" % max_cones)
    if not any(I.gens):
        raise ValueError("the zero ideal has no universal denominator")
    n = I.ring.n
    cones = []
    adjacency = {}
    index = {}
    vectors = []  # the cone vectors of each cone
    having = {}  # cone vector -> the cones that have it
    queue = deque()

    def add(G):
        k = len(cones)
        cones.append(G)
        adjacency[k] = set()
        index[min_lt(G)] = k
        vectors.append(cone_vectors(G))
        for u in vectors[k]:
            having.setdefault(u, []).append(k)
        queue.append(k)
        return k

    def known(i, v, w):
        """The known cone other than i whose closure contains w, if any."""
        for k in having.get(tuple(-x for x in v), ()):
            if k != i and all(sum(map(mul, u, w)) >= 0 for u in vectors[k]):
                return k
        return None

    def partial(msg):
        return FanBudgetExceeded("%s (%d cones found)" % (msg, len(cones)), Fan(cones, adjacency))

    try:
        with _ACTIVE.get() or budget(DEFAULT_BUDGET):
            add(buchberger_reduced(I.gens, degrevlex(n)))
            while queue:
                i = queue.popleft()
                for v, w in sorted(_facet_points(vectors[i], n).items()):
                    k = known(i, v, w)
                    if k is None:
                        nb = _convert(cones[i], _flip_ordering(w, v, n))
                        k = index.get(min_lt(nb))
                        if k is None:
                            if len(cones) >= max_cones:
                                raise partial("cone budget of %d exhausted" % max_cones)
                            k = add(nb)
                    if k != i:
                        adjacency[i].add(k)
                        adjacency[k].add(i)
    except BudgetExceeded as e:
        raise partial(str(e)) from None
    return Fan(cones, adjacency)


def universal_denominator(I, max_cones=DEFAULT_MAX_CONES):
    """Delta(I): the lcm of den over the reduced bases of all term orderings."""
    if I.ring.domain is not QQ:
        raise ValueError("the universal denominator needs rational coefficients")
    return enumerate_fan(I, max_cones).denominator()


def reduction_universal(I, p, verify=False, max_cones=DEFAULT_MAX_CONES):
    """The ordering-free reduction I_p, defined when p does not divide Delta(I).

    It is generated by the degrevlex cone's basis mod p, which it caches as
    its reduced degrevlex basis.  With verify=True every cone's basis is
    reduced modulo p the same way, and the images are checked to generate
    one and the same ideal over F_p.  Each call enumerates the fan afresh.
    """
    if I.ring.domain is not QQ:
        raise ValueError("the reduction mod p needs rational coefficients")
    field = GF(p)  # rejects a non-prime before the fan is enumerated
    fan = enumerate_fan(I, max_cones)
    delta = fan.denominator()
    if delta % p == 0:
        raise ValueError("prime %d divides the universal denominator %d" % (p, delta))
    result = _reduce_basis(I, fan.cones[0], field)
    if verify:
        sigma0 = fan.cones[0].ordering
        G0 = result.reduced_gb(sigma0)
        for cone in fan.cones[1:]:
            Gc = _reduce_basis(I, cone, field).reduced_gb(cone.ordering)
            ok = all(normal_form(f, G0, sigma0).is_zero() for f in Gc) and all(
                normal_form(g, Gc, cone.ordering).is_zero() for g in G0
            )
            if not ok:
                raise ValueError(
                    "cone bases disagree modulo %d; %d divides Delta" % (p, p)
                )
    return result
