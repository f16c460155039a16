"""Minimal strong Groebner bases over the integers.

Completion uses both S-polynomials (cancelling leading monomials through the
lcm of the leading terms and of the leading coefficients) and GCD-polynomials
(combining two elements to realize the gcd of their leading coefficients).
Pairs are pruned by criteria that hold over ZZ (Kandri-Rody and Kapur, JSC
1988; Lichtblau, "Effective computation of strong Groebner bases over
Euclidean domains", 2012):

- an S-pair by the product criterion, when both the leading terms and the
  leading coefficients are coprime;
- an S-pair (i, j) by the chain criterion, when a third element's leading
  monomial divides lcm(lc_i, lc_j) * lcm(lt_i, lt_j) and neither of its
  S-pairs with i and j is still queued;
- a GCD-pair when some element's leading monomial already divides
  gcd(lc_i, lc_j) * lcm(lt_i, lt_j).

Reduction runs in place on gb_field's heap-ordered work polynomial.  The
head is reduced by exact (strong) steps; every other term by a Euclidean
step, which leaves its coefficient a symmetric remainder modulo the smallest
applicable leading coefficient and so keeps the integers small.

Only the set of leading monomials and the lcm of the leading coefficients are
canonical; the full basis is normalized deterministically but not unique.
"""

import heapq
import math
from operator import le, sub

from .arith import _ext_gcd
from .arith import lcm as int_lcm
from .gb_field import _ACTIVE, _Basis, _Work
from .poly import Polynomial, ZZ, leading, pp_div, pp_divides, pp_lcm, pp_mul


class StrongGB(_Basis):
    """A minimal strong Groebner basis over ZZ, sorted by increasing leading term."""

    __slots__ = ()

    def leading_monomials(self):
        return [leading(g, self.ordering) for g in self.elements]


def _lm_divides(lt1, lc1, lt2, lc2):
    """Leading-monomial divisibility over ZZ: term divides and coefficient divides."""
    return pp_divides(lt1, lt2) and lc2 % lc1 == 0


def _strong_head_reduce(work, basis):
    """Reduce the head of a _Work in place while some basis entry (g, lt, lc)
    has lt | t and lc | c, taking the first such entry; each step is spent
    from the active budget.

    Returns the irreducible head term, left in work.terms but off the heap,
    or None when the work reduced to zero.
    """
    terms, heap = work.terms, work.heap
    steps = _ACTIVE.get()
    while heap:
        t = heapq.heappop(heap)[1]
        c = terms.get(t)
        if c is None:
            continue
        for g, lt, lc in basis:
            if all(map(le, lt, t)) and c % lc == 0:
                break
        else:
            while heap and heap[0][1] == t:  # duplicates of the head
                heapq.heappop(heap)
            return t
        if steps is not None:
            steps.spend()
        # subtracting the whole of g, leading term included, cancels t
        work.sub(c // lc, tuple(map(sub, t, lt)), g.terms.items())
    return None


def _tail_reduce(work, basis):
    """Reduce every term left on a _Work's heap by one Euclidean step, in place.

    The coefficient c of a term t becomes its symmetric remainder modulo lc,
    for the basis entry (g, lt, lc) with lt | t and the smallest lc, ties
    broken by position.  Each step that changes c spends the active budget.
    Returns the term dict.
    """
    terms, heap = work.terms, work.heap
    steps = _ACTIVE.get()
    while heap:
        t = heapq.heappop(heap)[1]
        c = terms.get(t)
        if c is None:
            continue
        best = None
        for e in basis:
            if (best is None or e[2] < best[2]) and all(map(le, e[1], t)):
                best = e
        if best is None:
            continue
        g, lt, lc = best
        r = c % lc
        if 2 * r > lc:
            r -= lc
        if r != c:
            if steps is not None:
                steps.spend()
            work.sub((c - r) // lc, tuple(map(sub, t, lt)), g.terms.items())
    return terms


def strong_gb(gens, sigma):
    """A minimal strong sigma-Groebner basis of the ideal generated in ZZ[x].

    Each head and tail reduction step spends the active budget (gb_field.budget).
    """
    if any(g.ring.domain is not ZZ for g in gens):
        raise ValueError("strong_gb needs integer coefficients")
    todo = [g for g in gens if not g.is_zero()]
    if not todo:
        return StrongGB(sigma, [])
    ring = todo[0].ring
    key = sigma.key
    basis = []  # entries (poly, lt, lc) with lc > 0
    heap = []  # (key of pp-lcm, kind, i, j); kind 0 = S-pair, 1 = GCD-pair
    queued = set()  # the S-pairs still on the heap

    def append(work, lt):
        terms = _tail_reduce(work, basis)
        if terms[lt] < 0:
            terms = {t: -c for t, c in terms.items()}
        lc = terms[lt]
        j = len(basis)
        for i, (_, lti, lci) in enumerate(basis):
            l = pp_lcm(lti, lt)
            d = math.gcd(lci, lc)
            if d != 1 or l != pp_mul(lti, lt):  # else the product criterion holds
                heapq.heappush(heap, (key(l), 0, i, j))
                queued.add((i, j))
            if d != lci and d != lc:
                heapq.heappush(heap, (key(l), 1, i, j))
        basis.append((Polynomial._raw(ring, terms), lt, lc))

    def chained(i, j, l, c):
        for k, (_, ltk, lck) in enumerate(basis):
            if (
                k != i
                and k != j
                and c % lck == 0
                and all(map(le, ltk, l))
                and (min(i, k), max(i, k)) not in queued
                and (min(j, k), max(j, k)) not in queued
            ):
                return True
        return False

    for g in todo:
        work = _Work(dict(g.terms), key, 0)
        append(work, heapq.heappop(work.heap)[1])
    while heap:
        _, kind, i, j = heapq.heappop(heap)
        f, lti, lci = basis[i]
        g, ltj, lcj = basis[j]
        l = pp_lcm(lti, ltj)
        if kind == 0:
            queued.discard((i, j))
            c = int_lcm(lci, lcj)
            if chained(i, j, l, c):
                continue
            a, b = c // lci, c // lcj  # a*f - b*g
        else:
            d, a, b = _ext_gcd(lci, lcj)
            if any(d % lck == 0 and all(map(le, ltk, l)) for _, ltk, lck in basis):
                continue
            b = -b  # a*f + b*g
        sh = pp_div(l, lti)
        work = _Work({pp_mul(t, sh): a * v for t, v in f.terms.items()}, key, 0)
        work.sub(b, pp_div(l, ltj), g.terms.items())
        head = _strong_head_reduce(work, basis)
        if head is not None:
            append(work, head)
    return StrongGB(sigma, _normalize_output(basis, sigma))


def _normalize_output(basis, sigma):
    """Minimalize by leading-monomial divisibility, then tail-reduce."""
    key = sigma.key
    minimal = []
    for g, lt, lc in sorted(basis, key=lambda e: (key(e[1]), e[2])):
        if not any(_lm_divides(klt, klc, lt, lc) for _, klt, klc in minimal):
            minimal.append((g, lt, lc))
    out = []
    # an element's own leading term divides none of its tail terms, so each
    # is tail-reduced against the whole minimal set
    for g, _, _ in minimal:
        work = _Work(dict(g.terms), key, 0)
        heapq.heappop(work.heap)
        out.append(Polynomial._raw(g.ring, _tail_reduce(work, minimal)))
    return out


def lcm_sigma(polys, sigma=None):
    """Positive lcm of the leading coefficients of a set of nonzero ZZ-polynomials."""
    if isinstance(polys, StrongGB):
        sigma = polys.ordering
        polys = polys.elements
    if sigma is None:
        raise ValueError("an ordering is required for a plain set of polynomials")
    if any(f.is_zero() for f in polys):
        raise ValueError("lcm_sigma needs nonzero polynomials")
    return int_lcm(*[leading(f, sigma)[1] for f in polys])


def leading_monomial_set(B):
    """The canonical invariant {(LT, |LC|)} of a minimal strong basis."""
    return {(lt, abs(lc)) for lt, lc in B.leading_monomials()}
