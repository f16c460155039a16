"""Minimal strong Groebner bases over the integers.

Completion uses both S-polynomials (cancelling leading monomials through the
lcm of the leading terms and of the leading coefficients) and GCD-polynomials
(combining two elements to realize the gcd of their leading coefficients).
A leading monomial is c*x^a with c > 0.  S-pairs are pruned by
gb_field._gm_update, Gebauer and Moeller's criteria B, M and F on leading
monomials (code, c), which the field engine calls with every c = 1.  A
GCD-pair is skipped when some element's leading monomial already divides
gcd(lc_i, lc_j) * lcm(lt_i, lt_j).

Why the criteria hold over ZZ (Lichtblau, "Effective computation of
strong Groebner bases over Euclidean domains", Illinois J. Math. 2012).  A
basis whose GCD-pairs are done is strong once the S-polynomial of each
syzygy in a generating set of the syzygies of lm_1, ..., lm_k has a standard
representation.  With L_ij the lcm of lm_i and lm_j: over ZZ, as over a
field, the syzygies of the monomials c_i*x^(a_i) are generated by the
pairwise S-syzygies S_ij = (L_ij/lm_i) e_i - (L_ij/lm_j) e_j, since in each
multidegree they are the integer relations among the c_i, which the
pairwise ones generate.  If lm_k divides L_ij, then L_ik and L_jk divide
L_ij and S_ij = (L_ij/L_ik) S_ik - (L_ij/L_jk) S_jk, a combination with
monomial coefficients.  A pair whose leading monomials are coprime has
S-polynomial tail_k*f_i - tail_i*f_k, a standard representation.  Gebauer
and Moeller's proof that B, M and F keep a generating set uses only these
two facts and the lattice of lcms, so it holds as written.

Reduction runs in place on gb_field's heap-ordered work polynomial, over
the sigma-codes of gb_field: strong_gb encodes its generators on entry and
decodes the basis on exit.  The head is reduced by exact (strong) steps;
every other term by a Euclidean step, which leaves its coefficient a
symmetric remainder modulo the smallest applicable leading coefficient and
so keeps the integers small.

Only the set of leading monomials and the lcm of the leading coefficients are
canonical; the full basis is normalized deterministically but not unique.
"""

import heapq
import math

from .arith import _ext_gcd
from .arith import lcm as int_lcm
from .gb_field import _ACTIVE, _Basis, _codes, _gm_update, _Work
from .poly import Polynomial, ZZ, leading


class StrongGB(_Basis):
    """A minimal strong Groebner basis over ZZ, sorted by increasing leading term."""

    __slots__ = ()

    def leading_monomials(self):
        return [leading(g, self.ordering) for g in self.elements]


def _strong_head_reduce(work, basis):
    """Reduce the head of a _Work in place while some basis entry (g, lt, lc)
    has lt | t and lc | c, taking the first such entry; each step is spent
    from the active budget.  g is the list of the entry's encoded terms, and
    lt the code of its leading term.

    Returns the irreducible head term, left in work.terms but off the heap,
    or None when the work reduced to zero.
    """
    terms, heap = work.terms, work.heap
    guard = work.codes.guard
    steps = _ACTIVE.get()
    while heap:
        t = -heapq.heappop(heap)
        c = terms.get(t)
        if c is None:
            continue
        tg = t | guard
        for g, lt, lc in basis:
            if tg - lt & guard == guard and c % lc == 0:
                break
        else:
            while heap and heap[0] == -t:  # duplicates of the head
                heapq.heappop(heap)
            return t
        if steps is not None:
            steps.spend()
        # subtracting the whole of g, leading term included, cancels t
        work.sub(c // lc, t - lt, g)
    return None


def _tail_reduce(work, basis):
    """Reduce every term left on a _Work's heap by one Euclidean step, in place.

    The coefficient c of a term t becomes its symmetric remainder modulo lc,
    for the basis entry (g, lt, lc) with lt | t and the smallest lc, ties
    broken by position.  Each step that changes c spends the active budget.
    Returns the term dict.
    """
    terms, heap = work.terms, work.heap
    guard = work.codes.guard
    steps = _ACTIVE.get()
    while heap:
        t = -heapq.heappop(heap)
        c = terms.get(t)
        if c is None:
            continue
        tg = t | guard
        best = None
        for e in basis:
            if (best is None or e[2] < best[2]) and tg - e[1] & guard == guard:
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
            work.sub((c - r) // lc, t - lt, g)
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
    codes = _codes(sigma, todo)
    guard, lcm = codes.guard, codes.lcm
    basis = []  # entries (encoded terms, lt, lc) with lc > 0
    lms, exps = [], []  # each entry's (lt, lc) and the exponents of lt
    heap = []  # (pp-lcm, kind, i, j); kind 0 = S-pair, 1 = GCD-pair
    queued = {}  # the S-pairs still on the heap: (i, j) -> their lcm (l, c)

    def append(work, lt):
        terms = _tail_reduce(work, basis)
        if terms[lt] < 0:
            terms = {t: -c for t, c in terms.items()}
        lc = terms[lt]
        k = len(basis)
        lms.append((lt, lc))
        exps.append(codes.decode(lt))
        for (i, _), m in _gm_update(lms, exps, queued, k, codes):
            heapq.heappush(heap, (m[0], 0, i, k))
            queued[i, k] = m
        for i, (_, lti, lci) in enumerate(basis):
            d = math.gcd(lci, lc)
            if d != lci and d != lc:
                heapq.heappush(heap, (lcm(lti, lt), 1, i, k))
        basis.append((list(terms.items()), lt, lc))

    for g in todo:
        work = _Work(codes.encode_terms(g.terms), codes, 0)
        append(work, -heapq.heappop(work.heap))
    while heap:
        l, kind, i, j = heapq.heappop(heap)
        f, lti, lci = basis[i]
        g, ltj, lcj = basis[j]
        if kind == 0:
            if (i, j) not in queued:  # pruned by criterion B
                continue
            c = queued.pop((i, j))[1]
            a, b = c // lci, c // lcj  # a*f - b*g
        else:
            d, a, b = _ext_gcd(lci, lcj)
            lg = l | guard
            if any(d % lck == 0 and lg - ltk & guard == guard for _, ltk, lck in basis):
                continue
            b = -b  # a*f + b*g
        work = _Work({}, codes, 0)
        work.sub(-a, l - lti, f)
        work.sub(b, l - ltj, g)
        head = _strong_head_reduce(work, basis)
        if head is not None:
            append(work, head)
    return StrongGB(sigma, _normalize_output(basis, ring, codes))


def _normalize_output(basis, ring, codes):
    """Minimalize by leading-monomial divisibility, then tail-reduce and decode."""
    minimal = []
    for g, lt, lc in sorted(basis, key=lambda e: (e[1], e[2])):
        if not any(lc % klc == 0 and codes.divides(klt, lt) for _, klt, klc in minimal):
            minimal.append((g, lt, lc))
    out = []
    # an element's own leading term divides none of its tail terms, so each
    # is tail-reduced against the whole minimal set
    for g, _, _ in minimal:
        work = _Work(dict(g), codes, 0)
        heapq.heappop(work.heap)
        out.append(Polynomial._raw(ring, codes.decode_terms(_tail_reduce(work, minimal))))
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
