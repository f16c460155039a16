"""Buchberger engine over field coefficients: normal forms and reduced bases."""

import heapq
from operator import add, le, neg, sub

from .poly import Polynomial, leading, monic, pp_div, pp_divides, pp_lcm, pp_mul


class BudgetExceeded(RuntimeError):
    """Raised when a computation exceeds its reduction-step budget."""


class ReducedGB:
    """A reduced Groebner basis: monic elements sorted by increasing leading term."""

    __slots__ = ("ordering", "elements")

    def __init__(self, ordering, elements):
        self.ordering = ordering
        self.elements = list(elements)

    def leading_terms(self):
        return [leading(g, self.ordering)[0] for g in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGB)
            and self.ordering == other.ordering
            and self.elements == other.elements
        )

    def __repr__(self):
        return "ReducedGB(%d elements)" % len(self.elements)


class _Counter:
    __slots__ = ("left",)

    def __init__(self, budget):
        self.left = budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("reduction budget exhausted")


class _Work:
    """A polynomial under reduction: its terms in a dict beside a heap of
    negated ordering keys, so the sigma-largest term pops first.  A popped
    entry whose term is no longer in the dict (cancelled, or a duplicate of
    a term already handled, which sits next to it) is stale and skipped."""

    __slots__ = ("terms", "heap", "key", "p")

    def __init__(self, terms, key, p):
        self.terms, self.key, self.p = terms, key, p
        self.heap = [(tuple(map(neg, key(t))), t) for t in terms]
        heapq.heapify(self.heap)

    def sub(self, factor, shift, tail):
        """terms -= factor * x^shift * tail, in place."""
        terms, heap, key, p = self.terms, self.heap, self.key, self.p
        for s, a in tail:
            u = tuple(map(add, s, shift))
            v = terms.get(u)
            if v is None:
                v = -factor * a
                heapq.heappush(heap, (tuple(map(neg, key(u))), u))
            else:
                v -= factor * a
            if p:
                v %= p
            if v:
                terms[u] = v
            else:
                del terms[u]


def _reducer(g, lt, lc, pos):
    """Reducer entry (leading term, inverse leading coefficient, tail, position)."""
    return lt, g.ring.domain.invert(lc), [(s, a) for s, a in g.terms.items() if s != lt], pos


def _reducers(polys, sigma):
    """Reducer entries with the deterministic choice rule: sigma-smallest
    leading term first, ties broken by list position."""
    entries = [_reducer(g, *leading(g, sigma), pos) for pos, g in enumerate(polys)]
    entries.sort(key=lambda e: sigma.key(e[0]))
    return entries


def _reduce(work, reducers, counter=None, full=True, on_step=None):
    """Reduce a _Work in place, each step by the first applicable reducer.

    With full=False reduction stops at the first irreducible head and the
    remaining term dict, head included, is returned; otherwise the
    irreducible terms are returned as a new dict.  on_step(pos, shift,
    factor) sees each step, which subtracts factor * x^shift * reducer.
    """
    # pp_divides, pp_div and pp_mul are inlined in this loop and in
    # _Work.sub: the calls cost about a sixth of the F_p kernel's time
    terms, heap, p = work.terms, work.heap, work.p
    out = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = terms.get(t)
        if c is None:
            continue
        for lt, inv, tail, pos in reducers:
            if all(map(le, lt, t)):
                break
        else:
            if not full:
                return terms
            out[t] = terms.pop(t)
            continue
        del terms[t]
        if counter is not None:
            counter.spend()
        factor = c * inv % p if p else c * inv
        shift = tuple(map(sub, t, lt))
        if on_step is not None:
            on_step(pos, shift, factor)
        work.sub(factor, shift, tail)
    return out if full else terms


def normal_form(f, G, sigma):
    """Full normal form of f against the basis G (deterministic reducer choice)."""
    basis = G.elements if isinstance(G, ReducedGB) else list(G)
    if not basis:
        return f
    work = _Work(dict(f.terms), sigma.key, f.ring.domain.characteristic)
    return Polynomial(f.ring, _reduce(work, _reducers(basis, sigma)))


def _divide(work, reducers, row, reps, counter=None, full=True):
    """_reduce that also tracks coefficients: returns the remainder and
    row - sum_k q_k * reps[k], q_k the quotient by the reducer at position k.

    When row is the coefficient vector of the work polynomial, so is the
    returned one of the remainder.
    """
    quotients = {}

    def record(pos, shift, factor):
        quotients.setdefault(pos, []).append((shift, factor))

    r = _reduce(work, reducers, counter, full, record)
    for pos, terms in quotients.items():
        q = row[0].ring.from_terms(terms)
        row = [x - q * y for x, y in zip(row, reps[pos])]
    return r, row


def _s_work(ra, rb, key, p):
    """The S-polynomial of the reducer entries of two monic polynomials, as
    a _Work: their leading terms cancel, so it is built from the shifted
    tails."""
    (lta, _, taila, _), (ltb, one, tailb, _) = ra, rb
    l = pp_lcm(lta, ltb)
    sa = pp_div(l, lta)
    work = _Work({pp_mul(t, sa): c for t, c in taila}, key, p)
    work.sub(one, pp_div(l, ltb), tailb)
    return work


def _gm_update(lts, pairs, j, sigma):
    """Gebauer-Moeller pair update when basis element j is appended.

    Drops from pairs, in place, the pairs that j makes redundant, and
    returns the new pairs (i, j) that the product and chain criteria leave.
    """
    ltj = lts[j]
    lcm = pp_lcm
    dropped = []
    for a, b in pairs:
        l = lcm(lts[a], lts[b])
        if pp_divides(ltj, l) and l != lcm(lts[a], ltj) and l != lcm(lts[b], ltj):
            dropped.append((a, b))
    pairs.difference_update(dropped)
    by_lcm = {}
    for i in range(j):
        by_lcm.setdefault(lcm(lts[i], ltj), []).append(i)
    minimal = []
    for l in sorted(by_lcm, key=sigma.key):
        if all(not pp_divides(m, l) for m in minimal):
            minimal.append(l)
    return [
        (min(by_lcm[l]), j)
        for l in minimal
        if not any(lcm(lts[i], ltj) == pp_mul(lts[i], ltj) for i in by_lcm[l])
    ]


def buchberger(gens, sigma, counter=None, reps=None):
    """A monic (not reduced) Groebner basis of the ideal generated by gens.

    S-pairs are taken by the sugar strategy (Giovini-Mora-Niesi-Robbiano-
    Traverso 1991): least sugar first, then the sigma-smallest lcm, then
    the pair index.  An input generator's sugar is its total degree, a
    pair's is max(sugar_a - deg lt_a, sugar_b - deg lt_b) + deg lcm, and an
    element appended from a pair inherits the pair's sugar.

    Head reduction uses the first-inserted applicable basis element.  When a
    list reps is given, it receives each element's coefficients in gens:
    basis[k] == sum(reps[k][i] * gens[i]).
    """
    basis = []
    lts = []
    sugar = []
    reducers = []
    pairs = set()
    heap = []
    key = sigma.key

    def append(f, rep, f_sugar):
        lt, lc = leading(f, sigma)
        inv = f.ring.domain.invert(lc)
        basis.append(f.scale(inv))
        lts.append(lt)
        sugar.append(f_sugar)
        reducers.append(_reducer(basis[-1], lt, f.ring.domain.one, len(basis) - 1))
        if reps is not None:
            reps.append([x.scale(inv) for x in rep])
        for a, b in _gm_update(lts, pairs, len(basis) - 1, sigma):
            pairs.add((a, b))
            l = pp_lcm(lts[a], lts[b])
            pair_sugar = max(sugar[a] - sum(lts[a]), sugar[b] - sum(lts[b])) + sum(l)
            heapq.heappush(heap, (pair_sugar, key(l), (a, b)))

    for i, f in enumerate(gens):
        if not f.is_zero():
            unit = None
            if reps is not None:
                unit = [f.ring.one() if k == i else f.ring.zero() for k in range(len(gens))]
            append(f, unit, max(map(sum, f.terms)))
    if not basis:
        return []

    ring = basis[0].ring
    one, p = ring.domain.one, ring.domain.characteristic
    while heap:
        pair_sugar, _, (a, b) = heapq.heappop(heap)
        if (a, b) not in pairs:
            continue
        pairs.discard((a, b))
        work = _s_work(reducers[a], reducers[b], key, p)
        rep = None
        if reps is None:
            s = _reduce(work, reducers, counter, full=False)
        else:
            l = pp_lcm(lts[a], lts[b])
            sa, sb = pp_div(l, lts[a]), pp_div(l, lts[b])
            rep = [x.mul_term(sa, one) - y.mul_term(sb, one) for x, y in zip(reps[a], reps[b])]
            s, rep = _divide(work, reducers, rep, reps, counter, full=False)
        if s:
            append(Polynomial(ring, s), rep, pair_sugar)
    return basis


def buchberger_reduced(gens, sigma, budget=None, counter=None):
    """The unique reduced sigma-Groebner basis of the ideal generated by gens.

    Returns the empty basis for the zero ideal and [1] for the unit ideal.
    A shared counter may be passed to budget several computations jointly.
    """
    if counter is None and budget is not None:
        counter = _Counter(budget)
    basis = buchberger(gens, sigma, counter)
    if not basis:
        return ReducedGB(sigma, [])
    # the minimal basis, as reducers in increasing leading-term order
    minimal = []
    for r in _reducers(basis, sigma):
        if not any(pp_divides(m[0], r[0]) for m in minimal):
            minimal.append(r)
    # Each monic element's tail is reduced against all of them: its own
    # leading term divides none of the (smaller) terms met on the way.
    ring = basis[0].ring
    p = ring.domain.characteristic
    reduced = []
    for lt, _, tail, _ in minimal:
        terms = {lt: ring.domain.one}
        terms.update(_reduce(_Work(dict(tail), sigma.key, p), minimal, counter))
        reduced.append(Polynomial(ring, terms))
    return ReducedGB(sigma, reduced)


def is_zero_dimensional(G):
    """True when every variable has a pure power among G's leading terms."""
    pure = {i for t in G.leading_terms() for i, e in enumerate(t) if e and e == sum(t)}
    return bool(G.elements) and len(pure) == G[0].ring.n


def fglm(G, tau, counter=None):
    """The reduced tau-basis of a zero-dimensional ideal from its reduced
    basis G (Faugere-Gianni-Lazard-Mora change of ordering), budgeted by counter.

    Monomials are visited in increasing tau order, skipping multiples of the
    tau-leading terms found so far.  The G-normal form of x_i * m is that of
    m, shifted by x_i and reduced again.  Echelon rows keep their pivot
    inverse and the multipliers of the rows that built them; when a normal form
    eliminates to zero, back-substitution gives the element m - sum c_j b_j.
    """
    sigma, ring = G.ordering, G[0].ring
    dom, n = ring.domain, ring.n
    p = dom.characteristic
    reducers = _reducers(G.elements, sigma)

    def subtract(v, f, w):
        """v -= f * w, in place."""
        for t, a in w.items():
            c = v.get(t, 0) - f * a
            if p:
                c %= p
            if c:
                v[t] = c
            else:
                v.pop(t, None)

    one = (0,) * n
    rows = []  # (pivot, its inverse, echelon row, monomial, normal form, {row: multiplier})
    lts, elements = [], []
    heap, seen = [(tau.key(one), one, None, 0)], {one}
    while heap:
        _, m, parent, i = heapq.heappop(heap)
        if any(all(map(le, lt, m)) for lt in lts):
            continue
        if parent is None:
            start = {one: dom.one}
        else:
            start = {t[:i] + (t[i] + 1,) + t[i + 1 :]: c for t, c in rows[parent][4].items()}
        nf = _reduce(_Work(start, sigma.key, p), reducers, counter)
        v, used = dict(nf), {}
        for k, (pivot, inv, w, _, _, _) in enumerate(rows):
            f = v.get(pivot)
            if f:
                used[k] = f * inv % p if p else f * inv
                subtract(v, used[k], w)
        if not v:
            comb = {m: dom.one}
            for k in reversed(range(len(rows))):
                f = used.pop(k, None)
                if f:
                    comb[rows[k][3]] = -f % p if p else -f
                    subtract(used, f, rows[k][5])
            lts.append(m)
            elements.append(Polynomial(ring, comb))
            continue
        pivot = next(iter(v))
        rows.append((pivot, dom.invert(v[pivot]), v, m, nf, used))
        for j in range(n):
            u = m[:j] + (m[j] + 1,) + m[j + 1 :]
            if u not in seen:
                seen.add(u)
                heapq.heappush(heap, (tau.key(u), u, len(rows) - 1, j))
    return ReducedGB(tau, elements)


def _convert(G, tau, counter=None):
    """The reduced tau-basis of G's ideal: G relabelled if each element keeps its
    leading term under tau (<lt_tau G> = in(I) lies in in_tau(I), and both
    standard-monomial sets are bases of R/I, so they agree), else by FGLM if
    G is zero-dimensional, else by Buchberger."""
    if all(leading(g, tau)[0] == leading(g, G.ordering)[0] for g in G):
        return ReducedGB(tau, sorted(G, key=lambda g: tau.key(leading(g, tau)[0])))
    if is_zero_dimensional(G):
        return fglm(G, tau, counter)
    return buchberger_reduced(G.elements, tau, counter=counter)


def min_lt(G):
    """MinLT: the set of leading terms of the reduced basis."""
    return set(G.leading_terms())


def s_polynomial(f, g, sigma):
    """S-polynomial of f and g (field coefficients)."""
    ra, rb = (_reducer(h, *leading(h, sigma), 0) for h in (monic(f, sigma), monic(g, sigma)))
    return Polynomial(f.ring, _s_work(ra, rb, sigma.key, f.ring.domain.characteristic).terms)


def is_groebner(basis, sigma):
    """Buchberger's criterion on the S-pairs that the product and chain
    criteria keep, taken as buchberger takes them: all reduce to zero."""
    polys = [monic(g, sigma) for g in basis if not g.is_zero()]
    entries = [_reducer(g, *leading(g, sigma), pos) for pos, g in enumerate(polys)]
    lts, pairs = [], set()
    for j, e in enumerate(entries):
        lts.append(e[0])
        pairs.update(_gm_update(lts, pairs, j, sigma))
    if not pairs:
        return True
    reducers = sorted(entries, key=lambda e: sigma.key(e[0]))
    p = polys[0].ring.domain.characteristic
    return not any(
        _reduce(_s_work(entries[a], entries[b], sigma.key, p), reducers, full=False)
        for a, b in pairs
    )


# ---------------------------------------------------------------------------
# representation of a basis in terms of the original generators


def represent(G, F, sigma):
    """Matrix M (as a list of columns over F) with G = F * M.

    Each column is a list of polynomials, one per element of F.  Raises
    ValueError when some element of G is not in the ideal generated by F.
    """
    F = list(F)
    reps = []
    reducers = _reducers(buchberger(F, sigma, reps=reps), sigma)
    zeros = [f.ring.zero() for f in F]
    columns = []
    for g in G:
        work = _Work(dict(g.terms), sigma.key, g.ring.domain.characteristic)
        r, rep = _divide(work, reducers, zeros, reps)
        if r:
            raise ValueError("element is not in the ideal generated by F")
        # g == sum (-rep_i) F_i, so the column is -rep
        columns.append([-x for x in rep])
    return columns
