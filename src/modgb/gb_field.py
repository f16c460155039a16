"""Buchberger engine over field coefficients: normal forms and reduced bases.

Over F_p the engine works on residues, and every reducer is monic.  Over QQ
it works fraction-free, on integers.  A reducer is the primitive integer
multiple of its polynomial, with a positive leading coefficient lc.  A
polynomial under reduction is an integer polynomial w with one exact
integer scale s, and stands for w / s.  A reduction step on a term c*x^t
is a pseudo-division step: with g = gcd(c, lc), it multiplies w, the
irreducible terms already emitted and s by lc / g, then subtracts
(c / g) * x^(t - lt) * tail.  The content shared by w and s is divided out
at the end, and during the reduction whenever s has grown by _GROWTH bits.

Fractions exist only at the boundary: a QQ polynomial enters as
den(f) * f with scale den(f), and every QQ polynomial a caller gets back
has Fraction coefficients.  Every basis returned is monic.

Inside the engine a power product is one int, its sigma-code.  With the
ordering's weight rows R_1, ..., R_m (orderings.weight_rows: non-negative
integers, compared before the exponents), the code of x^e holds the fields
R_1.e, ..., R_m.e, e_1, ..., e_n, most significant first, each W bits wide
with a zero guard bit above it.  W is chosen per run: the bit length of the
largest field of the lcm of the run's input power products, plus 32 bits of
headroom.  The code is linear in e, so it is the sum of e_j times the code
of x_j, and with H the mask of the guard bits:

- s <_sigma t exactly when code(s) < code(t), since the fields compare as
  the ordering's key does;
- code(s * t) = code(s) + code(t), as long as no field overflows; a field
  that does sets its guard bit, and the engine raises OverflowError on the
  first such product rather than wrap;
- s divides t exactly when ((code(t) | H) - code(s)) & H == H: each field
  of t with its guard bit set, minus that of s, keeps the guard bit exactly
  when it does not go below it, and borrows nothing from the next field.

Each run encodes its inputs on entry and decodes its outputs on exit; every
public object, and the entries a ReducedGB keeps, hold exponent tuples.
"""

import heapq
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter, mul

from .poly import QQ, Polynomial, den, leading

# scale growth, in bits, between two divisions by the content during a reduction
_GROWTH = 256
# bits of each code field above the largest field of the run's inputs
_HEADROOM = 32
# the innermost active budget, or None
_ACTIVE = ContextVar("modgb_budget", default=None)


class BudgetExceeded(RuntimeError):
    """Raised when a computation exceeds its reduction-step budget."""


class _Basis:
    """A basis sorted by increasing leading term under its ordering."""

    __slots__ = ("ordering", "elements")

    def __init__(self, ordering, elements):
        self.ordering = ordering
        self.elements = list(elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __repr__(self):
        return "%s(%d elements)" % (type(self).__name__, len(self.elements))


class ReducedGB(_Basis):
    """A reduced Groebner basis of monic elements, with the engine's reducer
    entries of its elements: element i has the entry at position i, so the
    entries are sigma-smallest first, as _reducers orders them."""

    __slots__ = ("entries",)

    def __init__(self, ordering, elements):
        super().__init__(ordering, elements)
        self.entries = [_reducer(g, pos, ordering) for pos, g in enumerate(self.elements)]

    def leading_terms(self):
        return [e[0] for e in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGB)
            and self.ordering == other.ordering
            and self.elements == other.elements
        )


class budget:
    """Context manager: each reduction step inside it spends one of its steps,
    and BudgetExceeded is raised when none is left.  With none active, reduction
    is unbounded; with several, only the innermost is spent."""

    def __init__(self, steps):
        self.steps = self.left = steps
        self._tokens = []

    def __enter__(self):
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._tokens.pop())

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("reduction budget of %d exhausted" % self.steps)


class _Codes:
    """The sigma-codes of one run, in fields of the given width (module
    docstring).  Field k of f fields, counted from the most significant,
    sits at bits [(f - 1 - k) * (width + 1), ... + width)."""

    __slots__ = ("width", "guard", "mask", "shifts", "units")

    def __init__(self, sigma, width):
        rows, n = sigma.weight_rows(), sigma.n
        step, fields = width + 1, len(rows) + n
        self.width, self.mask = width, (1 << width) - 1
        self.guard = sum(1 << (k * step + width) for k in range(fields))
        self.shifts = [(n - 1 - j) * step for j in range(n)]  # of the exponent fields
        tops = [(fields - 1 - k) * step for k in range(len(rows))]
        self.units = [  # the code of each indeterminate
            sum(row[j] << at for row, at in zip(rows, tops)) + (1 << at_j)
            for j, at_j in enumerate(self.shifts)
        ]

    def overflow(self):
        return OverflowError(
            "a power product overflows the %d-bit fields of the monomial codes" % self.width
        )

    def encode(self, pp):
        c = sum(map(mul, pp, self.units))
        if c & self.guard:
            raise self.overflow()
        return c

    def decode(self, c):
        mask = self.mask
        return tuple([c >> at & mask for at in self.shifts])

    def divides(self, s, t):
        guard = self.guard
        return (t | guard) - s & guard == guard

    def lcm(self, s, t):
        return self.encode(map(max, self.decode(s), self.decode(t)))

    def encode_terms(self, terms):
        encode = self.encode
        return {encode(t): c for t, c in terms.items()}

    def decode_terms(self, terms):
        decode = self.decode
        return {decode(t): c for t, c in terms.items()}

    def entry(self, e):
        """The reducer entry e with its power products encoded."""
        lt, lc, tail, pos = e
        encode = self.encode
        return encode(lt), lc, [(encode(s), a) for s, a in tail], pos

    def decoded(self, e):
        lt, lc, tail, pos = e
        decode = self.decode
        return decode(lt), lc, [(decode(s), a) for s, a in tail], pos


def _width(polys, *orderings):
    """The field width of a run whose inputs are the polynomials polys, for
    codes under each of the orderings: the bit length of the largest field
    of the lcm of their power products, plus _HEADROOM."""
    top = [0] * orderings[0].n
    for f in polys:
        if f.terms:
            top = list(map(max, top, *f.terms))
    weights = [sum(map(mul, row, top)) for o in orderings for row in o.weight_rows()]
    largest = max(top + weights, default=0)
    return largest.bit_length() + _HEADROOM


def _codes(sigma, polys):
    """The sigma-codes of a run whose inputs are the polynomials polys."""
    return _Codes(sigma, _width(polys, sigma))


class _Work:
    """A polynomial under reduction, terms / scale: its terms in a dict keyed
    by sigma-code beside a heap of negated codes, so the sigma-largest term
    pops first.  A popped code no longer in the dict (cancelled, or a
    duplicate of a term already handled, which sits next to it) is stale and
    skipped.  The scale stays 1 over F_p."""

    __slots__ = ("terms", "heap", "codes", "p", "scale")

    def __init__(self, terms, codes, p, scale=1):
        self.terms, self.codes, self.p, self.scale = terms, codes, p, scale
        self.heap = [-t for t in terms]
        heapq.heapify(self.heap)

    def sub(self, factor, shift, tail):
        """terms -= factor * x^shift * tail, in place.  A new product that
        sets a guard bit raises OverflowError; a product already among the
        terms cannot have set one."""
        terms, heap, p = self.terms, self.heap, self.p
        guard = self.codes.guard
        for s, a in tail:
            u = s + shift
            v = terms.get(u)
            if v is None:
                if u & guard:
                    raise self.codes.overflow()
                v = -factor * a
                heapq.heappush(heap, -u)
            else:
                v -= factor * a
            if p:
                v %= p
            if v:
                terms[u] = v
            else:
                del terms[u]


def _integral(f):
    """(terms, scale) of f as the engine holds it: its residues and 1 over
    F_p, the integer polynomial den(f) * f and den(f) over QQ.  Every
    polynomial enters the engine here, so this one check keeps ZZ out."""
    if f.ring.domain.characteristic:
        return dict(f.terms), 1
    if f.ring.domain is not QQ:
        raise ValueError("ZZ is not a field: use strong_gb (modgb strong-gb) over ZZ")
    d = den(f)
    return {t: c.numerator * (d // c.denominator) for t, c in f.terms.items()}, d


def _polynomial(ring, terms, scale=1):
    """The polynomial terms / scale: residues as they are, Fractions over QQ."""
    if ring.domain.characteristic:
        return Polynomial._raw(ring, terms)
    return Polynomial._raw(ring, {t: Fraction(c, scale) for t, c in terms.items()})


def _entry(terms, lt, pos, p):
    """Reducer entry (leading term, leading coefficient, tail, position) of
    the polynomial with these terms: monic over F_p, primitive with a
    positive leading coefficient over QQ."""
    lc = terms[lt]
    if p:
        inv = pow(lc, -1, p)
        return lt, 1, [(s, a * inv % p) for s, a in terms.items() if s != lt], pos
    g = gcd(*terms.values())
    if lc < 0:
        g = -g
    return lt, lc // g, [(s, a // g) for s, a in terms.items() if s != lt], pos


def _basis(ring, sigma, entries, codes):
    """The ReducedGB of the monic polynomials of encoded reducer entries,
    sigma-smallest first, which it keeps, decoded, instead of building them
    again."""
    G = ReducedGB.__new__(ReducedGB)
    G.ordering, G.entries = sigma, [codes.decoded(e) for e in entries]
    G.elements = [_polynomial(ring, dict([e[:2]] + e[2]), e[1]) for e in G.entries]
    return G


def _reducer(g, pos, sigma):
    """Reducer entry of the polynomial g at list position pos."""
    return _entry(_integral(g)[0], leading(g, sigma)[0], pos, g.ring.domain.characteristic)


def _coded(g, pos, codes):
    """Encoded reducer entry of the nonzero polynomial g at list position pos."""
    terms = codes.encode_terms(_integral(g)[0])
    return _entry(terms, max(terms), pos, g.ring.domain.characteristic)


def _reducers(polys, sigma, codes):
    """Encoded reducer entries with the deterministic choice rule:
    sigma-smallest leading term first, ties broken by list position.  A
    reduced sigma-basis keeps them."""
    if isinstance(polys, ReducedGB) and (polys.ordering is sigma or polys.ordering == sigma):
        return [codes.entry(e) for e in polys.entries]
    entries = [_coded(g, pos, codes) for pos, g in enumerate(polys)]
    entries.sort(key=itemgetter(0))
    return entries


def _divide_content(work, *parts):
    """Divide the work's scale and the term dicts parts by the gcd of them all."""
    g = gcd(work.scale, *(c for d in parts for c in d.values()))
    if g > 1:
        work.scale //= g
        for d in parts:
            for t in d:
                d[t] //= g


def _reduce(work, reducers, full=True, on_step=None):
    """Reduce a _Work in place, each step by the first applicable reducer.

    With full=False reduction stops at the first irreducible head and the
    remaining term dict, head included, is returned; otherwise the
    irreducible terms are returned as a new dict, whose content is then
    divided out together with the scale.  Either way the result stands for
    its terms / work.scale.  on_step(pos, shift, factor, scale) sees each
    step, which subtracts factor / scale * x^shift times the monic
    polynomial of the reducer at position pos.

    A step by a reducer with leading coefficient lc = 1, as every F_p
    reducer has, subtracts c * x^shift * tail.  Otherwise it is the
    pseudo-division step of the module docstring: the work, the terms
    already returned and the scale are multiplied by lc / gcd(c, lc), which
    keeps the scale exact, and the content is divided out whenever the scale
    has grown by _GROWTH bits.
    """
    terms, heap, p = work.terms, work.heap, work.p
    guard = work.codes.guard
    steps = _ACTIVE.get()
    out = {}
    limit = work.scale.bit_length() + _GROWTH
    while heap:
        t = -heapq.heappop(heap)
        c = terms.get(t)
        if c is None:
            continue
        th = t | guard
        for lt, lc, tail, pos in reducers:
            if th - lt & guard == guard:  # lt divides t
                break
        else:
            if not full:
                return terms
            out[t] = terms.pop(t)
            continue
        del terms[t]
        if steps is not None:
            steps.spend()
        shift = t - lt
        if on_step is not None:
            on_step(pos, shift, c, work.scale)
        if lc == 1:
            work.sub(c, shift, tail)
            continue
        g = gcd(c, lc)
        if g != lc:
            m = lc // g
            for s in terms:
                terms[s] *= m
            for s in out:
                out[s] *= m
            work.scale *= m
        work.sub(c // g, shift, tail)
        if work.scale.bit_length() > limit:
            _divide_content(work, terms, out)
            limit = work.scale.bit_length() + _GROWTH
    if not full:
        return terms
    if work.scale != 1:
        _divide_content(work, out)
    return out


def normal_form(f, G, sigma):
    """Full normal form of f against the polynomials G, which must lie in f's
    ring (deterministic reducer choice).  Zero polynomials in G are dropped."""
    if not isinstance(G, ReducedGB):
        G = [g for g in G if not g.is_zero()]
    if not G:
        return f
    if any(g.ring != f.ring for g in G):
        raise ValueError("the polynomial and the basis lie in different rings")
    p = f.ring.domain.characteristic
    terms, scale = _integral(f)
    codes = _codes(sigma, [f, *G])
    work = _Work(codes.encode_terms(terms), codes, p, scale)
    r = _reduce(work, _reducers(G, sigma, codes))
    return _polynomial(f.ring, codes.decode_terms(r), work.scale)


def _divide(work, reducers, row, reps, full=True):
    """_reduce that also tracks coefficients: returns the remainder and
    row - sum_k q_k * reps[k], q_k the quotient by the monic polynomial of
    the reducer at position k.

    When row is the coefficient vector of the work polynomial, terms /
    scale, so is the returned one of the remainder over its final scale.
    """
    quotients = {}
    decode = work.codes.decode

    def record(pos, shift, factor, scale):
        quotients.setdefault(pos, []).append(
            (decode(shift), factor if scale == 1 else Fraction(factor, scale))
        )

    r = _reduce(work, reducers, full, record)
    for pos, terms in quotients.items():
        q = row[0].ring.from_terms(terms)
        row = [x - q * y for x, y in zip(row, reps[pos])]
    return r, row


def _s_work(ra, rb, l, codes, p):
    """The S-polynomial of the monic polynomials of two encoded reducer
    entries, whose leading terms have the lcm l, as a _Work: their leading
    terms cancel, so it is built from the shifted tails.  Over QQ its terms
    are lcm(lc_a, lc_b) times the S-polynomial, and that lcm is its scale."""
    (lta, lca, taila, _), (ltb, lcb, tailb, _) = ra, rb
    g = gcd(lca, lcb)
    ma, mb = lcb // g, lca // g
    work = _Work({}, codes, p, ma * lca)
    work.sub(-ma, l - lta, taila)
    work.sub(mb, l - ltb, tailb)
    return work


def _gm_update(lms, exps, pairs, j, codes):
    """Gebauer and Moeller's pair update ("On an installation of
    Buchberger's algorithm", JSC 1988) when basis element j is appended.

    lms are the leading monomials (code, c) of the basis elements, c > 0,
    and exps the exponent tuples of their terms.  Over a field every c is
    1, a unit; over ZZ (gb_integer) c is the leading coefficient.  The lcm
    of two leading monomials is (code of the lcm of their terms, lcm of
    their c), and one divides another when its term and its c both do.
    With L_ij the lcm of lm_i and lm_j:

    - B: a queued pair (a, b) is dropped when lm_j divides L_ab and L_ab
      differs from both L_aj and L_bj;
    - M: a new pair (i, j) is dropped when another new pair's lcm properly
      divides L_ij;
    - F: of the new pairs left with one lcm, the one of least i is kept,
      and none when one of them meets the product criterion (coprime terms
      and coprime c, so that L_ij = lm_i * lm_j).

    pairs maps each queued pair to its lcm; B drops from it in place.  The
    new pairs (i, j) that M and F keep are returned with their lcms, in
    increasing order, which puts every divisor of an lcm before it: so M
    checks only the lcms kept so far.
    """
    (ltj, cj), ej, guard, encode = lms[j], exps[j], codes.guard, codes.encode
    lcms = [(encode(map(max, e, ej)), lcm(c, cj)) for (_, c), e in zip(lms, exps[:j])]
    for (a, b), m in list(pairs.items()):  # B
        if m[1] % cj == 0 and (m[0] | guard) - ltj & guard == guard and lcms[a] != m != lcms[b]:
            del pairs[a, b]
    by_lcm = {}
    for i, m in enumerate(lcms):
        by_lcm.setdefault(m, []).append(i)
    minimal = []
    for l, c in sorted(by_lcm):  # M
        lg = l | guard
        if all(c % c2 or lg - l2 & guard != guard for l2, c2 in minimal):
            minimal.append((l, c))
    return [  # F
        ((by_lcm[m][0], j), m)
        for m in minimal
        if not any(m == (lms[i][0] + ltj, lms[i][1] * cj) for i in by_lcm[m])
    ]


def buchberger(gens, codes, reps=None):
    """The encoded reducer entries, in insertion order, of a (not reduced)
    Groebner basis of the ideal generated by gens.  codes fix the ordering;
    they are those of a run whose inputs include gens.

    S-pairs are taken by the sugar strategy (Giovini-Mora-Niesi-Robbiano-
    Traverso 1991): least sugar first, then the sigma-smallest lcm, then
    the pair index.  An input generator's sugar is its total degree, a
    pair's is max(sugar_a - deg lt_a, sugar_b - deg lt_b) + deg lcm, and an
    element appended from a pair inherits the pair's sugar.

    Head reduction uses the first-inserted applicable basis element.  When a
    list reps is given, it receives the coefficients in gens of each
    element's monic polynomial b_k: b_k == sum(reps[k][i] * gens[i]).
    """
    gens = list(gens)
    live = [f for f in gens if not f.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    dom, p = ring.domain, ring.domain.characteristic
    entries = []
    lms = []  # the leading monomials (code, 1) of _gm_update
    exps = []
    sugar = []
    pairs = {}  # the queued pairs: (a, b) -> their lcm (code, 1)
    heap = []

    def append(terms, lt, scale, f_sugar, rep):
        """Append the polynomial terms / scale, whose coefficients in gens are rep."""
        entries.append(_entry(terms, lt, len(entries), p))
        lms.append((lt, 1))
        exps.append(codes.decode(lt))
        sugar.append(f_sugar)
        if reps is not None:
            inv = dom.invert(dom.coerce(Fraction(terms[lt], scale)))
            reps.append([x.scale(inv) for x in rep])
        for (a, b), m in _gm_update(lms, exps, pairs, len(entries) - 1, codes):
            pairs[a, b] = m
            l = m[0]
            pair_sugar = max(sugar[a] - sum(exps[a]), sugar[b] - sum(exps[b]))
            pair_sugar += sum(codes.decode(l))
            heapq.heappush(heap, (pair_sugar, l, (a, b)))

    for i, f in enumerate(gens):
        if not f.is_zero():
            unit = None
            if reps is not None:
                unit = [ring.one() if k == i else ring.zero() for k in range(len(gens))]
            terms, scale = _integral(f)
            coded = codes.encode_terms(terms)
            append(coded, max(coded), scale, max(map(sum, terms)), unit)

    one = dom.one
    while heap:
        pair_sugar, l, (a, b) = heapq.heappop(heap)
        if pairs.pop((a, b), None) is None:
            continue
        work = _s_work(entries[a], entries[b], l, codes, p)
        rep = None
        if reps is None:
            s = _reduce(work, entries, full=False)
        else:
            sa, sb = codes.decode(l - entries[a][0]), codes.decode(l - entries[b][0])
            rep = [x.mul_term(sa, one) - y.mul_term(sb, one) for x, y in zip(reps[a], reps[b])]
            s, rep = _divide(work, entries, rep, reps, full=False)
        if s:
            append(s, max(s), work.scale, pair_sugar, rep)
    return entries


def buchberger_reduced(gens, sigma):
    """The unique reduced sigma-Groebner basis of the ideal generated by gens.

    Returns the empty basis for the zero ideal and [1] for the unit ideal.
    """
    gens = list(gens)
    codes = _codes(sigma, gens)
    entries = buchberger(gens, codes)
    if not entries:
        return ReducedGB(sigma, [])
    # the minimal basis, as reducers in increasing leading-term order
    minimal = []
    for r in sorted(entries, key=itemgetter(0)):
        if not any(codes.divides(m[0], r[0]) for m in minimal):
            minimal.append(r)
    # Each element's tail, over its leading coefficient, is reduced against
    # all of them: its own leading term divides none of the (smaller) terms
    # met on the way.
    ring = gens[0].ring
    p = ring.domain.characteristic
    reduced = []
    for lt, lc, tail, _ in minimal:
        work = _Work(dict(tail), codes, p, lc)
        r = _reduce(work, minimal)
        # r and its scale have no common factor, so this entry is primitive
        reduced.append((lt, work.scale, list(r.items()), len(reduced)))
    return _basis(ring, sigma, reduced, codes)


def is_zero_dimensional(G):
    """True when every variable has a pure power among G's leading terms."""
    pure = {i for t in G.leading_terms() for i, e in enumerate(t) if e and e == sum(t)}
    return bool(G.elements) and len(pure) == G[0].ring.n


def fglm(G, tau):
    """The reduced tau-basis of a zero-dimensional ideal from its reduced
    basis G (Faugere-Gianni-Lazard-Mora change of ordering).

    Monomials are visited in increasing tau order, skipping multiples of the
    tau-leading terms found so far; each visited m other than 1 is x_i times
    an earlier one, its parent.  The G-normal form of m is eliminated
    against the echelon rows of those visited before it.  Each row carries
    its combination of their monomials, so when a normal form eliminates to
    zero, its combination gives the element m - sum c_j m_j.  Only the normal
    forms spend budget steps, the elimination none.  The walk and the
    combinations hold tau-codes, the normal forms sigma-codes, both of one
    width.

    There are two bodies of the step, chosen by the characteristic:
    _fraction_free_rows over QQ, and _packed_rows over F_p, whose vectors
    are ints with slots wide enough that none carries before its reduction
    mod p.  Each takes G and its sigma-codes.

    Raises ValueError when G has infinitely many standard monomials, where
    the walk would never end: when G lacks a pure power of some variable
    and does not hold 1 (a positive-dimensional or zero ideal).
    """
    if not is_zero_dimensional(G) and all(map(any, G.leading_terms())):
        raise ValueError("fglm needs a zero-dimensional ideal: infinitely many standard monomials")
    ring = G[0].ring
    p = ring.domain.characteristic
    width = _width(G, G.ordering, tau)
    visit = (_packed_rows if p else _fraction_free_rows)(G, _Codes(G.ordering, width))
    codes = _Codes(tau, width)
    guard = codes.guard
    entries, lts, rows = [], [], 0
    heap, seen = [(0, None, 0)], {0}  # the monomial 1 has code 0
    while heap:
        m, parent, i = heapq.heappop(heap)
        mg = m | guard
        if any(mg - lt & guard == guard for lt in lts):
            continue
        comb = visit(m, parent, i)
        if comb is not None:
            lts.append(m)
            entries.append(_entry(comb, m, len(entries), p))
            continue
        for j, unit in enumerate(codes.units):
            u = m + unit
            if u not in seen:
                if u & guard:
                    raise codes.overflow()
                seen.add(u)
                heapq.heappush(heap, (u, rows, j))
        rows += 1
    return _basis(ring, tau, entries, codes)


def _fraction_free_rows(G, codes):
    """fglm's step over QQ: visit(m, parent, i) returns m's combination when
    its normal form eliminates to zero, else keeps it as a new row.

    A normal form is kept as the engine holds it, sigma-coded terms with one
    scale, and NF(x_i * m) is that of m, shifted by x_i and reduced again;
    the combinations are keyed by the walk's tau-codes.  A row with pivot
    coefficient a eliminates the entry f of a vector by multiplying the
    vector and its combination by a / gcd(a, f) and subtracting
    f / gcd(a, f) times the row; a new row is made primitive.
    """
    reducers = [codes.entry(e) for e in G.entries]
    heads, guard, units = [e[0] for e in reducers], codes.guard, codes.units
    rows = []  # (pivot, pivot coefficient, echelon row, combination, normal form, its scale)

    def subtract(v, f, w):
        """v -= f * w, in place."""
        for t, a in w.items():
            c = v.get(t, 0) - f * a
            if c:
                v[t] = c
            else:
                v.pop(t, None)

    def multiply(f, d, *vs):
        """v = v * f / d, in place, for each v in vs."""
        for v in vs:
            for t in v:
                v[t] = v[t] * f // d

    def visit(m, parent, i):
        if parent is None:
            nf, s = {0: 1}, 1  # the monomial 1, code 0
        else:
            # a standard monomial of G stays below G's pure powers, so the
            # shift by x_i cannot overflow
            nf, s = rows[parent][4:]
            x = units[i]
            nf = {t + x: c for t, c in nf.items()}
        if any((t | guard) - lt & guard == guard for t in nf for lt in heads):
            work = _Work(nf, codes, 0, s)
            nf, s = _reduce(work, reducers), work.scale
        # v = sum comb[m_j] * NF(m_j): v is the normal form times its scale
        v, comb = dict(nf), {m: s}
        for pivot, a, w, wc, _, _ in rows:
            f = v.get(pivot)
            if f:
                g = gcd(a, f)
                if g != a:
                    multiply(a // g, 1, v, comb)
                subtract(v, f // g, w)
                subtract(comb, f // g, wc)
        if not v:
            return comb
        pivot = next(iter(v))
        multiply(1 if v[pivot] > 0 else -1, gcd(*v.values(), *comb.values()), v, comb)
        rows.append((pivot, v[pivot], v, comb, nf, s))

    return visit


def _packed_rows(G, codes):
    """fglm's step over F_p, on vectors packed into ints: visit(m, parent, i)
    returns m's combination when its normal form eliminates to zero, else
    keeps it as a new row.

    A vector over the D standard monomials of G is one int, slot k at bits
    [kW, (k+1)W).  Entries stay non-negative (v - f*w is added as
    v + (p - f)*w) and W >= 2 bitlen(p) + bitlen(2D + 2), so no slot carries
    before it is reduced mod p: a normal form adds up at most D products of
    residues, and the elimination at most D more.  (W is computed with the
    bound box >= D, the product of the exponents of G's pure powers.)
    NF(x_i * m) is sum c_k NF(x_i * b_k) over the residues c_k of NF(m);
    each column NF(x_i * b_k) is built once, on first use: a unit vector
    when x_i * b_k is standard, minus the tail when it is a leading term of
    G, else reduced (spending budget steps).  A row keeps the inverse of its
    pivot entry, and eliminating an entry costs one multiply-add on the
    vector and one on its combination.
    """
    ring = G[0].ring
    p = ring.domain.characteristic
    reducers = [codes.entry(e) for e in G.entries]
    units = codes.units
    tails = {e[0]: e[2] for e in reducers}
    box = prod(max(t) for t in G.leading_terms() if max(t) == sum(t))
    B = (2 * p.bit_length() + (2 * box + 2).bit_length() + 7) // 8  # bytes per slot
    W, mask = 8 * B, (1 << 8 * B) - 1
    slot, cols = {}, [{} for _ in range(ring.n)]  # standard monomial's code -> its slot
    rows, ms = [], []  # (NF terms, pivot offset, its inverse, row, combination); monomials

    def pack(terms):
        """The vector of (standard monomial, residue) pairs; new monomials get the next slots."""
        return sum(c << slot.setdefault(t, len(slot)) * W for t, c in terms)

    def join(residues):
        return int.from_bytes(b"".join([c.to_bytes(B, "little") for c in residues]), "little")

    def split(v, size):
        """The first size slots of v, mod p."""
        return [(v >> k & mask) % p for k in range(0, size * W, W)]

    def column(i, t):
        u = t + units[i]
        if u in tails:
            x = pack((s, p - a) for s, a in tails[u])
        else:  # a standard u is its own normal form, with no step spent
            x = pack(_reduce(_Work({u: 1}, codes, p), reducers).items())
        cols[i][t] = x
        return x

    def visit(m, parent, i):
        if parent is None:
            v = pack([(0, 1)])  # the monomial 1, code 0
        else:
            v, col = 0, cols[i]
            for t, c in rows[parent][0]:
                x = col.get(t)
                v += c * (column(i, t) if x is None else x)
        nf, r = v, len(rows)
        comb = 1 << r * W
        for _, at, inv, w, wc in rows:
            f = (v >> at & mask) * inv % p
            if f:
                v += (p - f) * w
                comb += (p - f) * wc
        cs, vs = split(comb, r + 1), split(v, len(slot))
        if not any(vs):
            return {t: c for t, c in zip(ms + [m], cs) if c}
        k = next(k for k, c in enumerate(vs) if c)
        nf = [(t, c) for t, c in zip(slot, split(nf, len(slot))) if c]
        rows.append((nf, k * W, pow(vs[k], -1, p), join(vs), join(cs)))
        ms.append(m)

    return visit


def _convert(G, tau):
    """The reduced tau-basis of G's ideal: G relabelled if each element keeps its
    leading term under tau (<lt_tau G> = in(I) lies in in_tau(I), and both
    standard-monomial sets are bases of R/I, so they agree), else by FGLM if
    G is zero-dimensional, else by Buchberger."""
    lts = G.leading_terms()
    if all(leading(g, tau)[0] == lt for g, lt in zip(G, lts)):
        return ReducedGB(tau, [g for _, g in sorted(zip(lts, G), key=lambda e: tau.key(e[0]))])
    if is_zero_dimensional(G):
        return fglm(G, tau)
    return buchberger_reduced(G.elements, tau)


def min_lt(G):
    """MinLT: the set of leading terms of the reduced basis G, which marks its
    Groebner-fan cone.

    Within one ideal the leading terms alone fix the reduced basis, since
    they generate its initial ideal.  The basis alone does not mark a cone:
    {x + y} is the reduced basis of two cones, marked by x in one and by y
    in the other.
    """
    return frozenset(G.leading_terms())


def s_polynomial(f, g, sigma):
    """S-polynomial of f and g (field coefficients)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    p = f.ring.domain.characteristic
    codes = _codes(sigma, [f, g])
    ra, rb = _coded(f, 0, codes), _coded(g, 0, codes)
    work = _s_work(ra, rb, codes.lcm(ra[0], rb[0]), codes, p)
    return _polynomial(f.ring, codes.decode_terms(work.terms), work.scale)


def is_groebner(basis, sigma):
    """Buchberger's criterion on the S-pairs that the product and chain
    criteria keep, over the reducer entries taken sigma-smallest first: all
    reduce to zero."""
    if not isinstance(basis, ReducedGB):
        basis = [g for g in basis if not g.is_zero()]
    codes = _codes(sigma, basis)
    entries = _reducers(basis, sigma, codes)
    lms, exps, pairs = [], [], {}
    for j, e in enumerate(entries):
        lms.append((e[0], 1))
        exps.append(codes.decode(e[0]))
        pairs.update(_gm_update(lms, exps, pairs, j, codes))
    if not pairs:
        return True
    p = basis[0].ring.domain.characteristic
    return not any(
        _reduce(_s_work(entries[a], entries[b], l, codes, p), entries, full=False)
        for (a, b), (l, _) in pairs.items()
    )


# ---------------------------------------------------------------------------
# representation of a basis in terms of the original generators


def represent(G, F, sigma):
    """Matrix M (as a list of columns over F) with G = F * M.

    Each column is a list of polynomials, one per element of F.  Raises
    ValueError when some element of G is not in the ideal generated by F.
    """
    F, G = list(F), list(G)
    codes = _codes(sigma, F + G)
    reps = []
    reducers = sorted(buchberger(F, codes, reps=reps), key=itemgetter(0))
    zeros = [f.ring.zero() for f in F]
    columns = []
    for g in G:
        terms, scale = _integral(g)
        work = _Work(codes.encode_terms(terms), codes, g.ring.domain.characteristic, scale)
        r, rep = _divide(work, reducers, zeros, reps)
        if r:
            raise ValueError("element is not in the ideal generated by F")
        # g == sum (-rep_i) F_i, so the column is -rep
        columns.append([-x for x in rep])
    return columns
