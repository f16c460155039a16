"""Ordered interreduced tuples of leading terms, their comparison, and the
count of the monomials that no leading term divides."""

from .poly import leading, pp_divides, pp_str

PRECEDES, EQUAL, FOLLOWS = -1, 0, 1


class LtTuple:
    """A strictly increasing, pairwise non-divisible tuple of power products."""

    __slots__ = ("ordering", "entries")

    def __init__(self, ordering, entries):
        entries = tuple(entries)
        for a, b in zip(entries, entries[1:]):
            if not ordering.greater(b, a):
                raise ValueError("entries are not strictly increasing")
        for i, t in enumerate(entries):
            for j, s in enumerate(entries):
                if i != j and pp_divides(t, s):
                    raise ValueError("entries are not interreduced")
        self.ordering = ordering
        self.entries = entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, LtTuple)
            and self.ordering == other.ordering
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ordering, self.entries))

    def render(self, names):
        return "[" + ", ".join(pp_str(t, names) for t in self.entries) + "]"

    def __repr__(self):
        return "LtTuple(%r)" % (self.entries,)


def interreduce(pps):
    """Unique maximal divisibility-antichain subset of a set of power products."""
    pps = set(pps)
    return {t for t in pps if not any(s != t and pp_divides(s, t) for s in pps)}


def ordered_tuple(pps, sigma):
    """Interreduce and sort increasingly under sigma."""
    return LtTuple(sigma, sigma.sorted(interreduce(pps)))


def os_of_polys(F, sigma):
    """Sigma-ordered interreduced tuple of the leading terms of F."""
    return ordered_tuple([leading(f, sigma)[0] for f in F], sigma)


def os_of_ideal(I, sigma):
    """Sigma-ordered tuple of the minimal generators of the leading-term ideal."""
    G = I.reduced_gb(sigma)
    return LtTuple(sigma, G.leading_terms())


def precedes(T1, T2):
    """Compare tuples lexicographically, the tuple end acting as a maximal entry.

    Returns PRECEDES when T1 comes strictly before T2 (T1 is the "worse" one).
    """
    if T1.ordering != T2.ordering:
        raise ValueError("tuples use different orderings")
    sigma = T1.ordering
    for a, b in zip(T1.entries, T2.entries):
        if a != b:
            return PRECEDES if sigma.greater(b, a) else FOLLOWS
    if len(T1) == len(T2):
        return EQUAL
    # the longer tuple extends the shorter, so the longer one precedes
    return PRECEDES if len(T1) > len(T2) else FOLLOWS


def tuple_max(tuples):
    """The tuple preceded by every other one (the running "best")."""
    best = None
    for t in tuples:
        if best is None or precedes(best, t) == PRECEDES:
            best = t
    return best


def lessthan_witness(T, T_prime):
    """Witness (k, t') certifying that the tuple of T' precedes T, if one exists.

    t' is the sigma-smallest element of T' not divisible by any entry of T;
    k is the largest index usable with it (the first entry of T missing from
    T', capped at the length of T).  Returns None when the hypotheses cannot
    be satisfied.
    """
    sigma = T.ordering
    T_prime = set(T_prime)
    free = [t for t in T_prime if not any(pp_divides(ti, t) for ti in T.entries)]
    if not free:
        return None
    t_min = sigma.min(free)
    # smallest index j with T[j] > t_min (1-based)
    j = next((i + 1 for i, ti in enumerate(T.entries) if sigma.greater(ti, t_min)), None)
    if j is None:
        return None
    prefix = next(
        (i + 1 for i, ti in enumerate(T.entries) if ti not in T_prime), len(T) + 1
    )
    k = min(prefix, len(T))
    if j > k:
        return None
    return k, t_min


def count_standard(lts, n, bound=None):
    """The number of monomials in n variables that no term of lts divides, or
    None once it passes bound (so also when it is infinite).

    One walk over slices: the standard monomials with x_n^k are x_n^k times
    those of the slice {t / x_n^j : t in lts, j = t_n <= k} in the first n - 1
    variables.  The slice changes only at the x_n-exponents of lts, so each run
    of equal slices is counted once however long it is, and every slice below
    the pure power of x_n counts at least one monomial.
    """
    if any(not any(t) for t in lts):
        return 0
    if n == 0:
        return 1 if bound is None or bound >= 1 else None
    i = n - 1
    top = min((t[i] for t in lts if not any(t[:i])), default=None)
    if top is None:
        return None
    levels = sorted({0, top, *(t[i] for t in lts if t[i] < top)})
    total = 0
    for a, b in zip(levels, levels[1:]):
        sub_bound = None if bound is None else (bound - total) // (b - a)
        sub = count_standard([t[:i] for t in lts if t[i] <= a], i, sub_bound)
        if sub is None:
            return None
        total += sub * (b - a)
    return total
