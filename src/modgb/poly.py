"""Multivariate polynomials with exact coefficients in QQ, ZZ or F_p."""

import math
from fractions import Fraction
from operator import add, le

from .arith import is_prime


class BadPrimeForInput(ValueError):
    """Raised when reducing modulo p a coefficient whose denominator p divides;
    it carries p and that denominator, the witness of a sigma-bad verdict."""

    def __init__(self, p, denominator):
        super().__init__("prime %d divides the denominator %d" % (p, denominator))
        self.p = p
        self.denominator = denominator


# ---------------------------------------------------------------------------
# coefficient domains


class _Rationals:
    name = "QQ"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, c):
        return Fraction(c)

    def invert(self, c):
        return 1 / c

    def __repr__(self):
        return "QQ"


class _Integers:
    name = "ZZ"
    characteristic = 0
    zero = 0
    one = 1

    def coerce(self, c):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError("%s is not an integer" % c)
            return c.numerator
        return int(c)

    def invert(self, c):
        # the field engine does not invert (it reduces QQ fraction-free); it
        # refuses ZZ by its own domain check, where a polynomial enters it
        raise ValueError("ZZ is not a field: use strong_gb (modgb strong-gb) over ZZ")

    def __repr__(self):
        return "ZZ"


def _require_prime(p):
    if not is_prime(p):
        raise ValueError("%s is not prime" % p)


class PrimeField:
    """F_p with residues stored as plain ints in [0, p)."""

    def __init__(self, p):
        _require_prime(p)
        self.p = p
        self.name = "ZZ/(%d)" % p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, c):
        if isinstance(c, Fraction):
            if c.denominator % self.p == 0:
                raise BadPrimeForInput(self.p, c.denominator)
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        return int(c) % self.p

    def invert(self, c):
        return pow(c, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = _Rationals()
ZZ = _Integers()


def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# rings and polynomials


class PolyRing:
    """A polynomial ring descriptor: coefficient domain plus named variables."""

    def __init__(self, domain, names):
        names = tuple(names)
        if len(set(names)) != len(names) or not names or any(not s for s in names):
            raise ValueError("indeterminate names must be distinct and non-empty")
        self.domain = domain
        self.names = names
        self.n = len(names)
        self._zero_pp = (0,) * self.n

    def zero(self):
        return self.from_terms(())

    def one(self):
        return self.const(1)

    def const(self, c):
        return self.from_terms([(self._zero_pp, c)])

    def var(self, i):
        return self.from_terms([(tuple(1 if j == i else 0 for j in range(self.n)), 1)])

    def gens(self):
        return [self.var(i) for i in range(self.n)]

    def from_terms(self, terms):
        """Build a polynomial from an iterable of (exponent tuple, coefficient).

        This is the coefficient rule of the ring: equal exponents merge, each
        coefficient is coerced into the domain (reduced mod p over F_p, where
        a denominator divisible by p raises BadPrimeForInput) and zeros are
        dropped.  Every polynomial outside the two engines is built here,
        the public Polynomial(ring, terms) included.
        """
        d = {}
        zero, coerce = self.domain.zero, self.domain.coerce
        for pp, c in terms:
            pp = tuple(pp)
            if len(pp) != self.n or min(pp) < 0:
                raise ValueError("bad exponent tuple %r" % (pp,))
            c = coerce(d[pp] + c) if pp in d else coerce(c)
            if c == zero:
                d.pop(pp, None)
            else:
                d[pp] = c
        return Polynomial._raw(self, d)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.domain == other.domain
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.domain.name, self.names))

    def __repr__(self):
        return "%s[%s]" % (self.domain.name, ",".join(self.names))


def pp_mul(t, s):
    return tuple(map(add, t, s))


def pp_divides(s, t):
    return all(map(le, s, t))


class Polynomial:
    """Immutable sparse polynomial: a map from exponent tuples to coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        """The polynomial of the dict terms, under PolyRing.from_terms's rule."""
        self.ring = ring
        self.terms = ring.from_terms(terms.items()).terms

    @staticmethod
    def _raw(ring, terms):
        """The polynomial with exactly these terms, which must already be
        merged, coerced and nonzero (the engines' boundaries)."""
        f = object.__new__(Polynomial)
        f.ring = ring
        f.terms = terms
        return f

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _terms_of(self, other):
        """The terms of other, an operand that must lie in the ring of self."""
        if other.ring != self.ring:
            raise ValueError("operands from different rings: %r and %r" % (self.ring, other.ring))
        return other.terms.items()

    def __add__(self, other):
        return self.ring.from_terms([*self.terms.items(), *self._terms_of(other)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = self._terms_of(other)
        return self.ring.from_terms(
            (pp_mul(s, t), a * b) for s, a in self.terms.items() for t, b in terms
        )

    def scale(self, c):
        """Multiply by a scalar from the coefficient domain."""
        return self.mul_term(self.ring._zero_pp, c)

    def mul_term(self, pp, c):
        """Multiply by the monomial c * x^pp."""
        c = self.ring.domain.coerce(c)
        return self.ring.from_terms((pp_mul(t, pp), a * c) for t, a in self.terms.items())

    def sorted_terms(self, sigma):
        return sorted(self.terms.items(), key=lambda kv: sigma.key(kv[0]), reverse=True)

    def __repr__(self):
        return "Polynomial(%r, %r)" % (self.ring, self.terms)


def leading(f, sigma):
    """(leading power product, leading coefficient) of f under sigma."""
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    pp = max(f.terms, key=sigma.key)
    return pp, f.terms[pp]


def monic(f, sigma):
    """Divide f by its leading coefficient (field coefficients only)."""
    pp, c = leading(f, sigma)
    if c == f.ring.domain.one:
        return f
    return f.scale(f.ring.domain.invert(c))


def den(f):
    """Positive lcm of the coefficient denominators; den(0) = 1."""
    if f.ring.domain is not QQ:
        raise ValueError("den is defined for rational coefficients only")
    return math.lcm(*(c.denominator for c in f.terms.values()))


def den_of_set(polys):
    """den of a set of polynomials: lcm of the individual denominators."""
    return math.lcm(*map(den, polys))


def content(f):
    """Positive integer content of a polynomial over ZZ."""
    if f.ring.domain is not ZZ:
        raise ValueError("content is defined over ZZ")
    return math.gcd(*f.terms.values())


def prim(f, sigma):
    """Primitive integral part: f scaled to ZZ with content 1 and positive LC.

    The sign convention (positive leading coefficient under sigma) makes
    the result deterministic; scaling f by any nonzero rational does not
    change it.
    """
    if f.is_zero():
        raise ValueError("prim of the zero polynomial is undefined")
    if f.ring.domain is QQ:
        d = den(f)
        int_terms = {pp: c.numerator * (d // c.denominator) for pp, c in f.terms.items()}
    elif f.ring.domain is ZZ:
        int_terms = f.terms
    else:
        raise ValueError("prim needs coefficients in QQ or ZZ")
    g = math.gcd(*int_terms.values())
    if leading(f, sigma)[1] < 0:
        g = -g
    return PolyRing(ZZ, f.ring.names).from_terms((pp, c // g) for pp, c in int_terms.items())


def reduce_mod_p(f, p):
    """Coefficientwise image of f in F_p; raises BadPrimeForInput if p | den(f)."""
    return PolyRing(GF(p), f.ring.names).from_terms(f.terms.items())


class Ideal:
    """An ideal given by generators.

    It caches its reduced Groebner bases, one per ordering; the cache lives
    and dies with the ideal.  Every new basis is converted from the first
    one the ideal holds (see reduced_gb), as a fan flip converts a cone's.
    A reduction mod p (primes.reduction and fan.reduction_universal) is
    seeded with the basis it was built from, mod p, which is known to be
    reduced; any other ideal's first basis is its degrevlex basis, the one
    use of the generators.
    """

    def __init__(self, ring, gens):
        gens = [g for g in gens if not g.is_zero()]
        if any(g.ring != ring for g in gens):
            raise ValueError("all generators must live in the ambient ring")
        self.ring = ring
        self.gens = gens
        self._gb_cache = {}

    def reduced_gb(self, sigma):
        """Reduced sigma-Groebner basis (memoized; the expensive step).

        gb_field._convert takes the first basis the ideal holds to sigma
        (that basis itself when sigma keeps its leading terms, else FGLM
        when it is zero-dimensional, else Buchberger seeded with it).
        With none held yet, the first is the degrevlex basis, computed by
        Buchberger from the generators and cached first, and returned as it
        is when sigma is degrevlex.
        """
        key = sigma.canonical()
        if key not in self._gb_cache:
            from .gb_field import _convert, buchberger_reduced
            from .orderings import degrevlex

            if not self._gb_cache:
                drl = degrevlex(self.ring.n)
                self._gb_cache[drl.canonical()] = buchberger_reduced(self.gens, drl)
            if key not in self._gb_cache:
                self._gb_cache[key] = _convert(next(iter(self._gb_cache.values())), sigma)
        return self._gb_cache[key]

    def __repr__(self):
        return "Ideal(%r, %d gens)" % (self.ring, len(self.gens))


def poly_str(f, sigma):
    """Canonical text form: sigma-descending terms, explicit '*' and '^'."""
    if f.is_zero():
        return "0"
    names = f.ring.names
    parts = []
    for pp, c in f.sorted_terms(sigma):
        cs = _coeff_str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if any(pp):
            body = pp_str(pp, names) if cs == "1" else cs + "*" + pp_str(pp, names)
        else:
            body = cs
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _coeff_str(c):
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
    return str(c)


def pp_str(pp, names):
    """Power product as text, e.g. x^2*y; the empty product prints as 1."""
    factors = []
    for name, e in zip(names, pp):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append("%s^%d" % (name, e))
    return "*".join(factors) if factors else "1"
