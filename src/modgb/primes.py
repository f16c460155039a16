"""Prime taxonomy for an ideal: good/bad per ordering, Pauer-lucky, and the
purely modular detector for relatively bad primes."""

from .arith import rad
from .gb_field import ReducedGB
from .gb_integer import lcm_sigma, strong_gb
from .poly import (
    BadPrimeForInput,
    GF,
    Ideal,
    PolyRing,
    QQ,
    den,
    den_of_set,
    leading,
    prim,
)

SIGMA_GOOD = "SIGMA_GOOD"
SIGMA_BAD = "SIGMA_BAD"
PAUER_LUCKY = "PAUER_LUCKY"
NOT_PAUER_LUCKY = "NOT_PAUER_LUCKY"
TAU_BAD_CERTIFIED = "TAU_BAD_CERTIFIED"
UNDECIDED = "UNDECIDED"


class PrimeVerdict:
    """A classification of one prime together with its justifying evidence."""

    __slots__ = ("prime", "status", "evidence")

    def __init__(self, prime, status, evidence=None):
        self.prime = prime
        self.status = status
        self.evidence = evidence or {}

    def to_dict(self, names=None):
        out = {"prime": self.prime, "status": self.status}
        for k, v in self.evidence.items():
            out[k] = v.render(names) if names and hasattr(v, "render") else v
        return out

    def __repr__(self):
        return "PrimeVerdict(%d, %s)" % (self.prime, self.status)


def den_sigma(I, sigma):
    """Denominator of the reduced sigma-Groebner basis of I."""
    return den_of_set(list(I.reduced_gb(sigma)))


def classify_prime(I, sigma, p):
    """SIGMA_BAD when p divides the sigma-denominator, SIGMA_GOOD otherwise."""
    if I.ring.domain is not QQ:
        raise ValueError("classifying a prime needs rational coefficients")
    G = I.reduced_gb(sigma)
    for g in G:
        if den(g) % p == 0:
            return PrimeVerdict(p, SIGMA_BAD, {"witness_denominator": den(g)})
    return PrimeVerdict(p, SIGMA_GOOD)


def _reduce_basis(I, G, p):
    """The ideal over F_p generated by G mod p, with G mod p cached as its
    reduced basis; G is a reduced basis of I, and BadPrimeForInput is raised
    when p divides one of its denominators.

    G is monic with coefficients free of p, so dividing an S-polynomial by G
    takes the same steps over ZZ localized at p as over QQ, and its standard
    representation survives the reduction mod p.
    """
    ring = PolyRing(GF(p), I.ring.names)
    gens = [ring.from_terms(g.terms.items()) for g in G]
    J = Ideal(ring, gens)
    J._gb_cache[G.ordering.canonical()] = ReducedGB(G.ordering, gens)
    return J


def reduction(I, sigma, p):
    """The (p, sigma)-reduction of I over F_p.

    Reducing G mod p rejects a sigma-bad prime: it raises BadPrimeForInput
    (a ValueError) at the first coefficient whose denominator p divides.
    The ideal comes with G mod p cached as its reduced sigma-basis, so a
    zero-dimensional reduction gets its other bases by FGLM from it.
    """
    if I.ring.domain is not QQ:
        raise ValueError("the reduction mod p needs rational coefficients")
    return _reduce_basis(I, I.reduced_gb(sigma), p)


def pauer_lucky(F, sigma, p):
    """Pauer-luckiness of p for a set of integer polynomials."""
    B = strong_gb(list(F), sigma)
    for g in B:
        lc = leading(g, sigma)[1]
        if lc % p == 0:
            return PrimeVerdict(p, NOT_PAUER_LUCKY, {"offending_lc": lc})
    return PrimeVerdict(p, PAUER_LUCKY, {"lcm_of_leading_coeffs": lcm_sigma(B)})


def reduction_tuple(I, sigma, tau, p):
    """O_tau of the (p, sigma)-reduction of I, computed purely modulo p."""
    from .tuples import os_of_ideal

    return os_of_ideal(reduction(I, sigma, p), tau)


def tau_bad_verdict(p, t, best):
    """The verdict on a prime whose tuple t strictly tau-precedes best."""
    return PrimeVerdict(p, TAU_BAD_CERTIFIED, {"tuple": t, "beaten_by": best})


def detect_tau_bad(I, sigma, tau, primes):
    """Certify relatively tau-bad primes from modular data only.

    A sigma-bad prime gets the verdict of classify_prime.  Among the other
    primes, each whose tuple strictly tau-precedes another's is certified
    bad; holders of the best (tau-maximal) tuple stay undecided.  The
    verdicts follow the order of primes.
    """
    from .tuples import PRECEDES, precedes, tuple_max

    tuples = {}
    for p in primes:
        try:
            tuples[p] = reduction_tuple(I, sigma, tau, p)
        except BadPrimeForInput:
            pass
    best = tuple_max(tuples.values())
    verdicts = []
    for p in primes:
        t = tuples.get(p)
        if t is None:
            verdicts.append(classify_prime(I, sigma, p))
        elif precedes(t, best) == PRECEDES:
            verdicts.append(tau_bad_verdict(p, t, best))
        else:
            verdicts.append(PrimeVerdict(p, UNDECIDED, {"tuple": t}))
    return verdicts


def check_rad_identity(I, sigma):
    """Self-test oracle: the radicals of den(G) and of the strong-basis lcm agree."""
    if I.ring.domain is not QQ:
        raise ValueError("the denominator identity needs rational coefficients")
    G = list(I.reduced_gb(sigma))
    if not G:
        raise ValueError("the zero ideal has no denominator identity")
    a = rad(den_of_set(G))
    J_gens = [prim(g, sigma) for g in G]
    b = rad(lcm_sigma(strong_gb(J_gens, sigma)))
    return a, b, a == b
