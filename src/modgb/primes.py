"""Prime taxonomy for an ideal: good/bad per ordering, Pauer-lucky, and the
purely modular detector for relatively bad primes."""

# tuples is called through the module, because a tracer may replace
# tuples.precedes after import (bench/tracing.py counts its calls)
from . import tuples
from .arith import rad
from .gb_field import ReducedGB
from .gb_integer import lcm_sigma, strong_gb
from .poly import (
    BadPrimeForInput,
    GF,
    Ideal,
    PolyRing,
    QQ,
    _require_prime,
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
    """The verdict of reduction(I, sigma, p), the one judge of sigma-badness:
    SIGMA_BAD, witnessed by the denominator it found p to divide, when it
    rejects p, and SIGMA_GOOD otherwise."""
    try:
        reduction(I, sigma, p)
    except BadPrimeForInput as e:
        return sigma_bad_verdict(e)
    return PrimeVerdict(p, SIGMA_GOOD)


def _reduce_basis(I, G, field):
    """The ideal over field = F_p generated by G mod p, with G mod p cached
    as its reduced basis; G is a reduced basis of I, and BadPrimeForInput is
    raised when p divides one of its denominators.

    G is monic with coefficients free of p, so dividing an S-polynomial by G
    takes the same steps over ZZ localized at p as over QQ, and its standard
    representation survives the reduction mod p.
    """
    ring = PolyRing(field, I.ring.names)
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
    field = GF(p)  # rejects a non-prime before any basis is computed
    return _reduce_basis(I, I.reduced_gb(sigma), field)


def pauer_lucky(F, sigma, p, counter=None):
    """Pauer-luckiness of p for a set of integer polynomials; counter budgets
    the strong basis (see strong_gb)."""
    _require_prime(p)
    return pauer_verdict(strong_gb(list(F), sigma, counter), sigma, p)


def pauer_verdict(B, sigma, p):
    """Pauer-luckiness of p judged on B, a strong sigma-basis over ZZ: p is
    lucky when it divides no leading coefficient of B."""
    for g in B:
        lc = leading(g, sigma)[1]
        if lc % p == 0:
            return PrimeVerdict(p, NOT_PAUER_LUCKY, {"offending_lc": lc})
    return PrimeVerdict(p, PAUER_LUCKY, {"lcm_of_leading_coeffs": lcm_sigma(B)})


def reduction_tuple(I, sigma, tau, p):
    """O_tau of the (p, sigma)-reduction of I, computed purely modulo p."""
    return tuples.os_of_ideal(reduction(I, sigma, p), tau)


def sigma_bad_verdict(e):
    """The verdict on a prime that the reduction rejected with BadPrimeForInput e."""
    return PrimeVerdict(e.p, SIGMA_BAD, {"witness_denominator": e.denominator})


def tau_bad_verdict(p, t, best):
    """The verdict on a prime whose tuple t strictly tau-precedes best."""
    return PrimeVerdict(p, TAU_BAD_CERTIFIED, {"tuple": t, "beaten_by": best})


def detect_tau_bad(I, sigma, tau, primes):
    """Certify relatively tau-bad primes from modular data only.

    A prime that the reduction rejects is sigma-bad.  Among the other
    primes, each whose tuple strictly tau-precedes another's is certified
    bad; holders of the best (tau-maximal) tuple stay undecided.  The
    verdicts follow the order of primes.
    """
    for p in primes:
        _require_prime(p)
    held, bad = {}, {}
    for p in primes:
        try:
            held[p] = reduction_tuple(I, sigma, tau, p)
        except BadPrimeForInput as e:
            bad[p] = sigma_bad_verdict(e)
    best = tuples.tuple_max(held.values())
    verdicts = []
    for p in primes:
        t = held.get(p)
        if t is None:
            verdicts.append(bad[p])
        elif tuples.precedes(t, best) == tuples.PRECEDES:
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
