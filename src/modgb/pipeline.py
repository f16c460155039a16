"""Modular Groebner basis pipeline: per-prime bases, tuple filtering, CRT
lifting, rational reconstruction, and verification.

The per-prime record is the reduced tau-basis of the (p, sigma)-reduction
over F_p; its ring gives the prime and its leading terms give the tuple.
The tuple test supplies the prime filter: a basis whose tuple strictly
precedes another's belongs to a relatively bad prime, so only the primes
of the best tuple seen so far are lifted.  Rejected primes get the
verdicts of primes.detect_tau_bad: primes.sigma_bad_verdict when the
reduction mod p raised BadPrimeForInput, primes.tau_bad_verdict otherwise.
"""

import random
import time

from .arith import crt_pair, random_prime, rational_reconstruct, unused_prime
from .gb_field import ReducedGB, is_groebner, is_zero_dimensional, normal_form
from .orderings import degrevlex
from .poly import BadPrimeForInput, PolyRing, QQ, leading, pp_divides
from .primes import reduction, sigma_bad_verdict, tau_bad_verdict
from .tuples import EQUAL, LtTuple, PRECEDES, count_standard, precedes

# below 3.3e24 (81 bits) arith.is_prime is deterministic, so every prime is certified
DEFAULT_PRIME_BITS = 64
DEFAULT_MAX_PRIMES = 64


class LiftState:
    """CRT lift of the F_p bases that hold one committed tuple."""

    __slots__ = ("lt_tuple", "modulus", "table", "primes")

    def __init__(self, lt_tuple):
        self.lt_tuple = lt_tuple
        self.modulus = 1
        self.table = {}  # (element index, pp) -> residue mod modulus
        self.primes = []

    def absorb(self, basis):
        """Lift one more reduced tau-basis over F_p into the table."""
        lts = tuple(basis.leading_terms())
        if basis.ordering != self.lt_tuple.ordering or lts != self.lt_tuple.entries:
            raise ValueError("basis tuple does not match the committed tuple")
        p = basis[0].ring.domain.characteristic
        residues = {(i, pp): c for i, g in enumerate(basis) for pp, c in g.terms.items()}
        m, table = self.modulus, self.table
        if m == 1:
            table.update(residues)
        else:
            # a term missing from either side has residue 0 there
            for key in table.keys() | residues.keys():
                table[key], _ = crt_pair(table.get(key, 0), m, residues.get(key, 0), p)
        self.modulus = m * p
        self.primes.append(p)


def run_prime(I, sigma, tau, p):
    """Reduced tau-basis over F_p of the (p, sigma)-reduction of I."""
    return reduction(I, sigma, p).reduced_gb(tau)


def lift_and_reconstruct(state, names):
    """Candidate rational basis from the lift, in the committed tuple's order,
    or None when some coefficient needs more primes."""
    terms = [[] for _ in state.lt_tuple]
    for key, residue in state.table.items():
        c = rational_reconstruct(residue, state.modulus)
        if c is None:
            return None
        terms[key[0]].append((key[1], c))
    ring = PolyRing(QQ, names)
    return [ring.from_terms(t) for t in terms]


def verify_candidate(candidate, I, tau, sigma=None):
    """Check that the candidate C is the reduced tau-basis of the ideal of I.

    C must be monic and self-reduced, and every element of C must reduce to
    zero against G, the reduced sigma-basis of I (sigma defaults to
    degrevlex; the pipeline's per-prime runs have already cached G on I).
    That gives <C> inside I.

    When G is zero-dimensional, the standard monomials of lt(C) are counted,
    and the walk stops once it passes #std(lt G) = dim R/I; C is rejected
    unless the counts are equal.  This is exact: dim R/I <= dim R/<C> <=
    #std(lt C), so equal counts make <C> = I, and make the standard
    monomials of lt(<C>) those of <lt C>, so C is a Groebner basis (Arnold,
    JSC 2003).  Otherwise (G positive-dimensional, empty, or [1]) every
    generator of I must reduce to zero against C, giving I inside <C>, and
    C must pass the Groebner check on the S-pairs that the product and chain
    criteria keep.  Either way the monic, self-reduced Groebner basis of I
    is its unique reduced tau-basis.
    """
    if not candidate:
        return not I.gens
    lts = []
    for g in candidate:
        if g.is_zero():
            return False
        lt, lc = leading(g, tau)
        if lc != 1:
            return False
        lts.append(lt)
    for i, g in enumerate(candidate):
        for j, lt in enumerate(lts):
            if i != j and any(pp_divides(lt, t) for t in g.terms):
                return False
    if sigma is None:
        sigma = degrevlex(I.ring.n)
    G = I.reduced_gb(sigma)
    if is_zero_dimensional(G):
        n = I.ring.n
        dim = count_standard(G.leading_terms(), n)
        if count_standard(lts, n, dim) != dim:
            return False
    else:
        if not all(normal_form(f, candidate, tau).is_zero() for f in I.gens):
            return False
        if not is_groebner(candidate, tau):
            return False
    return all(normal_form(g, G, sigma).is_zero() for g in candidate)


class ModularGBResult:
    """Final basis plus the prime ledger and timing of the pipeline; rejected
    holds a PrimeVerdict for each prime that was not used."""

    __slots__ = ("basis", "used_primes", "rejected", "attempts", "seconds")

    def __init__(self, basis, used_primes, rejected, attempts, seconds):
        self.basis = basis
        self.used_primes = used_primes
        self.rejected = rejected
        self.attempts = attempts
        self.seconds = seconds

    def __repr__(self):
        return "ModularGBResult(%d elements, %d primes)" % (
            len(self.basis),
            len(self.used_primes),
        )


def modular_gb(
    I,
    tau,
    sigma=None,
    prime_bits=DEFAULT_PRIME_BITS,
    max_primes=DEFAULT_MAX_PRIMES,
    rng=None,
):
    """Compute the reduced tau-basis of I by the modular pipeline.

    Primes of prime_bits bits are drawn at random; sigma defaults to
    degrevlex for the per-prime reduction step.  Reconstruction is
    attempted once the committed tuple has three supporters and after every
    second prime thereafter; success requires verify_candidate.  I must
    have rational coefficients.
    """
    if I.ring.domain is not QQ:
        raise ValueError("modular_gb needs rational coefficients, got %s" % I.ring.domain)
    if prime_bits < 2:
        raise ValueError("prime_bits must be at least 2, got %s" % prime_bits)
    if max_primes < 1:
        raise ValueError("max_primes must be at least 1, got %s" % max_primes)
    start = time.monotonic()
    if sigma is None:
        sigma = degrevlex(I.ring.n)
    if rng is None:
        rng = random.Random()
    if not I.gens:
        basis = ReducedGB(tau, [])
        return ModularGBResult(basis, [], [], 0, time.monotonic() - start)
    state = None  # the lift of the primes holding the best tuple so far
    rejected = []
    tried = set()
    while len(tried) < max_primes:
        p = random_prime(prime_bits, rng)
        if p in tried:
            # a repeat: take the smallest unused prime, so every draw counts
            p = unused_prime(prime_bits, tried)
            if p is None:
                raise RuntimeError(
                    "all %d odd primes of %d bits are used up with no verified basis"
                    % (len(tried), prime_bits)
                )
        tried.add(p)
        try:
            basis = run_prime(I, sigma, tau, p)
        except BadPrimeForInput as e:
            rejected.append(sigma_bad_verdict(e))
            continue
        t = LtTuple(tau, basis.leading_terms())
        if state is not None:
            cmp = precedes(t, state.lt_tuple)
            if cmp == PRECEDES:
                rejected.append(tau_bad_verdict(p, t, state.lt_tuple))
                continue
            if cmp != EQUAL:
                # the committed tuple is now certified bad; restart the lift
                rejected.extend(tau_bad_verdict(q, state.lt_tuple, t) for q in state.primes)
                state = None
        if state is None:
            state = LiftState(t)
        state.absorb(basis)
        used = len(state.primes)
        if used >= 3 and used % 2 == 1:
            candidate = lift_and_reconstruct(state, I.ring.names)
            if candidate is not None and verify_candidate(candidate, I, tau, sigma):
                return ModularGBResult(
                    ReducedGB(tau, candidate),
                    state.primes,
                    rejected,
                    len(tried),
                    time.monotonic() - start,
                )
    raise RuntimeError(
        "no verified basis after %d primes; undecided primes may still be bad"
        % len(tried)
    )
