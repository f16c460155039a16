"""Modular Groebner basis pipeline: per-prime runs, tuple filtering, CRT
lifting, rational reconstruction, and verification.

The tuple test supplies the prime filter: a run whose leading-term tuple
strictly precedes another run's tuple belongs to a relatively bad prime,
so only holders of the best tuple seen so far contribute to the lift.
Rejected primes get the verdicts of primes.detect_tau_bad and
primes.classify_prime.
"""

import random
import time

from .arith import crt_pair, random_prime, rational_reconstruct, unused_prime
from .gb_field import ReducedGB, is_groebner, normal_form
from .orderings import degrevlex
from .poly import BadPrimeForInput, PolyRing, QQ, leading, pp_divides
from .primes import TAU_BAD_CERTIFIED, PrimeVerdict, classify_prime, reduction
from .tuples import LtTuple, PRECEDES, precedes

DEFAULT_PRIME_BITS = 31
DEFAULT_MAX_PRIMES = 64


class ModularRun:
    """One prime's artifact: its reduced tau-basis over F_p and the tuple."""

    __slots__ = ("prime", "basis", "lt_tuple")

    def __init__(self, prime, basis, lt_tuple):
        self.prime = prime
        self.basis = basis
        self.lt_tuple = lt_tuple

    def __repr__(self):
        return "ModularRun(p=%d, %d elements)" % (self.prime, len(self.basis))


class LiftState:
    """CRT accumulator for runs sharing one committed tuple."""

    __slots__ = ("lt_tuple", "modulus", "table", "primes")

    def __init__(self, lt_tuple):
        self.lt_tuple = lt_tuple
        self.modulus = 1
        self.table = {}  # (element index, pp) -> residue mod modulus
        self.primes = []

    def absorb(self, run):
        if run.lt_tuple != self.lt_tuple:
            raise ValueError("run tuple does not match the committed tuple")
        p = run.prime
        keys = set(self.table)
        for i, g in enumerate(run.basis):
            keys.update((i, pp) for pp in g.terms)
        new = {}
        for key in keys:
            i, pp = key
            r_old = self.table.get(key, 0)
            r_new = run.basis[i].terms.get(pp, 0) if i < len(run.basis) else 0
            if self.modulus == 1:
                new[key] = r_new % p
            else:
                new[key], _ = crt_pair(r_old, self.modulus, r_new, p)
        self.table = new
        self.modulus *= p
        self.primes.append(p)


def run_prime(I, sigma, tau, p):
    """Reduced tau-basis of the (p, sigma)-reduction of I, with its tuple."""
    basis = reduction(I, sigma, p).reduced_gb(tau)
    return ModularRun(p, basis, LtTuple(tau, basis.leading_terms()))


def _beaten(run, best):
    """The verdict on a run whose tuple strictly precedes best."""
    evidence = {"tuple": run.lt_tuple, "beaten_by": best}
    return PrimeVerdict(run.prime, TAU_BAD_CERTIFIED, evidence)


def lift_and_reconstruct(kept, I, tau, state=None):
    """Candidate rational basis from the kept runs, or None for more primes.

    A LiftState passed as state must have absorbed a prefix of kept; it
    absorbs the rest and is reused, so a caller that keeps it across
    attempts lifts each run once.
    """
    if not kept:
        raise ValueError("no runs to lift")
    if state is None:
        state = LiftState(kept[0].lt_tuple)
    for r in kept[len(state.primes) :]:
        state.absorb(r)
    ring = PolyRing(QQ, I.ring.names)
    m = state.modulus
    coeffs = {}
    for key, residue in state.table.items():
        c = rational_reconstruct(residue, m)
        if c is None:
            return None
        coeffs[key] = c
    polys = []
    for i in range(len(state.lt_tuple)):
        terms = [(pp, c) for (j, pp), c in coeffs.items() if j == i and c]
        polys.append(ring.from_terms(terms))
    return polys


def verify_candidate(candidate, I, tau, sigma=None):
    """Check that the candidate is the reduced tau-basis of the ideal of I.

    The candidate is monic and self-reduced, every input generator reduces
    to zero against it, no S-polynomial survives reduction, and every
    candidate element reduces to zero against the reduced sigma-basis of I
    (sigma defaults to degrevlex; the pipeline's per-prime runs have already
    cached that basis on I).  The second check gives I inside the
    candidate's ideal, the last the reverse, so the two ideals are equal;
    the Groebner check then makes the monic, self-reduced candidate the
    unique reduced tau-basis.
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
    ring = candidate[0].ring
    for f in I.gens:
        if f.ring != ring:
            f = ring.from_terms(f.terms.items())
        if not normal_form(f, candidate, tau).is_zero():
            return False
    if not is_groebner(candidate, tau):
        return False
    if sigma is None:
        sigma = degrevlex(I.ring.n)
    G = I.reduced_gb(sigma)
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

    Primes are drawn at random; sigma defaults to degrevlex for the
    per-prime reduction step.  Reconstruction is attempted once the
    committed tuple has three supporters and after every second prime
    thereafter; success requires verify_candidate.  I must have rational
    coefficients.
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
    kept = []
    state = None  # the CRT lift of kept, rebuilt when the committed tuple changes
    rejected = []
    tried = set()
    attempts = 0
    while attempts < max_primes:
        p = random_prime(prime_bits, rng)
        if p in tried:
            # a repeat: take the smallest unused prime, so every draw counts
            p = unused_prime(prime_bits, tried)
            if p is None:
                raise RuntimeError(
                    "all %d odd primes of %d bits are used up; "
                    "no verified basis after %d primes" % (len(tried), prime_bits, attempts)
                )
        tried.add(p)
        attempts += 1
        try:
            run = run_prime(I, sigma, tau, p)
        except BadPrimeForInput:
            rejected.append(classify_prime(I, sigma, p))
            continue
        if not kept:
            kept, state = [run], LiftState(run.lt_tuple)
        else:
            cmp = precedes(run.lt_tuple, kept[0].lt_tuple)
            if cmp == PRECEDES:
                rejected.append(_beaten(run, kept[0].lt_tuple))
                continue
            if cmp == 0:
                kept.append(run)
            else:
                # the committed tuple is now certified bad; rebuild the lift
                rejected.extend(_beaten(r, run.lt_tuple) for r in kept)
                kept, state = [run], LiftState(run.lt_tuple)
        if len(kept) >= 3 and (len(kept) - 3) % 2 == 0:
            candidate = lift_and_reconstruct(kept, I, tau, state)
            if candidate is not None and verify_candidate(candidate, I, tau, sigma):
                candidate.sort(key=lambda g: tau.key(leading(g, tau)[0]))
                basis = ReducedGB(tau, candidate)
                return ModularGBResult(
                    basis,
                    [r.prime for r in kept],
                    rejected,
                    attempts,
                    time.monotonic() - start,
                )
    raise RuntimeError(
        "no verified basis after %d primes; undecided primes may still be bad"
        % attempts
    )
