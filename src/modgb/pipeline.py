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

import math
import random
import time
from operator import add, sub

from .arith import crt_pair, random_prime, rational_reconstruct, unused_prime
from .gb_field import ReducedGB, is_groebner, is_zero_dimensional, normal_form
from .orderings import degrevlex
from .poly import BadPrimeForInput, PolyRing, QQ, pp_divides
from .primes import reduction, sigma_bad_verdict, tau_bad_verdict
from .tuples import EQUAL, LtTuple, PRECEDES, count_standard, precedes

# below 3.3e24 (81 bits) arith.is_prime is deterministic, so every prime is certified
DEFAULT_PRIME_BITS = 64
DEFAULT_MAX_PRIMES = 64


class LiftState:
    """CRT lift of the F_p bases that hold one committed tuple.

    Under lex, when the tuple is in shape position, (x_n^D, x_(n-1), ...,
    x_1) with n >= 2 and D >= 1, each basis is {f(x_n), x_i - h_i(x_n)}.
    The state then also lifts the Kronecker form of the basis, f and the
    k_i = h_i*f' mod f, in `kronecker`, whose coefficients are far smaller
    than those of the h_i (Dahan and Schost, "Sharp estimates for triangular
    sets", ISSAC 2004).
    """

    __slots__ = ("lt_tuple", "modulus", "table", "primes", "kronecker")

    def __init__(self, lt_tuple):
        self.lt_tuple = lt_tuple
        self.modulus = 1
        self.table = {}  # (element index, pp) -> residue mod modulus
        self.primes = []
        # f without its leading 1, then each k_i, low degree first, in basis order
        self.kronecker = [] if _in_shape_position(lt_tuple) else None

    def absorb(self, basis):
        """Lift one more reduced tau-basis over F_p into the table, and into
        the Kronecker form when the tuple is in shape position."""
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
        if self.kronecker is not None:
            pows = [lts[0][:-1] + (t,) for t in range(lts[0][-1])]
            f = [basis[0].terms.get(t, 0) for t in pows] + [1]
            df = [i * c % p for i, c in enumerate(f)][1:]
            form = f[:-1]
            for g in basis[1:]:
                form += _mulmod([-g.terms.get(t, 0) % p for t in pows], df, f, p)
            if m == 1:
                self.kronecker = form
            else:
                self.kronecker = [crt_pair(a, m, b, p)[0] for a, b in zip(self.kronecker, form)]
        self.modulus = m * p
        self.primes.append(p)


def _in_shape_position(lt_tuple):
    """Whether lt_tuple is the lex tuple (x_n^D, x_(n-1), ..., x_1) with
    n >= 2 and D >= 1."""
    entries = lt_tuple.entries
    if lt_tuple.ordering.kind != "lex" or not entries:
        return False
    n, D = len(entries[0]), entries[0][-1]
    units = tuple(tuple(int(j == i) for j in range(n)) for i in range(n - 2, -1, -1))
    return n >= 2 and D >= 1 and entries == ((0,) * (n - 1) + (D,),) + units


def _mulmod(a, b, f, m):
    """a*b mod (f, m) for integer coefficient lists, low degree first: f has
    degree D and a leading coefficient that is a unit mod m, a and b have
    length D, and so has the result, with entries in [0, m).  Where a or f
    has small entries, as the lifts below arrange, the products are cheap."""
    D = len(f) - 1
    c = [0] * (2 * D - 1)
    for i, x in enumerate(a):
        if x:
            c[i : i + D] = map(add, c[i : i + D], map(x.__mul__, b))
    inv, low = pow(f[-1], -1, m), f[:D]
    for i in range(2 * D - 2, D - 1, -1):
        q = c[i] * inv % m
        if q:
            c[i - D : i] = map(sub, c[i - D : i], map(q.__mul__, low))
    return [x % m for x in c[:D]]


def _invmod(a, f, p):
    """a^-1 mod (f, p) by the extended Euclidean algorithm over F_p, as a list
    of length deg f, or None when gcd(a, f) != 1 over F_p; f is monic."""
    # s0*a = r0 and s1*a = r1 mod f throughout
    r0, r1 = f[:], [x % p for x in a]
    s0, s1 = [0], [1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            break
        inv, d = pow(r1[-1], -1, p), len(r1) - 1
        s = s0 + [0] * max(0, len(r0) - 1 - d + len(s1) - len(s0))
        while len(r0) > d:
            q, shift = r0[-1] * inv % p, len(r0) - 1 - d
            r0[shift:] = [(x - q * y) % p for x, y in zip(r0[shift:], r1)]
            s[shift : shift + len(s1)] = [(x - q * y) % p for x, y in zip(s[shift:], s1)]
            while r0 and not r0[-1]:
                r0.pop()
        r0, r1, s0, s1 = r1, r0, s1, s
    if len(r0) != 1:
        return None
    D, inv = len(f) - 1, pow(r0[0], -1, p)
    return [x * inv % p for x in (s0 + [0] * D)[:D]]


def run_prime(I, sigma, tau, p):
    """Reduced tau-basis over F_p of the (p, sigma)-reduction of I."""
    return reduction(I, sigma, p).reduced_gb(tau)


def lift_and_reconstruct(state, names):
    """Candidate rational basis from the lift, in the committed tuple's order,
    or None when some coefficient needs more primes.

    The basis table is reconstructed first.  When that fails and the state
    lifts the Kronecker form and has a Newton prime (see _newton_seed), f
    and the k_i of the form are reconstructed instead, and _expand_shape
    turns them into the h_i of the lex basis {f, x_i - h_i}.  In that order
    no attempt loses the candidate the table alone would give, so no input
    needs more primes than without the Kronecker form; a premature
    reconstruction of the small f and k_i (with tiny primes) costs only one
    rejected candidate.
    """
    ring = PolyRing(QQ, names)
    values = _reconstruct_all(state.table.values(), state.modulus)
    if values is None:
        return _shape_candidate(state, ring) if state.kronecker is not None else None
    terms = [[] for _ in state.lt_tuple]
    for (i, pp), c in zip(state.table, values):
        terms[i].append((pp, c))
    return [ring.from_terms(t) for t in terms]


def _shape_candidate(state, ring):
    """The lex basis {f, x_i - h_i} from the lifted Kronecker form, or None."""
    seed = _newton_seed(state)
    if seed is None:
        return None
    M = state.modulus
    form = _reconstruct_all(state.kronecker, M)
    if form is None:
        return None
    lts = state.lt_tuple.entries
    D = lts[0][-1]
    f, ks = form[:D] + [1], [form[i : i + D] for i in range(D, len(form), D)]
    pows = [lts[0][:-1] + (t,) for t in range(D + 1)]
    known = [[-state.table.get((i, t), 0) % M for t in pows[:D]] for i in range(1, len(lts))]
    hs = _expand_shape(f, ks, *seed, known, M)
    if hs is None:
        return None
    basis = [ring.from_terms(zip(pows, f))]
    for lt, h in zip(lts[1:], hs):
        basis.append(ring.from_terms([(lt, 1), *zip(pows, (-c for c in h))]))
    return basis


def _newton_seed(state):
    """(p, f'^-1 mod (f, p)) for the first lifted prime p at which f mod p is
    squarefree, the seed of the expansion back to the h_i, or None."""
    D = state.lt_tuple.entries[0][-1]
    for p in state.primes:
        f = [c % p for c in state.kronecker[:D]] + [1]
        inverse = _invmod([i * c % p for i, c in enumerate(f)][1:], f, p)
        if inverse is not None:
            return p, inverse
    return None


def _reconstruct_all(residues, m):
    """The rational reconstructions of the residues mod m, in order, or None
    if one fails."""
    values = []
    for r in residues:
        c = rational_reconstruct(r, m)
        if c is None:
            return None
        values.append(c)
    return values


def _expand_shape(f, ks, p, seed, known, M):
    """The h_i = k_i*f'^-1 mod f over QQ, as lists of D coefficients, or None.

    f is monic of degree D and squarefree mod p, seed is f'^-1 mod (f, p),
    and known holds the h_i mod M, from the lifted basis table.  Scale f by
    the lcm c of its denominators to the integer list F, and the k_i by the
    lcm c_k of theirs to K_i; then h_i = (c/c_k)*K_i*G mod f with
    G = F'^-1 mod f.  Newton's step G <- G*(2 - F'*G) mod f takes G from
    precision q = p^e to q^2; as 1 - F'*G = q*r, its one product of two
    large operands, G*r, is taken mod q.  At each precision the h_i are
    rationally reconstructed, and the first reconstruction that agrees with
    known mod M is returned: one that is premature agrees only by chance.

    On a correct f and k_i the lift is exact once p^e reaches the cap 2H:
    h solves F'*(c_k h) + F*(c_k u) = c*K_i, a square system of size
    2D - 1 whose columns are shifts of F' (D of them) and of F (D - 1), so
    by Cramer's rule and Hadamard's bound each coefficient of h is a
    fraction with numerator and denominator at most sqrt(H),
    H = |F'|^2D * |F|^2(D-1) * max(|c*K_i|^2, c_k^2), and reconstruction
    mod p^e >= 2H returns exactly that fraction.  So the lift stops at the
    cap: a wrong f or k_i fails there, after O(log log H) steps.
    """
    D = len(f) - 1
    cf = math.lcm(*(c.denominator for c in f))
    ck = math.lcm(1, *(c.denominator for k in ks for c in k))
    F = [int(c * cf) for c in f]
    K = [[int(c * ck) for c in k] for k in ks]
    dF = [i * c for i, c in enumerate(F)][1:]
    norm_k = max(sum((cf * c) ** 2 for c in k) for k in K)
    cap = 2 * sum(c * c for c in dF) ** D * sum(c * c for c in F) ** (D - 1) * max(norm_k, ck * ck)
    q, m, G = 1, p, [x * pow(cf, -1, p) % p for x in seed]
    while True:
        if q != 1:
            # 1 - F'*G = q*r mod m, so G*(2 - F'*G) = G + q*(G*r mod q)
            r = [((i == 0) - x) % m // q for i, x in enumerate(_mulmod(dF, G, F, m))]
            G = [g + q * x for g, x in zip(G, _mulmod(G, r, F, q))]
        scale = cf * pow(ck, -1, m) % m
        hs = []
        for k, want in zip(K, known):
            h = _reconstruct_all([x * scale % m for x in _mulmod(k, G, F, m)], m)
            if h is None or any((c.numerator - w * c.denominator) % M for c, w in zip(h, want)):
                break
            hs.append(h)
        else:
            return hs
        if m >= cap:
            return None
        q, m = m, m * m


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
    if any(g.is_zero() for g in candidate):
        return False
    C = ReducedGB(tau, candidate)
    lts = C.leading_terms()
    if any(g.terms[lt] != 1 for g, lt in zip(C, lts)):
        return False
    for i, g in enumerate(C):
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
        if not all(normal_form(f, C, tau).is_zero() for f in I.gens):
            return False
        if not is_groebner(C, tau):
            return False
    return all(normal_form(g, G, sigma).is_zero() for g in C)


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

    When tau is lex and the tuple is in shape position, the lift also
    carries the Kronecker form {f, k_i = h_i*f' mod f} of the basis
    {f(x_n), x_i - h_i(x_n)}, and an attempt whose basis table does not
    reconstruct expands the reconstructed form back to the basis (see
    lift_and_reconstruct).  The form's coefficients are much smaller, so
    such inputs need fewer primes: 3 instead of 9 of 64 bits on the
    many-bad-primes family.
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
