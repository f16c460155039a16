"""Exact integer helpers: radicals, factoring, CRT, rational reconstruction."""

import math
import random
from fractions import Fraction

# Trial division cutoff before switching to Pollard rho.
_TRIAL_LIMIT = 1 << 10
# Pollard rho steps whose differences are multiplied together per gcd.
_RHO_BATCH = 128

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin primality test (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < 3317044064679887385961981:
        bases = _MR_BASES
    else:
        bases = _MR_BASES + tuple(random.Random(n).randrange(2, n - 1) for _ in range(13))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n, rng):
    """Find a non-trivial factor of composite n (Brent's cycle variant).

    The products of |x - y| are batched, _RHO_BATCH steps per gcd; when a
    batch overshoots to the gcd n, its steps are retraced one at a time.
    """
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(0, n)
        r, q, d = 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d


def factor(n):
    """Return the prime factorization of n >= 1 as a dict {prime: exponent}."""
    if n < 1:
        raise ValueError("can only factor positive integers, got %s" % n)
    out = {}
    d = 2
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n == 1:
        return out
    rng = random.Random(n)
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m, rng)
        stack.append(f)
        stack.append(m // f)
    return out


def rad(n):
    """Squarefree kernel of n: the product of the distinct primes dividing n."""
    if n < 1:
        raise ValueError("rad is only defined for positive integers, got %s" % n)
    r = 1
    for p in factor(n):
        r *= p
    return r


def crt_pair(r1, m1, r2, m2):
    """Combine r mod m1 and r mod m2 into r mod m1*m2 for coprime moduli."""
    if m1 < 2 or m2 < 2:
        raise ValueError("moduli must be >= 2")
    if math.gcd(m1, m2) != 1:
        raise ValueError("moduli %s and %s are not coprime" % (m1, m2))
    m = m1 * m2
    # r = r1 + m1 * u * (r2 - r1) mod m, u = 1/m1 mod m2, satisfies both congruences.
    return (r1 + m1 * (pow(m1, -1, m2) * (r2 - r1) % m2)) % m, m


def _ext_gcd(a, b):
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def rational_reconstruct(r, m):
    """Recover a/b from r mod m with |a|, b <= floor(sqrt(m/2)), or None.

    The returned Fraction satisfies a == r*b (mod m), b > 0 and
    gcd(b, m) == 1.  None is returned when no such fraction exists.
    """
    if not 0 <= r < m:
        raise ValueError("residue out of range")
    bound = math.isqrt(m // 2)
    if r == 0:
        return Fraction(0)
    v0, v1 = m, r
    t0, t1 = 0, 1
    while v1 > bound:
        q = v0 // v1
        v0, v1 = v1, v0 - q * v1
        t0, t1 = t1, t0 - q * t1
    a = v1 if t1 > 0 else -v1
    b = abs(t1)
    if b > bound or b == 0 or math.gcd(a, b) != 1 or math.gcd(b, m) != 1:
        return None
    return Fraction(a, b)


def random_prime(bits, rng):
    """Uniformly sample an odd prime with the given bit length (at least 2),
    drawing from the random.Random rng."""
    if bits < 2:
        raise ValueError("a prime needs at least 2 bits, got %s" % bits)
    while True:
        n = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def unused_prime(bits, used):
    """The smallest odd prime of the given bit length not in `used`, or None."""
    for n in range((1 << (bits - 1)) | 1, 1 << bits, 2):
        if n not in used and is_prime(n):
            return n
    return None


def lcm(*values):
    """Positive lcm of the given nonzero integers; lcm() == 1."""
    if 0 in values:
        raise ValueError("lcm of zero is undefined")
    return math.lcm(*values)
