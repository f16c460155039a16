"""Number-theoretic helpers: primality, factoring, rad, CRT, reconstruction."""

import math
import random
from fractions import Fraction

import pytest

from conftest import timed
from modgb.arith import (
    crt_pair,
    factor,
    is_prime,
    lcm,
    rad,
    random_prime,
    unused_prime,
    rational_reconstruct,
)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


def test_is_prime_matches_sieve():
    primes = set(_sieve(10000))
    for n in range(10000):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert is_prime(55817)
    assert not is_prime(561)  # Carmichael number


def test_factor_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 10**9)
        fac = factor(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_semiprime_beyond_trial_division():
    p, q = 2**31 - 1, 2**61 - 1  # Mersenne primes beyond the trial bound
    assert factor(p * q) == {p: 1, q: 1}


def test_factor_product_of_two_40_bit_primes():
    # both factors are beyond trial division, so Pollard rho has to split n
    p, q = 2**40 - 87, 2**38 - 45
    f = factor(p * q)
    assert f == {p: 1, q: 1}
    assert list(factor(p * q)) == list(f)


def test_factor_stops_trial_division_early():
    # den of the reduced lex basis of conftest.many_bad_primes_ideal(): trial
    # division stops at 2^10, so Pollard rho splits off 55817 and the 217-bit
    # cofactor; dividing on to 2^20 took about 0.13 s
    big = 183484113904996059352367530561645814105514339740522808228638452177
    n = 2**5 * 7 * 11 * 55817 * big
    with timed(0.05):
        assert factor(n) == {2: 5, 7: 1, 11: 1, 55817: 1, big: 1}


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


def test_rad_golden():
    assert rad(240) == 30


def test_rad_properties():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 10**8)
        r = rad(n)
        assert n % r == 0
        assert set(factor(r)) == set(factor(n)) if n > 1 else r == 1
        assert rad(r) == r


def test_rad_rejects_nonpositive():
    with pytest.raises(ValueError):
        rad(-4)


def test_crt_pair():
    r, m = crt_pair(2, 3, 3, 5)
    assert (r, m) == (8, 15)
    with pytest.raises(ValueError):
        crt_pair(1, 6, 1, 4)


def test_crt_pair_random():
    rng = random.Random(3)
    for _ in range(100):
        m1 = rng.choice([5, 7, 11, 13])
        m2 = rng.choice([2, 3, 17, 19])
        a = rng.randrange(10**6)
        r, m = crt_pair(a % m1, m1, a % m2, m2)
        assert m == m1 * m2
        assert r == a % m


def test_rational_reconstruct_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**4)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        m = 1
        for p in (2147483647, 2147483629, 2147483587):
            m *= p
        r = a * pow(b, -1, m) % m
        assert rational_reconstruct(r, m) == Fraction(a, b)


def test_rational_reconstruct_bound_failure():
    # 1/2 mod 5: no fraction with |num|, den <= floor(sqrt(5/2)) = 1 exists
    assert rational_reconstruct(3, 5) is None


def test_rational_reconstruct_zero():
    assert rational_reconstruct(0, 101) == 0


def test_random_prime():
    rng = random.Random(1)
    for _ in range(10):
        p = random_prime(31, rng)
        assert is_prime(p)
        assert p.bit_length() == 31


def test_random_prime_rejects_fewer_than_two_bits():
    for bits in (1, 0, -3):
        with pytest.raises(ValueError):
            random_prime(bits, random.Random(1))


def test_unused_prime():
    assert unused_prime(2, set()) == 3
    assert unused_prime(2, {3}) is None
    assert unused_prime(5, {17, 19}) == 23
    assert unused_prime(5, {17, 19, 23, 29, 31}) is None


def test_lcm():
    assert lcm() == 1
    assert lcm(4, 6) == 12
    assert lcm(-4, 6) == 12
    with pytest.raises(ValueError):
        lcm(0, 3)
