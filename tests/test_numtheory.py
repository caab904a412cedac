import random
from fractions import Fraction
from math import factorial, gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from hypcount import numtheory
from hypcount.errors import DomainError
from hypcount.fps import Series
from hypcount.numtheory import odd_split_count, sigma1, sigma1_lemma_check, sigma1_table


def sigma1_brute(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def odd_split_brute(k, blocks):
    return sum(
        1
        for p in set_partitions(list(range(k)))
        if len(p) == blocks and all(len(b) % 2 == 1 for b in p)
    )


def test_sigma1_examples():
    assert sigma1(1) == 1
    assert sigma1(6) == 12  # divisors 1,2,3,6
    assert sigma1(9) == 13  # divisors 1,3,9


def test_sigma1_rejects_zero():
    with pytest.raises(DomainError):
        sigma1(0)


def test_sigma1_matches_brute_force():
    for n in range(1, 300):
        assert sigma1(n) == sigma1_brute(n)


def test_sigma1_table_agrees():
    table = sigma1_table(500)
    for n in range(1, 501):
        assert table[n] == sigma1(n)


def test_sigma1_multiplicative():
    rng = random.Random(101)
    done = 0
    while done < 500:
        m, n = rng.randint(2, 10_000), rng.randint(2, 10_000)
        if gcd(m, n) != 1:
            continue
        assert sigma1(m * n) == sigma1(m) * sigma1(n)
        done += 1


def sigma1_by_factoring(n):
    """prod (p^(e+1) - 1)/(p - 1) over the prime powers p^e exactly dividing n."""
    total, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        total *= (p ** (e + 1) - 1) // (p - 1)
        p += 1
    return total * (n + 1 if n > 1 else 1)


odd_n = st.integers(10**6 // 2, (10**9 - 1) // 2).map(lambda m: 2 * m + 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.one_of(
        odd_n,
        st.integers(500, 15_810).map(lambda k: (2 * k + 1) ** 2),  # odd squares: d == n // d once
        st.integers(1, 10).flatmap(  # 2^a times an odd number
            lambda a: st.integers(10**6 >> (a + 1), (10**9 >> a) // 2 - 1).map(lambda m: (2 * m + 1) << a)
        ),
    )
)
def test_sigma1_above_the_sieve_matches_factorisation(n):
    assert sigma1(n) == sigma1_by_factoring(n)


def sigma1_by_divisor_pairs(n):
    """Sum of d + n/d over the divisors d <= sqrt(n), a square root once."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d if d * d == n else d + n // d
    return total


@pytest.fixture
def no_sieve(monkeypatch):
    # an empty table, so every n >= 2 takes the factoring route
    monkeypatch.setattr(numtheory, "_sigma_table", [0, 1])


def test_sigma1_factoring_matches_divisor_sums(no_sieve):
    bound = 20_000
    sums = [0] * (bound + 1)
    for d in range(1, bound + 1):
        for m in range(d, bound + 1, d):
            sums[m] += d
    assert [sigma1(n) for n in range(1, bound + 1)] == sums[1:]


def test_sigma1_factoring_of_prime_powers_and_semiprimes(no_sieve):
    for p in (2, 3, 5, 7, 9973, 65537, 999_983):
        for e in range(1, 8):
            assert sigma1(p**e) == (p ** (e + 1) - 1) // (p - 1)
    large = (99_991, 100_003, 999_983, 1_000_003)
    for i, p in enumerate(large):
        for q in large[i:]:
            want = (1 + p) * (1 + q) if p != q else 1 + p + p * p
            assert sigma1(p * q) == want


def test_sigma1_factoring_matches_divisor_pairs_on_random_n(no_sieve):
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(2, 10**8)
        assert sigma1(n) == sigma1_by_divisor_pairs(n)


def test_sigma1_wheel_on_small_primes_and_wheel_squares(no_sieve):
    # n = 2^a 3^b 5^c 7^d p^2 q^2: the primes before the 6k +- 1 wheel, the
    # wheel's first two spokes, and squares of primes on both residues mod 6
    wheel_primes = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 97, 101, 211, 223)
    rng = random.Random(6161)
    for _ in range(200):
        n = 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 4) * 5 ** rng.randint(0, 3) * 7 ** rng.randint(0, 3)
        for p in rng.sample(wheel_primes, rng.randint(0, 2)):
            n *= p * p
        if n <= 10**10:  # the oracle loops to sqrt(n)
            assert sigma1(n) == sigma1_by_divisor_pairs(n)
    for p in (5, 7, 11, 13):
        assert sigma1(p * p) == 1 + p + p * p
        assert sigma1(4 * p**3) == 7 * (1 + p + p * p + p**3)


def test_sigma1_halving_examples():
    assert sigma1_lemma_check(6)  # 12 = 3*4
    assert sigma1_lemma_check(8)  # 15 = 3*7 - 2*3
    assert sigma1_lemma_check(7)  # vacuous for odd n


def test_odd_split_examples():
    assert odd_split_count(3, 3) == 1  # all singletons
    assert odd_split_count(3, 1) == 1  # one block of 3
    # brute-force oracle: the only odd block sizes for 5 points in 3 blocks
    # are (1,1,3), giving C(5,3) = 10 partitions
    assert odd_split_brute(5, 3) == 10
    assert odd_split_count(5, 3) == 10


def test_odd_split_parity_and_bounds():
    assert odd_split_count(4, 3) == 0  # parity mismatch
    assert odd_split_count(2, 5) == 0  # more blocks than points
    assert odd_split_count(0, 0) == 1


def test_odd_split_matches_brute_force():
    for k in range(0, 10):
        for blocks in range(0, k + 1):
            assert odd_split_count(k, blocks) == odd_split_brute(k, blocks), (k, blocks)


def test_odd_split_egf_identity():
    # sum_k s(k,l) z^k/k! = (sinh z)^l / l!, coefficient-wise to order 12
    order = 12
    sinh = Series.from_terms(
        {2 * j + 1: Fraction(1, factorial(2 * j + 1)) for j in range(order)}, order
    )
    for blocks in range(0, 8):
        lhs = Series(
            [Fraction(odd_split_count(k, blocks), factorial(k)) for k in range(order + 1)],
            order,
        )
        assert lhs == (sinh ** blocks) * Fraction(1, factorial(blocks))
