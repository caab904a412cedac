"""Integer-sequence primitives: divisor sums and odd-block split counts."""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import DomainError

_sigma_table: list[int] = [0, 1]


def sigma1_table(n: int) -> list[int]:
    """Divisor sums sigma_1(0..n) by sieve; entry 0 is a placeholder 0.

    Grown once and cached; concurrent readers only ever see a fully built
    table because the module swaps the reference after filling.
    """
    global _sigma_table
    if n < len(_sigma_table):
        return _sigma_table
    size = max(n + 1, 2 * len(_sigma_table))
    table = [0] * size
    for d in range(1, size):
        for m in range(d, size, d):
            table[m] += d
    _sigma_table = table
    return table


def sigma1(n: int) -> int:
    """Sum of the positive divisors of n.  Past the sieve table, the product
    of 1 + p + ... + p^e over the prime powers p^e exactly dividing n: each
    prime is divided out as it is found, and the search stops at the square
    root of the remaining cofactor, which is then 1 or a prime.  The
    candidates are 2, 3 and the numbers 6k +- 1, a third of all integers;
    no prime list is kept, since n may lie far past any that fits."""
    if n < 1:
        raise DomainError("sigma1 requires n >= 1")
    if n < len(_sigma_table):
        return _sigma_table[n]
    total, p, step = 1, 2, 1
    while p * p <= n:
        if n % p == 0:
            power_sum = 1
            while n % p == 0:
                n //= p
                power_sum = power_sum * p + 1
            total *= power_sum
        p += step
        step = 6 - step if p > 5 else 2  # 2, 3, then 6k - 1 and 6k + 1: 5, 7, 11, 13, ...
    return total * (n + 1) if n > 1 else total


def sigma1_lemma_check(n: int) -> bool:
    """Divisor-sum halving laws: sigma1(n) = 3 sigma1(n/2) for n = 2 mod 4,
    and sigma1(n) = 3 sigma1(n/2) - 2 sigma1(n/4) for n = 0 mod 4.
    Vacuously true for odd n."""
    if n < 1:
        raise DomainError("requires n >= 1")
    if n % 2 == 1:
        return True
    if n % 4 == 2:
        return sigma1(n) == 3 * sigma1(n // 2)
    return sigma1(n) == 3 * sigma1(n // 2) - 2 * sigma1(n // 4)


@lru_cache(maxsize=None)
def odd_split_count(k: int, blocks: int) -> int:
    """Ways to split k labeled points into ``blocks`` unordered odd-sized
    collections.  Zero unless k = blocks (mod 2) and blocks <= k.

    Computed by recursion on the block containing the last point (choose its
    2j companions), which keeps every intermediate an exact integer.
    """
    if k < 0 or blocks < 0:
        return 0
    if k == 0:
        return 1 if blocks == 0 else 0
    if blocks == 0 or blocks > k or (k - blocks) % 2 != 0:
        return 0
    total = 0
    for j in range(0, (k - 1) // 2 + 1):
        rest = k - 2 * j - 1
        if rest >= blocks - 1:
            total += comb(k - 1, 2 * j) * odd_split_count(rest, blocks - 1)
    return total
