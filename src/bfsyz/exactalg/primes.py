"""Random prime generation for modular rank computations.

Primes are drawn in the 50-62 bit range: large enough that a random matrix
rank drop mod p has negligible probability, small enough that products fit
in 128-bit intermediates inside the elimination kernel.
"""

from __future__ import annotations

import random

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10^24,
# far beyond the 62-bit ceiling used here.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MIN_PRIME_BITS = 50
MAX_PRIME_BITS = 62


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
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


def random_prime(rng: random.Random, lo_bits: int = MIN_PRIME_BITS, hi_bits: int = MAX_PRIME_BITS) -> int:
    """Draw a uniform-ish random prime with between lo_bits and hi_bits bits."""
    bits = rng.randint(lo_bits, hi_bits)
    while True:
        n = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def distinct_random_primes(rng: random.Random, count: int) -> list[int]:
    found: list[int] = []
    while len(found) < count:
        p = random_prime(rng)
        if p not in found:
            found.append(p)
    return found
