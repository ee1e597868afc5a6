"""Prime numbers and polynomial evaluation over prime fields.

Field elements are plain Python ints holding canonical residues; the hash
families check their ranges.  ``DIGIT_BASE`` is the base of the digit
stream in which a karp-rabin message can be streamed, most significant
digit first.
"""
from __future__ import annotations

import math
from itertools import compress, islice
from typing import Callable, Sequence

from .errors import CapacityError, UsageError

DIGIT_BASE = 2**32

# Witness set making Miller-Rabin deterministic for every n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_FIRST_N_PRIMES_CAP = 2_000_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 0 <= n < 2**64."""
    if n >= 2**64:
        raise UsageError(f"primality check certified only below 2**64, got {n}")
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_at_least(n: int) -> int:
    m = max(n, 2)
    while not is_prime(m):
        m += 1
    return m


def first_n_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes, by a sieve of Eratosthenes over odd numbers."""
    if count < 1:
        raise UsageError("prime count must be at least 1")
    if count > _FIRST_N_PRIMES_CAP:
        raise CapacityError(f"prime count {count} exceeds cap {_FIRST_N_PRIMES_CAP}")
    if count < 6:
        limit = 16
    else:
        # p_n < n(ln n + ln ln n) for n >= 6
        limit = int(count * (math.log(count) + math.log(math.log(count)))) + 1
    while True:
        odds = range(1, limit + 1, 2)  # flags[i] stands for 2i + 1
        flags = bytearray([0]) + bytearray([1]) * (len(odds) - 1)
        for p in range(3, math.isqrt(limit) + 1, 2):
            if flags[p // 2]:
                flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odds), p)))
        primes = [2, *compress(odds, flags)]
        if len(primes) >= count:
            return tuple(primes[:count])
        limit *= 2


def tree_reduce(op: Callable, items: Sequence, leaf: Callable = lambda item: item):
    """Combine ``leaf(item)`` over a non-empty sequence with the associative
    ``op``, by halves and depth first, so that big operands grow evenly:
    Bernstein's product tree ("Fast multiplication and its applications",
    2008) multiplies m word-sized numbers in quasi-linear time, not O(m**2)."""
    if len(items) == 1:
        return leaf(items[0])
    half = len(items) // 2
    return op(tree_reduce(op, items[:half], leaf), tree_reduce(op, items[half:], leaf))


def poly_eval_mod(coeffs: Sequence[int], point: int, p: int) -> int:
    """Horner evaluation of sum(coeffs[i] * point**i) mod p on raw ints.

    Unchecked fast path: the caller guarantees canonical residues.  After
    plain Horner over the len % 4 highest coefficients, four go per reduction
    (Knuth, TAOCP vol. 2, 4.6.4): acc = (acc*t**4 + a*t**3 + b*t**2 + c*t + d)
    % p with t = point, exact for any p, one machine digit while 5p**2 < 2**30.
    """
    top = reversed(tuple(coeffs))  # free for a tuple; a subclass iterates slowly
    acc = 0
    for c in islice(top, len(coeffs) % 4):
        acc = (acc * point + c) % p
    t2 = point * point % p
    t3, t4 = t2 * point % p, t2 * t2 % p
    for a, b, c, d in zip(top, top, top, top):
        acc = (acc * t4 + a * t3 + b * t2 + c * point + d) % p
    return acc
