"""Prime numbers and polynomial evaluation over prime fields.

Field elements are plain Python ints holding canonical residues; the hash
families check their ranges.  :func:`poly_evaluator` packs the coefficients
of s polynomials into big ints once; each point then costs about
2*sqrt(d*s) Python-level steps for d coefficients each, and the rest runs
as C big-int arithmetic.  ``DIGIT_BASE`` is the base of the digit stream in
which a karp-rabin message can be streamed, most significant digit first.
"""
from __future__ import annotations

import math
import struct
import sys
from array import array
from itertools import compress, repeat
from operator import mul
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


def poly_evaluator(polys: Sequence, p: int) -> Callable[[int], list]:
    """Pack the coefficient sequences ``polys`` once and return the function
    point -> [sum(c[i] * point**i) mod p for each c in polys].

    Baby-step/giant-step (Paterson-Stockmeyer, SIAM J. Comput. 1973) with
    the inner products done on packed ints (Kronecker substitution).  With
    d the longest length, s = len(polys), m ~ sqrt(d/s) and i = a + m*b,
    row b is one int holding c_j[a + m*b] in lane a*s + j of 64*w bits.  A
    point costs the L = ceil(d/m) powers of u = point**m, one dot product of
    the rows with them, and m*s Horner steps over the lanes.  Every lane
    stays below L*(p-1)**2 < 2**(64*w), so none carries into the next.

    Each sequence is a sequence of ints or a contiguous memoryview of
    native 64-bit words (format ``"Q"``).  Words are copied into their
    lanes with one buffer copy each; one sequence of words whose lanes
    are one word wide (w = 1) already has the packed layout on a
    little-endian host, so its rows are cut from its own buffer.
    Unchecked: the caller guarantees residues in [0, p), with p < 2**64.
    """
    s, d = len(polys), max(map(len, polys), default=0)
    m = max(1, round(math.sqrt(d / s))) if d else 1
    count = -(-d // m)  # L
    w = max(1, -(-(count * (p - 1) ** 2).bit_length() // 64))
    width = 8 * m * s * w
    if s == w == 1 and isinstance(polys[0], memoryview) and sys.byteorder == "little":
        view = polys[0].cast("B")  # the last row may be short: its missing lanes are 0
        rows = [int.from_bytes(view[b * width : (b + 1) * width], "little") for b in range(count)]
    else:
        flat = array("Q", bytes(8 * count * m * s * w))
        for j, coeffs in enumerate(polys):
            if isinstance(coeffs, memoryview):
                source = array("Q")
                source.frombytes(coeffs.cast("B"))
            else:
                # array() has a fast path for a tuple or a list; anything
                # else, such as a checked sequence, is read through an iterator
                source = array("Q", coeffs if type(coeffs) in (tuple, list) else iter(coeffs))
            flat[j * w : len(coeffs) * s * w : s * w] = source
        if sys.byteorder == "big":  # the packed ints are little-endian
            flat.byteswap()
        # one C call cuts every row, where a slice per row costs a Python step
        rows = list(map(int.from_bytes, struct.unpack(f"{width}s" * count, flat), repeat("little")))
    if w == 1:
        unpack = struct.Struct(f"<{m * s}Q").unpack
    else:
        unpack = lambda packed: [int.from_bytes(packed[i : i + 8 * w], "little")
                                 for i in range(0, width, 8 * w)]

    def evaluate(point: int) -> list:
        u = pow(point, m, p)
        powers = [1] * count
        for b in range(1, count):
            powers[b] = powers[b - 1] * u % p
        lanes = unpack(sum(map(mul, rows, powers)).to_bytes(width, "little"))
        values = []
        for j in range(s):
            acc = 0
            for lane in reversed(lanes[j::s]):
                acc = (acc * point + lane) % p
            values.append(acc)
        return values

    return evaluate
