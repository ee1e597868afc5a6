"""Independent reference implementations used to freeze expected test values.

Everything here is written the slow, obvious way on purpose: naive powering
instead of Horner, full big-integer materialization instead of streaming,
direct Lagrange evaluation instead of coefficient extraction, and exhaustive
search instead of algebraic decoding.  Tests compare the package against
these, never the other way around.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def naive_poly_eval(coeffs, point, p):
    """sum(c_i * point**i) mod p, with naive powering."""
    return sum(c * pow(point, i, p) for i, c in enumerate(coeffs)) % p


def sieve_upto(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit + 1) if flags[i]]


def first_primes(count):
    limit = 16
    while True:
        primes = sieve_upto(limit)
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def guess_mass(fam, t):
    """Sum of 1/|alphabet| over the challenges t+1..n, one Fraction at a time."""
    return sum((Fraction(1, fam.alphabet(i)) for i in range(t + 1, fam.n + 1)), Fraction(0))


def bignat_digits_msf(x):
    """Base-2**32 digits of the natural x, most significant first; () for 0."""
    digits = []
    while x:
        digits.append(x & 0xFFFFFFFF)
        x >>= 32
    return tuple(reversed(digits))


def digits_mod(digits_msf, p):
    """Materialize the full integer from base-2**32 digits, then reduce."""
    x = 0
    for d in digits_msf:
        x = (x << 32) | d
    return x % p


def crt_reconstruct(residues, moduli):
    """Smallest x >= 0 with x = r_i (mod m_i), via pairwise merging."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        # solve x + m*t = r (mod mi)
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x


def lagrange_eval(points, values, at, p):
    """Evaluate the unique degree-<len(points) interpolant directly."""
    total = 0
    for j, (xj, yj) in enumerate(zip(points, values)):
        num, den = 1, 1
        for i, xi in enumerate(points):
            if i == j:
                continue
            num = (num * (at - xi)) % p
            den = (den * (xj - xi)) % p
        total = (total + yj * num * pow(den, -1, p)) % p
    return total % p


def rs_codeword(v, block_len, p):
    """Systematic RS encoding through direct Lagrange evaluation."""
    pts = list(range(len(v)))
    return tuple(lagrange_eval(pts, v, a, p) for a in range(block_len))


def decodable_codewords(message_len, block_len, p, received):
    """All (message, error_set) reachable from `received` within the
    error-and-erasure budget 2r + e <= block_len - message_len.

    `received` uses None for erasures.  Error positions are 1-based.
    """
    erased = sum(1 for z in received if z is None)
    budget = block_len - message_len
    out = []
    for msg in product(range(p), repeat=message_len):
        cw = rs_codeword(msg, block_len, p)
        errs = frozenset(
            i + 1 for i, (c, z) in enumerate(zip(cw, received)) if z is not None and c != z
        )
        if 2 * len(errs) + erased <= budget:
            out.append((msg, errs))
    return out


def pairwise_min_distance(codewords):
    return min(
        sum(1 for a, b in zip(u, v) if a != b) for u, v in combinations(codewords, 2)
    )


def pairwise_max_agreement(codewords, n):
    best = Fraction(0)
    for u, v in combinations(codewords, 2):
        agree = sum(1 for a, b in zip(u, v) if a == b)
        best = max(best, Fraction(agree, n))
    return best


def wilson_free_halfwidth(p, trials, sigmas=3):
    """Half-width sigmas * sqrt(p(1-p)/T) used for Monte Carlo acceptance."""
    return sigmas * (float(p) * (1.0 - float(p)) / trials) ** 0.5
