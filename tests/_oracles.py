"""Independent reference implementations used to freeze expected test values.

Everything here is written the slow, obvious way on purpose: naive powering
instead of Horner, full big-integer materialization instead of streaming,
direct Lagrange evaluation instead of coefficient extraction, exhaustive
search instead of algebraic decoding, and Gao's decoder as an algebraic
reference independent of the package's syndrome decoder.  Tests compare the
package against these, never the other way around.
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


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % p
    return out


def _poly_divmod(num, den, p):
    """Quotient and remainder of ascending-coefficient polynomials mod p."""
    den = _trim(list(den))
    rem = _trim([c % p for c in num])
    if len(rem) < len(den):
        return [], rem
    quot = [0] * (len(rem) - len(den) + 1)
    lead_inv = pow(den[-1], -1, p)
    for d in range(len(rem) - 1, len(den) - 2, -1):
        factor = rem[d] * lead_inv % p
        off = d - len(den) + 1
        quot[off] = factor
        for t, c in enumerate(den):
            rem[off + t] = (rem[off + t] - factor * c) % p
    return quot, _trim(rem)


def gao_decode(message_len, block_len, p, received):
    """Gao's errors-and-erasures decoder (S. Gao, "A new algorithm for
    decoding Reed-Solomon codes", 2003) on the code evaluated at
    0..block_len-1, punctured to the non-erased positions.

    Returns (message, 1-based error positions) for the unique codeword
    within the budget 2 * errors + erasures <= block_len - message_len,
    or None.  The received word is not validated.
    """
    m = message_len
    known = [a for a, z in enumerate(received) if z is not None]
    if len(known) < m:
        return None
    vanishing = [1]
    for a in known:
        vanishing = _poly_mul(vanishing, [-a % p, 1], p)
    interpolant = [0] * len(known)
    for a in known:
        # the Lagrange basis polynomial of a, times its received value
        basis, _ = _poly_divmod(vanishing, [-a % p, 1], p)
        scale = naive_poly_eval(basis, a, p)
        factor = received[a] * pow(scale, -1, p) % p
        for t, c in enumerate(basis):
            interpolant[t] = (interpolant[t] + c * factor) % p
    r0, r1 = vanishing, _trim(interpolant)
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= len(known) + m:
        quot, rem = _poly_divmod(r0, r1, p)
        v2 = _poly_mul(quot, v1, p)
        v2 = [(x - y) % p for x, y in zip(v0 + [0] * len(v2), v2 + [0] * len(v0))]
        r0, r1, v0, v1 = r1, rem, v1, _trim(v2)
    poly, rem = _poly_divmod(r1, v1, p)
    if rem or len(poly) > m:
        return None
    codeword = [naive_poly_eval(poly, a, p) for a in range(block_len)]
    errors = frozenset(a + 1 for a in known if codeword[a] != received[a])
    if len(errors) > (len(known) - m) // 2:
        return None
    return tuple(codeword[:m]), errors


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
