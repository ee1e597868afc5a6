"""Hash families viewed as error-correcting codes.

The block map x -> (h_1(x), ..., h_n(x)) of an almost-universal family is a
code whose relative distance is one minus the collision bound.  This module
certifies such codes exhaustively at toy sizes (distance, Johnson-radius
list sizes) and provides a small systematic Reed-Solomon codec whose
decoder corrects r errors and e erasures whenever 2r + e fits the
redundancy, reporting the exact error positions.

The codec is a set of linear maps kept per code shape: encoding multiplies
the message by a parity matrix, O(m * (l - m)) for m message and l block
symbols.  Decoding returns a clean word after one re-encoding and
otherwise runs Gao's algorithm (S. Gao, "A new algorithm for decoding
Reed-Solomon codes", 2003) in O(l**2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .algebra import is_prime
from .errors import CapacityError, UsageError
from .hash_families import (
    HashFamilyDescriptor,
    KIND_POLYNOMIAL,
    enumerate_messages,
    hash_all,
)

# A received word holds one symbol per coordinate, None marking an erasure.
ERASED = None
ReceivedWord = Sequence[Optional[int]]

_DISTANCE_CAP_MESSAGES = 2048
_LIST_DECODE_CAP_MESSAGES = 10**6

# Reed-Solomon tables kept: code shapes, and erasure patterns per decoder.
_CACHED_SHAPES = 64
_CACHED_PATTERNS = 256


def encode(fam: HashFamilyDescriptor, x) -> tuple[int, ...]:
    """Codeword of message x: all n hash values in index order."""
    return hash_all(fam, x)


def hamming_distance(u: ReceivedWord, v: ReceivedWord) -> int:
    """Mismatch count; an erased coordinate matches nothing."""
    if len(u) != len(v):
        raise UsageError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a is None or b is None or a != b)


def min_distance_exhaustive(fam: HashFamilyDescriptor) -> int:
    """Exact minimum pairwise distance, by enumerating every codeword pair."""
    count = fam.message_space
    if count > _DISTANCE_CAP_MESSAGES:
        raise CapacityError(
            f"distance check enumerates {count} messages, above the cap of"
            f" {_DISTANCE_CAP_MESSAGES}"
        )
    words = [hash_all(fam, x) for x in enumerate_messages(fam)]
    best = fam.n
    for a in range(len(words)):
        wa = words[a]
        for b in range(a + 1, len(words)):
            dist = sum(1 for s, t in zip(wa, words[b]) if s != t)
            if dist < best:
                best = dist
    return best


def johnson_radius(n: int, d: int) -> int:
    """floor((1 - sqrt(1 - d/n)) * n), via exact integer square roots.

    Up to this many corrupted coordinates, the list of matching codewords
    of any code with distance d and block length n stays polynomially small.
    """
    if n < 1 or not 0 <= d <= n:
        raise UsageError(f"need 0 <= d <= n with n >= 1, got n={n}, d={d}")
    target = n * (n - d)
    s = math.isqrt(target)
    return n - s if s * s == target else n - s - 1


def johnson_list_size_bound(fam: HashFamilyDescriptor) -> int:
    """List-size bound 2 * sum of alphabet sizes at the Johnson radius."""
    return 2 * sum(fam.alphabets())


def brute_force_list_decode(
    fam: HashFamilyDescriptor, z: ReceivedWord, radius: int
) -> list:
    """All messages whose codeword is within `radius` of z, in message order.

    Cycles the entire message space, so it refuses families with more than
    a million messages.
    """
    if len(z) != fam.n:
        raise UsageError(f"received word must have {fam.n} symbols, got {len(z)}")
    for i, sym in enumerate(z):
        if sym is None:
            continue
        if not isinstance(sym, int) or not 0 <= sym < fam.alphabet(i + 1):
            raise UsageError(f"symbol {sym!r} at position {i + 1} out of range")
    if radius < 0:
        raise UsageError(f"radius must be non-negative, got {radius}")
    count = fam.message_space
    if count > _LIST_DECODE_CAP_MESSAGES:
        raise CapacityError(
            f"list decoding cycles {count} messages, above the cap of"
            f" {_LIST_DECODE_CAP_MESSAGES}"
        )
    hits = []
    for x in enumerate_messages(fam):
        cw = hash_all(fam, x)
        dist = sum(1 for a, b in zip(cw, z) if b is None or a != b)
        if dist <= radius:
            hits.append(x)
    return hits


@dataclass(frozen=True)
class SystematicRSCode:
    """Reed-Solomon code over F_q evaluated at the points 0..block_len-1.

    Encoding is systematic: the first message_len codeword symbols are the
    message itself.  The shape is validated once per (message_len,
    block_len, q), together with building its encoding tables.
    """

    message_len: int
    block_len: int
    q: int

    def __post_init__(self):
        _code_tables(self.message_len, self.block_len, self.q)


@lru_cache(maxsize=_CACHED_SHAPES)
def _code_tables(m: int, ell: int, q: int):
    """Validate a code shape; return its parity matrix and power rows.

    Parity row j holds L_i(m + j) for the Lagrange basis L_0..L_{m-1} on the
    points 0..m-1, so the parity symbols of a message v are the row-by-v
    products.  Power row a holds a**0..a**(m-1), so the codeword of a
    polynomial of degree below m is the row-by-coefficient products.
    """
    if not 1 <= m <= ell:
        raise UsageError(f"need 1 <= message_len <= block_len, got {m}, {ell}")
    if not is_prime(q):
        raise UsageError(f"q must be prime, got {q}")
    if ell > q:
        raise UsageError(f"block length {ell} exceeds field size {q}")
    # L_i(a) = prod_{j < m} (a - j) / (a - i) / prod_{j != i} (i - j), whose
    # last factor is (-1)**(m-1-i) * i! * (m-1-i)!.  Every difference lies in
    # 1..ell-1, so one table of inverses serves all entries.
    inv = [0] + [pow(d, -1, q) for d in range(1, ell)]
    inv_fact = [1]
    for d in range(1, m):
        inv_fact.append(inv_fact[-1] * inv[d] % q)
    inv_den = [(-1) ** (m - 1 - i) * inv_fact[i] * inv_fact[m - 1 - i] for i in range(m)]
    parity = []
    for a in range(m, ell):
        full = 1
        for j in range(m):
            full = full * (a - j) % q
        parity.append(tuple(full * inv[a - i] * inv_den[i] % q for i in range(m)))
    powers = []
    for a in range(ell):
        row = [1] * m
        for t in range(1, m):
            row[t] = row[t - 1] * a % q
        powers.append(tuple(row))
    return tuple(parity), tuple(powers)


def rs_encode_systematic(code: SystematicRSCode, v: Sequence[int]) -> tuple[int, ...]:
    """Codeword of message v: v itself, then its parities, O(m * (l - m))."""
    q = code.q
    if len(v) != code.message_len:
        raise UsageError(f"message must have {code.message_len} symbols, got {len(v)}")
    for sym in v:
        if not isinstance(sym, int) or not 0 <= sym < q:
            raise UsageError(f"symbol {sym!r} outside [0, {q})")
    v = tuple(v)
    parity, _ = _code_tables(code.message_len, code.block_len, q)
    return v + tuple(sum(map(mul, row, v)) % q for row in parity)


@lru_cache(maxsize=_CACHED_PATTERNS)
def _interpolation_tables(points: tuple[int, ...], q: int):
    """prod (X - a) over the points, and the Lagrange basis by coefficient.

    Column t holds the X**t coefficients of the basis polynomials, so the
    interpolant of values y has coefficient t equal to column t times y.
    """
    vanishing = [1]
    for a in points:
        vanishing = [(lo - a * hi) % q for lo, hi in zip([0] + vanishing, vanishing + [0])]
    basis = []
    for a in points:
        # vanishing / (X - a) by synthetic division, scaled to 1 at a
        quot = [0] * len(points)
        carry = 0
        for t in range(len(points), 0, -1):
            carry = quot[t - 1] = (vanishing[t] + a * carry) % q
        at_a = 1
        for b in points:
            if b != a:
                at_a = at_a * (a - b) % q
        scale = pow(at_a, -1, q)
        basis.append([c * scale % q for c in quot])
    return tuple(vanishing), tuple(zip(*basis))


def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_divmod(
    num: Sequence[int], den: Sequence[int], q: int
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ascending-coefficient polynomials mod q."""
    den = _trim(list(den))
    if not den:
        raise UsageError("division by the zero polynomial")
    rem = _trim([c % q for c in num])
    if len(rem) < len(den):
        return [], rem
    quot = [0] * (len(rem) - len(den) + 1)
    lead_inv = pow(den[-1], -1, q)
    for d in range(len(rem) - 1, len(den) - 2, -1):
        factor = rem[d] * lead_inv % q
        quot[d - len(den) + 1] = factor
        if factor:
            off = d - len(den) + 1
            for t, c in enumerate(den):
                rem[off + t] = (rem[off + t] - factor * c) % q
    return quot, _trim(rem)


def rs_decode_errors_erasures(
    code: SystematicRSCode, z: ReceivedWord
) -> tuple[tuple[int, ...], frozenset[int]] | None:
    """Correct errors and erasures, reporting exact 1-based error positions.

    Returns (message, error_positions) when some codeword sits within the
    budget 2*errors + erasures <= block_len - message_len of z (that
    codeword is then unique), and None when none does.

    A word with no erasures whose parities match its re-encoded message is
    returned at once with no errors, at the cost of one encoding.  Any other
    word goes to Gao's decoder on the code punctured to the N non-erased
    positions: interpolate the received values, run the extended Euclidean
    algorithm on that interpolant and prod (X - a) until the remainder's
    degree drops below (N + message_len) / 2, then divide the remainder by
    its cofactor.  That is O(block_len**2); the interpolation tables are
    kept for the most recent erasure patterns.
    """
    ell, m, q = code.block_len, code.message_len, code.q
    if len(z) != ell:
        raise UsageError(f"received word must have {ell} symbols, got {len(z)}")
    known = []
    for a, sym in enumerate(z):
        if sym is None:
            continue
        if not isinstance(sym, int) or not 0 <= sym < q:
            raise UsageError(f"symbol {sym!r} at position {a + 1} out of range")
        known.append(a)
    parity, powers = _code_tables(m, ell, q)
    if len(known) == ell:
        message = tuple(z[:m])
        if all(sum(map(mul, row, message)) % q == sym for row, sym in zip(parity, z[m:])):
            return message, frozenset()
    n_known = len(known)
    if n_known < m:
        return None
    vanishing, columns = _interpolation_tables(tuple(known), q)
    values = [z[a] for a in known]
    r0, r1 = vanishing, _trim([sum(map(mul, col, values)) % q for col in columns])
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n_known + m:
        quot, rem = _poly_divmod(r0, r1, q)
        v2 = v0 + [0] * (len(quot) + len(v1) - 1 - len(v0))
        for i, c in enumerate(quot):
            for j, d in enumerate(v1):
                v2[i + j] -= c * d
        r0, r1, v0, v1 = r1, rem, v1, _trim([c % q for c in v2])
    poly, rem = _poly_divmod(r1, v1, q)
    if rem or len(poly) > m:
        return None
    codeword = [sum(map(mul, row, poly)) % q for row in powers]
    errors = frozenset(a + 1 for a in known if codeword[a] != z[a])
    # The cofactor's degree, at most (N - m) / 2, already bounds the error
    # count; the check states the decoder's contract outright.
    if len(errors) > (n_known - m) // 2:
        return None
    return tuple(codeword[:m]), errors
