"""Hash families viewed as error-correcting codes.

The block map x -> (h_1(x), ..., h_n(x)) of an almost-universal family is a
code whose relative distance is one minus the collision bound.  This module
certifies such codes exhaustively at toy sizes (distance, Johnson-radius
list sizes) and provides a small systematic Reed-Solomon codec whose
decoder corrects r errors and e erasures whenever 2r + e fits the
redundancy, reporting the exact error positions.

The codec is a set of linear maps kept per code shape: encoding multiplies
the message by a parity matrix, O(m * (l - m)) for m message and l block
symbols.  Decoding punctures the code to the word's non-erased positions,
computes the syndromes against check rows kept per erasure pattern, and
locates any errors by Berlekamp-Massey (J. L. Massey, "Shift-register
synthesis and BCH decoding", IEEE Trans. IT, 1969), in O(l * (l - m)).
Locating is a step of its own: an audit's verdict needs the error
positions only, and the decoder erases them and rebuilds the message.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Optional, Sequence

from .algebra import is_prime
from .errors import UsageError
from .hash_families import (
    HashFamilyDescriptor,
    KIND_POLYNOMIAL,
    _guard_exhaustive,
    enumerate_codewords,
    hash_all,
)

# A received word holds one symbol per coordinate, None marking an erasure.
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
    _guard_exhaustive(fam, _DISTANCE_CAP_MESSAGES, "distance check")
    words = [word for _, word in enumerate_codewords(fam)]
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
    return 2 * (fam.n * fam.q if fam.kind == KIND_POLYNOMIAL else sum(fam.primes))


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
    _guard_exhaustive(fam, _LIST_DECODE_CAP_MESSAGES, "list decoding")
    hits = []
    for x, cw in enumerate_codewords(fam):
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

    @classmethod
    @lru_cache(maxsize=_CACHED_SHAPES)
    def cached(cls, message_len: int, block_len: int, q: int) -> "SystematicRSCode":
        """The code of this shape, made once while the shape stays cached."""
        return cls(message_len, block_len, q)


@lru_cache(maxsize=_CACHED_SHAPES)
def _code_tables(m: int, ell: int, q: int):
    """Validate a code shape; return its parity matrix.

    Parity row j holds L_i(m + j) for the Lagrange basis L_0..L_{m-1} on the
    points 0..m-1, so the parity symbols of a message v are the row-by-v
    products.
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
    return tuple(parity)


def rs_encode_systematic(code: SystematicRSCode, v: Sequence[int]) -> tuple[int, ...]:
    """Codeword of message v: v itself, then its parities, O(m * (l - m))."""
    q = code.q
    if len(v) != code.message_len:
        raise UsageError(f"message must have {code.message_len} symbols, got {len(v)}")
    for sym in v:
        if not isinstance(sym, int) or not 0 <= sym < q:
            raise UsageError(f"symbol {sym!r} outside [0, {q})")
    v = tuple(v)
    parity = _code_tables(code.message_len, code.block_len, q)
    return v + tuple(sum(map(mul, row, v)) % q for row in parity)


@lru_cache(maxsize=_CACHED_PATTERNS)
def _pattern_tables(known: tuple[int, ...], m: int, q: int):
    """Check rows of the code punctured to the N known points, and (i, row
    on the first m values) per erased message position i.

    With w_a = prod_{b != a} (a - b) over a point set, the sum of g(a) / w_a
    vanishes for every g of degree below the set's size minus 1.  So the
    rows a**j / w_a (j < N - m) check the punctured code, and the sum over
    the first m known points and an erased message position i rebuilds i.
    """

    def weights(points):  # reduced at every step: an exact product costs O(N**3)
        return [reduce(lambda w, b: w * (a - b) % q if b != a else w, points, 1) for a in points]

    row = [pow(d, -1, q) for d in weights(known)]
    checks = []
    for _ in range(len(known) - m):
        checks.append(tuple(row))
        row = [c * a % q for c, a in zip(row, known)]
    rebuild = []
    for i in sorted(set(range(m)) - set(known)):
        *base, at_i = weights(known[:m] + (i,))
        rebuild.append((i, tuple(-at_i * pow(d, -1, q) % q for d in base)))
    return tuple(checks), tuple(rebuild)


def _berlekamp_massey(s: Sequence[int], q: int) -> tuple[list[int], int]:
    """Shortest linear recurrence of s over F_q (J. L. Massey, 1969): (C, L)
    with C[0] = 1 and sum_{i <= L} C[i] * s[j - i] = 0 for L <= j < len(s)."""
    c, b = [1] + [0] * len(s), [1] + [0] * len(s)
    length, shift, last_inv = 0, 1, 1
    for j in range(len(s)):
        d = sum(c[i] * s[j - i] for i in range(length + 1)) % q
        if d:
            prev, coef = c[:], d * last_inv % q
            for i in range(len(s) + 1 - shift):
                c[i + shift] = (c[i + shift] - coef * b[i]) % q
            if 2 * length <= j:
                length, b, last_inv, shift = j + 1 - length, prev, pow(d, -1, q), 0
        shift += 1
    return c, length


def rs_locate_errors(code: SystematicRSCode, z: ReceivedWord) -> frozenset[int] | None:
    """The 1-based error positions :func:`rs_decode_errors_erasures` reports
    for z, or None where it returns None, without the message.  z must hold
    block_len symbols, each None or an int in [0, q): this step checks none.

    S_j sums error(a) * a**j / w_a over the error points a.  From C(x) =
    prod (1 - a*x), the locator x**L * C(1/x) keeps a root at 0 too.  The
    roots settle the decode: when 2L <= len(S) and they are L distinct known
    points, the sum over them of y_a * a**j fitted on S_0..S_{L-1} satisfies
    the recurrence C, as S does, so it equals S on every syndrome; and no
    y_a is 0, or a shorter recurrence would generate S, where
    Berlekamp-Massey returns the shortest.  So each root carries a nonzero
    error, and the word less its errors is a codeword within the budget.
    """
    m, q = code.message_len, code.q
    known = tuple(a for a, sym in enumerate(z) if sym is not None)
    if len(known) < m:
        return None
    values = [z[a] for a in known]
    syndromes = [sum(map(mul, row, values)) % q for row in _pattern_tables(known, m, q)[0]]
    if not any(syndromes):
        return frozenset()
    c, length = _berlekamp_massey(syndromes, q)
    if 2 * length > len(syndromes):
        return None
    sigma = c[: length + 1]  # x**L * C(1/x), highest power first
    if length == 1:
        roots = [a for a in (-sigma[1] % q,) if a in known]
    else:
        roots = [a for a in known if not reduce(lambda v, k: (v * a + k) % q, sigma, 0)]
    return frozenset(a + 1 for a in roots) if len(roots) == length else None


def rs_decode_errors_erasures(
    code: SystematicRSCode, z: ReceivedWord
) -> tuple[tuple[int, ...], frozenset[int]] | None:
    """Correct errors and erasures, reporting exact 1-based error positions.

    Returns (message, error_positions) when some codeword sits within the
    budget 2*errors + erasures <= block_len - message_len of z (that
    codeword is then unique), and None when none does.

    It checks z, then locates the errors with :func:`rs_locate_errors`.  The
    word with its error positions erased too is that codeword punctured, so
    its erased message symbols are rebuilt from its first message_len
    values, with rows kept per recent erasure pattern.
    """
    ell, m, q = code.block_len, code.message_len, code.q
    if len(z) != ell:
        raise UsageError(f"received word must have {ell} symbols, got {len(z)}")
    for a, sym in enumerate(z):
        if sym is not None and not (isinstance(sym, int) and 0 <= sym < q):
            raise UsageError(f"symbol {sym!r} at position {a + 1} out of range")
    errors = rs_locate_errors(code, z)
    if errors is None:
        return None
    known = tuple(a for a, sym in enumerate(z) if sym is not None and a + 1 not in errors)
    values = [z[a] for a in known]
    rebuild = _pattern_tables(known, m, q)[1]
    if not rebuild:
        return tuple(values[:m]), errors
    message = dict(zip(known, values))
    message.update((i, sum(map(mul, row, values)) % q) for i, row in rebuild)
    return tuple(message[i] for i in range(m)), errors
