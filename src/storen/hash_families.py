"""Two almost-universal hash families with exact collision accounting.

A family is a list of n keyed hash functions h_1..h_n over a k-symbol
message space.  For any two distinct messages the fraction of keys on which
the hashes agree is at most (k-1)/n for both constructions:

* polynomial: messages are k coefficients over a prime field F_q with
  n <= q; h_i evaluates the message polynomial at the point i-1.
* karp-rabin: messages are naturals below the product of the first k
  primes; h_i reduces the message modulo the i-th prime.

`derive_family(kind, k, epsilon)` picks n = ceil(k / epsilon**2), so the
agreement fraction is at most epsilon**2 and list decoding of the induced
code is certified out to a (1 - epsilon) fraction of the block.
"""
from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

from .algebra import (
    DIGIT_BASE,
    first_n_primes,
    is_prime,
    next_prime_at_least,
    poly_eval_mod,
    tree_reduce,
)
from .errors import CapacityError, UsageError

KIND_POLYNOMIAL = "polynomial"
KIND_KARP_RABIN = "karp-rabin"

_KIND_TAGS = {KIND_POLYNOMIAL: 1, KIND_KARP_RABIN: 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}

# Message for the polynomial kind: k residues; for karp-rabin: one natural.
Message = Union[Sequence[int], int]

_COLLISION_CAP_MESSAGES = 2048


@dataclass(frozen=True)
class HashFamilyDescriptor:
    """Complete, serializable description of one hash family.

    `epsilon_target` is derivation metadata; it does not participate in
    equality, serialization, or the fingerprint.
    """

    kind: str
    k: int
    n: int
    q: int | None = None
    primes: tuple[int, ...] | None = None
    epsilon_target: Fraction | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KIND_TAGS:
            raise UsageError(f"unknown family kind {self.kind!r}")
        if not 1 <= self.k <= self.n:
            raise UsageError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.kind == KIND_POLYNOMIAL:
            if self.primes is not None:
                raise UsageError("polynomial families carry no prime list")
            if self.q is None or not is_prime(self.q):
                raise UsageError(f"q must be prime, got {self.q}")
            if self.n > self.q:
                raise UsageError(f"need n <= q, got n={self.n}, q={self.q}")
        else:
            if self.q is not None:
                raise UsageError("karp-rabin families have no single modulus")
            if self.primes is None:
                object.__setattr__(self, "primes", first_n_primes(self.n))
            elif self.primes != first_n_primes(self.n):
                raise UsageError("prime list must be the first n primes")

    @property
    def message_primes(self) -> tuple[int, ...]:
        if self.kind != KIND_KARP_RABIN:
            raise UsageError("message_primes applies to karp-rabin only")
        return self.primes[: self.k]

    @cached_property
    def message_space(self) -> int:
        """Number of messages: q**k, or the product of the k message primes.

        Computed once per descriptor, the karp-rabin product by a balanced
        tree: about 0.1 s at k = 50 000, where a running product takes
        about 0.8 s.
        """
        if self.kind == KIND_POLYNOMIAL:
            return self.q**self.k
        return tree_reduce(operator.mul, self.message_primes)

    @cached_property
    def fingerprint(self) -> bytes:
        """SHA-256 of the canonical descriptor encoding, computed once per
        descriptor; :func:`family_fingerprint` returns it."""
        return hashlib.sha256(descriptor_to_bytes(self)).digest()

    @property
    def epsilon_actual(self) -> Fraction:
        """Exact agreement bound (k-1)/n of this family."""
        return Fraction(self.k - 1, self.n)

    def alphabet(self, i: int) -> int:
        """Size of the response alphabet of h_i (1-based)."""
        _check_index(self, i)
        return self.q if self.kind == KIND_POLYNOMIAL else self.primes[i - 1]

    def alphabets(self) -> tuple[int, ...]:
        if self.kind == KIND_POLYNOMIAL:
            return (self.q,) * self.n
        return self.primes

    @property
    def symbol_bits(self) -> int:
        """Bits needed for the widest response symbol."""
        widest = self.q if self.kind == KIND_POLYNOMIAL else self.primes[-1]
        return (widest - 1).bit_length()

    @property
    def challenge_bits(self) -> int:
        """Bits needed for a challenge index in [1, n]."""
        return (self.n - 1).bit_length()


def polynomial_family(
    k: int, n: int, q: int | None = None, epsilon_target=None
) -> HashFamilyDescriptor:
    if q is None:
        q = next_prime_at_least(n)
    return HashFamilyDescriptor(
        KIND_POLYNOMIAL, k, n, q=q, epsilon_target=epsilon_target
    )


def karp_rabin_family(k: int, n: int, epsilon_target=None) -> HashFamilyDescriptor:
    return HashFamilyDescriptor(KIND_KARP_RABIN, k, n, epsilon_target=epsilon_target)


def derive_family(kind: str, k: int, epsilon) -> HashFamilyDescriptor:
    """Pick the family size for a target enforcement gap epsilon in (0, 1],
    given as anything :class:`~fractions.Fraction` takes, such as ``"1/4"``.

    n = ceil(k / epsilon**2); the polynomial kind then uses the smallest
    prime q >= n.  Arithmetic is exact, so boundary cases do not wobble.
    """
    if k < 1:
        raise UsageError(f"k must be at least 1, got {k}")
    try:
        eps = Fraction(epsilon)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"epsilon {epsilon!r} is not a number") from None
    if not 0 < eps <= 1:
        raise UsageError(f"epsilon must lie in (0, 1], got {epsilon}")
    n = math.ceil(Fraction(k) / (eps * eps))
    if kind == KIND_POLYNOMIAL:
        return polynomial_family(k, n, epsilon_target=eps)
    if kind == KIND_KARP_RABIN:
        return karp_rabin_family(k, n, epsilon_target=eps)
    raise UsageError(f"unknown family kind {kind!r}")


def _check_index(fam: HashFamilyDescriptor, i: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= fam.n:
        raise UsageError(f"challenge index must lie in [1, {fam.n}], got {i}")


class CheckedSymbols(tuple):
    """A tuple of symbols known to be ints in [0, ``bound``).

    Building one checks every symbol, so a message checked once can be
    passed on without being scanned again: :func:`validate_message` and
    :func:`chunk_hasher` return it as it is when ``bound`` is at most the
    family's q.  Equality and hashing are those of the tuple; ``bound`` is
    read-only, and copies and pickles are rebuilt through the check.
    """

    def __new__(cls, symbols: Iterable[int], bound: int):
        self = super().__new__(cls, symbols)
        # Plain ints in range, checked at C speed; anything else (bools, a
        # bad symbol) takes the loop, which also names the offending symbol.
        if not (set(map(type, self)) == {int} and min(self) >= 0 and max(self) < bound):
            for position, sym in enumerate(self, start=1):
                if not isinstance(sym, int) or not 0 <= sym < bound:
                    raise UsageError(
                        f"symbol {position} is {sym!r}, outside the field [0, {bound})"
                    )
        object.__setattr__(self, "_bound", bound)
        return self

    @property
    def bound(self) -> int:
        return self._bound

    def part(self, start: int, stop: int) -> "CheckedSymbols":
        """The symbols [start, stop), checked against the same bound.  The
        one way to build a checked instance without a scan: its symbols
        were scanned when this one was built."""
        part = tuple.__new__(CheckedSymbols, self[start:stop])
        object.__setattr__(part, "_bound", self._bound)
        return part

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (tuple(self), self._bound)


def check_symbols(fam: HashFamilyDescriptor, x) -> CheckedSymbols:
    """Range-check polynomial symbols, any number of them: ints in [0, q).
    Symbols already checked against a bound no larger than q are returned
    unscanned."""
    if isinstance(x, CheckedSymbols) and x.bound <= fam.q:
        return x
    if isinstance(x, int):
        raise UsageError("polynomial messages are symbol sequences")
    return CheckedSymbols(x, fam.q)


def validate_message(fam: HashFamilyDescriptor, x: Message):
    """Normalize and range-check a message.

    Polynomial: a sequence of exactly k ints in [0, q), returned as a
    :class:`CheckedSymbols`, which later calls take without a scan.
    Karp-rabin: a natural below the product of the k message primes,
    returned as an int.
    """
    if fam.kind == KIND_POLYNOMIAL:
        symbols = check_symbols(fam, x)
        if len(symbols) != fam.k:
            raise UsageError(f"message must have {fam.k} symbols, got {len(symbols)}")
        return symbols
    if not isinstance(x, int):
        raise UsageError("karp-rabin messages are naturals")
    bound = fam.message_space
    if not 0 <= x < bound:
        raise UsageError(f"message {x} outside [0, {bound})")
    return x


def hash_eval(fam: HashFamilyDescriptor, x: Message, i: int) -> int:
    """Value of h_i on x; the challenge index i is 1-based."""
    _check_index(fam, i)
    x = validate_message(fam, x)
    if fam.kind == KIND_POLYNOMIAL:
        return poly_eval_mod(x, i - 1, fam.q)
    return x % fam.primes[i - 1]


def hash_all(fam: HashFamilyDescriptor, x: Message) -> tuple[int, ...]:
    """All n hash values of x in index order."""
    x = validate_message(fam, x)
    if fam.kind == KIND_POLYNOMIAL:
        x = tuple(x)  # copied once, not once per point
        return tuple(poly_eval_mod(x, point, fam.q) for point in range(fam.n))
    return tuple(x % p for p in fam.primes)


def chunk_hasher(
    fam: HashFamilyDescriptor, x, start: int | None = None
) -> Callable[[int], int]:
    """The function beta -> h_beta of one prover's data, validated once.

    With ``start`` None, ``x`` is a whole message, checked as
    :func:`validate_message` checks it.  With ``start`` given (polynomial
    kind only), ``x`` is a chunk: the symbols [start, start + len(x)) of a
    k-symbol message that is zero elsewhere.  Each answer then costs one
    pass of :func:`poly_eval_mod` over ``x``, never a codeword.  The
    returned function does not check beta; callers pass 1 <= beta <= n.
    """
    if start is None:
        return unchecked_hasher(fam, validate_message(fam, x))
    if fam.kind != KIND_POLYNOMIAL:
        raise UsageError("symbol offsets apply to the polynomial kind only")
    chunk = check_symbols(fam, x)
    if not isinstance(start, int) or not 0 <= start <= fam.k - len(chunk):
        raise UsageError(
            f"a chunk of {len(chunk)} symbols at offset {start} does not fit "
            f"a {fam.k}-symbol message"
        )
    return unchecked_hasher(fam, chunk, start)


def unchecked_hasher(
    fam: HashFamilyDescriptor, data, start: int | None = None
) -> Callable[[int], int]:
    """:func:`chunk_hasher` for data its caller has already checked.

    For the polynomial kind, with t = beta - 1, the zeros below ``start``
    shift the chunk's polynomial by t**start.
    """
    if fam.kind != KIND_POLYNOMIAL:
        primes = fam.primes
        return lambda beta: data % primes[beta - 1]
    q, shift, data = fam.q, start or 0, tuple(data)

    def hash_at(beta: int) -> int:
        point = beta - 1
        return pow(point, shift, q) * poly_eval_mod(data, point, q) % q

    return hash_at


def _max_stream_digits(fam: HashFamilyDescriptor) -> int:
    top = fam.message_space - 1
    return max(1, -(-top.bit_length() // 32))


def hash_eval_stream(fam: HashFamilyDescriptor, stream: Iterable[int], i: int) -> int:
    """One-pass h_i over a streamed message, holding O(1) field elements.

    Polynomial: the stream yields the k symbols x_0 first; the evaluator
    keeps an accumulator and a running power of the point.  Karp-rabin: the
    stream yields base-2**32 digits most significant first; only the residue
    accumulator is kept, so a message's range can only be checked by the
    batch path.
    """
    _check_index(fam, i)
    if fam.kind == KIND_POLYNOMIAL:
        point = i - 1
        acc, power, count = 0, 1, 0
        for sym in stream:
            count += 1
            if count > fam.k:
                raise UsageError(f"stream longer than k={fam.k} symbols")
            if not isinstance(sym, int) or not 0 <= sym < fam.q:
                raise UsageError(f"symbol {sym!r} outside [0, {fam.q})")
            acc = (acc + sym * power) % fam.q
            power = power * point % fam.q
        if count != fam.k:
            raise UsageError(f"stream ended after {count} of {fam.k} symbols")
        return acc
    p = fam.primes[i - 1]
    limit = _max_stream_digits(fam)
    acc, count = 0, 0
    for d in stream:
        count += 1
        if count > limit:
            raise UsageError(f"stream longer than {limit} digits")
        if not isinstance(d, int) or not 0 <= d < DIGIT_BASE:
            raise UsageError(f"digit {d!r} outside [0, 2**32)")
        acc = (acc * DIGIT_BASE + d) % p
    return acc


def enumerate_messages(fam: HashFamilyDescriptor) -> Iterator[Message]:
    """Every message in lexicographic order (numeric order for karp-rabin)."""
    if fam.kind == KIND_POLYNOMIAL:
        from itertools import product

        yield from product(range(fam.q), repeat=fam.k)
    else:
        yield from range(fam.message_space)


def _guard_exhaustive(fam: HashFamilyDescriptor, cap: int, what: str) -> int:
    count = fam.message_space
    if count > cap:
        raise CapacityError(
            f"{what} enumerates {count} messages, above the cap of {cap}"
        )
    return count


def collision_probability_exact(fam: HashFamilyDescriptor) -> Fraction:
    """Max over distinct message pairs of the agreeing-coordinate fraction.

    Exhaustive over all pairs; refuses families whose message space exceeds
    the documented cap.
    """
    _guard_exhaustive(fam, _COLLISION_CAP_MESSAGES, "collision probability")
    words = [hash_all(fam, x) for x in enumerate_messages(fam)]
    best = Fraction(0)
    for a in range(len(words)):
        wa = words[a]
        for b in range(a + 1, len(words)):
            agree = sum(1 for u, v in zip(wa, words[b]) if u == v)
            if Fraction(agree, fam.n) > best:
                best = Fraction(agree, fam.n)
    return best


def descriptor_to_bytes(fam: HashFamilyDescriptor) -> bytes:
    """Canonical 25-byte encoding: kind tag, k, n, then q or the prime count."""
    tail = fam.q if fam.kind == KIND_POLYNOMIAL else len(fam.primes)
    return struct.pack("<BQQQ", _KIND_TAGS[fam.kind], fam.k, fam.n, tail)


def descriptor_from_bytes(data: bytes) -> HashFamilyDescriptor:
    if len(data) != struct.calcsize("<BQQQ"):
        raise UsageError(f"descriptor must be 25 bytes, got {len(data)}")
    tag, k, n, tail = struct.unpack("<BQQQ", data)
    if tag not in _TAG_KINDS:
        raise UsageError(f"unknown family kind tag {tag}")
    if _TAG_KINDS[tag] == KIND_POLYNOMIAL:
        return polynomial_family(k, n, q=tail)
    if tail != n:
        raise UsageError(f"prime count {tail} disagrees with n={n}")
    return karp_rabin_family(k, n)


def family_fingerprint(fam: HashFamilyDescriptor) -> bytes:
    """SHA-256 of the canonical descriptor encoding; exchanged in handshakes."""
    return fam.fingerprint
