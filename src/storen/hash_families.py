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
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Sequence, Union

from .algebra import (
    DIGIT_BASE,
    first_n_primes,
    is_prime,
    next_prime_at_least,
    poly_evaluator,
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
_CODEWORD_BLOCK = 4096  # messages an exhaustive oracle hashes per packing


@dataclass(frozen=True)
class HashFamilyDescriptor:
    """Complete, serializable description of one hash family.

    `primes` is derived, not given: the first n primes for karp-rabin,
    sieved when the descriptor is made, and None for the polynomial kind.
    """

    kind: str
    k: int
    n: int
    q: int | None = None
    primes: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KIND_TAGS:
            raise UsageError(f"unknown family kind {self.kind!r}")
        if not 1 <= self.k <= self.n:
            raise UsageError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.kind == KIND_POLYNOMIAL:
            if self.q is None or not is_prime(self.q):
                raise UsageError(f"q must be prime, got {self.q}")
            if self.n > self.q:
                raise UsageError(f"need n <= q, got n={self.n}, q={self.q}")
        else:
            if self.q is not None:
                raise UsageError("karp-rabin families have no single modulus")
            object.__setattr__(self, "primes", first_n_primes(self.n))

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
        descriptor; provers and verifiers exchange it in their handshake."""
        return hashlib.sha256(descriptor_to_bytes(self)).digest()

    @property
    def epsilon_actual(self) -> Fraction:
        """Exact agreement bound (k-1)/n of this family."""
        return Fraction(self.k - 1, self.n)

    def alphabet(self, i: int) -> int:
        """Size of the response alphabet of h_i (1-based)."""
        _check_index(self, i)
        return self.q if self.kind == KIND_POLYNOMIAL else self.primes[i - 1]

    @property
    def symbol_bits(self) -> int:
        """Bits needed for the widest response symbol."""
        widest = self.q if self.kind == KIND_POLYNOMIAL else self.primes[-1]
        return (widest - 1).bit_length()

    @property
    def challenge_bits(self) -> int:
        """Bits needed for a challenge index in [1, n]."""
        return (self.n - 1).bit_length()


def polynomial_family(k: int, n: int, q: int | None = None) -> HashFamilyDescriptor:
    if q is None:
        q = next_prime_at_least(n)
    return HashFamilyDescriptor(KIND_POLYNOMIAL, k, n, q=q)


def karp_rabin_family(k: int, n: int) -> HashFamilyDescriptor:
    return HashFamilyDescriptor(KIND_KARP_RABIN, k, n)


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
        return polynomial_family(k, n)
    if kind == KIND_KARP_RABIN:
        return karp_rabin_family(k, n)
    raise UsageError(f"unknown family kind {kind!r}")


def _check_index(fam: HashFamilyDescriptor, i: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= fam.n:
        raise UsageError(f"challenge index must lie in [1, {fam.n}], got {i}")


class CheckedSymbols:
    """A read-only sequence of symbols known to be ints in [0, ``bound``),
    held as native 64-bit words, so ``bound`` is at most 2**64.

    Building one checks every symbol, so a message checked once can be
    passed on without being scanned again: :func:`check_symbols`, and so
    :func:`validate_message` and :func:`chunk_hasher`, take it as it is when
    ``bound`` is at most the family's q.  :func:`answerers`, the one hasher
    of checked shares, never scans, and hands :attr:`words` to the kernel
    without making an int per symbol.  ``symbols`` may be any iterable of
    ints; a memoryview of 64-bit words (format ``"Q"``) is copied as words,
    and another instance's words are shared.  Equality and hashing are those of the
    tuple of the symbols, and a slice is a plain tuple.  Nothing can be
    assigned, neither a symbol nor ``bound``; the words live in a ``bytes``
    object, and copies and pickles are rebuilt through the check.
    """

    __slots__ = ("_words", "_bound")

    def __new__(cls, symbols: Iterable[int], bound: int):
        if bound > 2**64:
            raise UsageError(f"checked symbols are 64-bit words; bound {bound} exceeds 2**64")
        if isinstance(symbols, CheckedSymbols):
            words = symbols._words
        elif isinstance(symbols, memoryview) and symbols.format == "Q":
            words = _frozen_words(symbols)
        else:
            # one pass over an iterator; bytes are one-byte symbols
            symbols = symbols if type(symbols) in (tuple, list) else list(symbols)
            words = None
            if set(map(type, symbols)) <= {int, bool}:  # what array("Q") takes as it is
                try:
                    words = _frozen_words(array("Q", symbols))
                except OverflowError:  # a negative symbol, or one past 64 bits
                    pass
        # one max() at C speed; only a failing check scans, to name the symbol
        if words is None or not max(words, default=0) < bound:
            for position, sym in enumerate(symbols if words is None else words, start=1):
                if not isinstance(sym, int) or not 0 <= sym < bound:
                    raise UsageError(
                        f"symbol {position} is {sym!r}, outside the field [0, {bound})"
                    )
            if words is None:  # int subclasses, all in range
                words = _frozen_words(array("Q", symbols))
        self = object.__new__(cls)
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_bound", bound)
        return self

    @property
    def bound(self) -> int:
        return self._bound

    @property
    def words(self) -> memoryview:
        """The symbols as a read-only memoryview of native 64-bit words, a
        new view on each call, so releasing it leaves this instance whole."""
        return self._words[:]

    def part(self, start: int, stop: int) -> "CheckedSymbols":
        """The symbols [start, stop), checked against the same bound,
        sharing these words.  The one way to build a checked instance
        without a scan: its symbols were scanned when this one was built."""
        part = object.__new__(CheckedSymbols)
        object.__setattr__(part, "_words", self._words[start:stop])
        object.__setattr__(part, "_bound", self._bound)
        return part

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[int]:
        return iter(self._words)

    def __getitem__(self, index):
        item = self._words[index]
        return tuple(item.tolist()) if isinstance(index, slice) else item

    def __eq__(self, other):
        if isinstance(other, CheckedSymbols):
            return self._words == other._words
        if isinstance(other, tuple):
            return tuple(self._words.tolist()) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._words.tolist()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self._words.tolist())!r}, {self._bound})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (tuple(self._words.tolist()), self._bound)


def _frozen_words(buffer) -> memoryview:
    """A read-only memoryview of 64-bit words over a ``bytes`` copy of ``buffer``."""
    return memoryview(bytes(buffer)).cast("Q")


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
    returned as an int.  An error names M by its bit length: a number
    past about 4 300 digits cannot be printed.
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
        raise UsageError(f"message outside [0, M), where M has {bound.bit_length()} bits")
    return x


def hash_eval(fam: HashFamilyDescriptor, x: Message, i: int) -> int:
    """Value of h_i on x; the challenge index i is 1-based."""
    _check_index(fam, i)
    return answerers(fam, [(validate_message(fam, x), None)])(i)[0]


def hash_all(fam: HashFamilyDescriptor, x: Message) -> tuple[int, ...]:
    """All n hash values of x in index order."""
    x = validate_message(fam, x)
    if fam.kind == KIND_POLYNOMIAL:
        evaluate = poly_evaluator([x.words], fam.q)  # packed once, not once per point
        return tuple(evaluate(point)[0] for point in range(fam.n))
    return tuple(x % p for p in fam.primes)


def chunk_hasher(
    fam: HashFamilyDescriptor, x, start: int | None = None
) -> Callable[[int], int]:
    """The function beta -> h_beta of one prover's data, validated once.

    With ``start`` None, ``x`` is a whole message, checked as
    :func:`validate_message` checks it.  With ``start`` given (polynomial
    kind only), ``x`` is a chunk: the symbols [start, start + len(x)) of a
    k-symbol message that is zero elsewhere.  ``x`` is packed once for
    :func:`~storen.algebra.poly_evaluator`, and each answer costs one
    evaluation of it, never a codeword.  The returned function does not
    check beta; callers pass 1 <= beta <= n.
    """
    if start is None:
        x = validate_message(fam, x)
    elif fam.kind != KIND_POLYNOMIAL:
        raise UsageError("symbol offsets apply to the polynomial kind only")
    else:
        x = check_symbols(fam, x)
        if not isinstance(start, int) or not 0 <= start <= fam.k - len(x):
            raise UsageError(
                f"a chunk of {len(x)} symbols at offset {start} does not fit "
                f"a {fam.k}-symbol message"
            )
    hash_at = answerers(fam, [(x, start)])
    return lambda beta: hash_at(beta)[0]


def answerers(fam: HashFamilyDescriptor, shares: Sequence) -> Callable[[int], tuple]:
    """The function beta -> the tuple of every share's honest answer h_beta,
    for checked shares ``(data, start)`` as :attr:`protocol.Variant.shares`
    gives them.  Polynomial shares are packed once, together, when this is
    called, a :class:`CheckedSymbols` through its words.  The zeros below
    ``start`` shift a share's polynomial by t**start, with t = beta - 1:
    the shifts are sorted once, and at each point the answers take one
    power chain, with one ``pow`` per distinct gap between shifts (one for
    equal chunks).  The function does not check beta."""
    if fam.kind != KIND_POLYNOMIAL:
        primes = fam.primes
        return lambda beta: tuple(data % primes[beta - 1] for data, _ in shares)
    q = fam.q
    evaluate = poly_evaluator([data.words if isinstance(data, CheckedSymbols) else data
                               for data, _ in shares], q)
    order = sorted(range(len(shares)), key=lambda j: shares[j][1] or 0)
    shifts = [shares[j][1] or 0 for j in order]
    chain = list(zip(order, map(operator.sub, shifts, [0, *shifts])))  # (share, gap)
    gaps = {gap for _, gap in chain if gap}

    def hash_at(beta: int) -> tuple:
        point = beta - 1
        values = evaluate(point)
        steps = {gap: pow(point, gap, q) for gap in gaps}
        answers, power = [0] * len(values), 1
        for j, gap in chain:
            if gap:
                power = power * steps[gap] % q
            answers[j] = power * values[j] % q
        return tuple(answers)

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
        yield from product(range(fam.q), repeat=fam.k)
    else:
        yield from range(fam.message_space)


def enumerate_codewords(fam: HashFamilyDescriptor) -> Iterator[tuple]:
    """``(message, codeword)`` for every message, in enumeration order: each
    block of :data:`_CODEWORD_BLOCK` messages is packed by one
    :func:`answerers` call, so a toy message does not pay the packing alone."""
    messages = enumerate_messages(fam)
    while block := list(islice(messages, _CODEWORD_BLOCK)):
        hash_at = answerers(fam, [(x, None) for x in block])
        yield from zip(block, zip(*map(hash_at, range(1, fam.n + 1))))


def _guard_exhaustive(fam: HashFamilyDescriptor, cap: int, what: str) -> None:
    """Refuse, with CapacityError, an oracle over more than ``cap`` messages."""
    if fam.message_space > cap:
        raise CapacityError(f"{what} enumerates more than the cap of {cap} messages")


def collision_probability_exact(fam: HashFamilyDescriptor) -> Fraction:
    """Max over distinct message pairs of the agreeing-coordinate fraction.

    Exhaustive over all pairs; refuses families whose message space exceeds
    the documented cap.
    """
    _guard_exhaustive(fam, _COLLISION_CAP_MESSAGES, "collision probability")
    words = [word for _, word in enumerate_codewords(fam)]
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
