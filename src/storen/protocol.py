"""Challenge-response audit protocol: preprocessing, digests, and verdicts.

A verifier samples one challenge index during preprocessing, stores a short
digest (the challenge plus one or more expected hash values), hands the data
to one or more provers, and later audits them by sending the challenge and
checking the answers.  Four variants are provided:

- ``single``: one prover, one expected hash value, plain equality check.
- ``trivial``: s provers, one expected value per chunk, per-prover checks.
- ``linear``: s provers over the polynomial family; answers for zero-extended
  chunks must sum to the stored whole-message hash.  No cheater
  identification.
- ``rs-parity``: s provers over the polynomial family; the verifier stores
  Reed-Solomon parity symbols of the vector of per-chunk hashes and decodes
  the answers together with the parities, identifying up to r cheating
  provers while tolerating up to e silent ones.

Everything a variant knows lives in its :class:`Variant` entry of
:data:`VARIANTS`; preprocessing, serving, auditing and the experiments look
the variant up there.

Verdicts carry an ``outcome`` of ``accepted``, ``rejected``, or
``undecidable``.  The last one is reserved for the rs-parity variant when
the corruption budget is exceeded: decoding failed or too many provers were
silent, so no prover can honestly be accused.
"""

from __future__ import annotations

import math
import random
import secrets
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from .codes import (
    SystematicRSCode,
    brute_force_list_decode,
    johnson_list_size_bound,
    johnson_radius,
    rs_encode_systematic,
    rs_locate_errors,
)
from .errors import UnsupportedVariantError, UsageError
from .hash_families import (
    KIND_POLYNOMIAL,
    CheckedSymbols,
    HashFamilyDescriptor,
    Message,
    answerers,
    check_symbols,
    hash_eval,
    validate_message,
)

#: How preprocessing turns a seed into a challenge: the first draw of
#: ``random.Random(seed).randrange(n)`` plus one.  Pinned so that recorded
#: experiments stay reproducible across releases.
RNG_ALGORITHM = "mt19937-randrange-v1"

VARIANT_SINGLE = "single"
VARIANT_TRIVIAL = "trivial"
VARIANT_LINEAR = "linear"
VARIANT_RS = "rs-parity"

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_UNDECIDABLE = "undecidable"
_OUTCOMES = (OUTCOME_ACCEPTED, OUTCOME_REJECTED, OUTCOME_UNDECIDABLE)

_DIGEST_MAGIC = b"SENF"
_DIGEST_VERSION = 1
_DIGEST_HEADER = struct.Struct("<4sHB32sQI")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one audit.

    ``accused`` holds 1-based prover indices the verifier blames for a wrong
    answer; ``erased`` holds indices that stayed silent.  The two sets never
    overlap: silence is treated as an erasure, not as an accusation.
    """

    outcome: str
    accused: frozenset = frozenset()
    erased: frozenset = frozenset()

    def __post_init__(self):
        if self.outcome not in _OUTCOMES:
            raise UsageError(f"unknown outcome {self.outcome!r}")
        if self.accused & self.erased:
            raise UsageError("a prover cannot be both accused and erased")

    @property
    def accepted(self) -> bool:
        return self.outcome == OUTCOME_ACCEPTED


# Verdicts that carry nothing of their audit, built once: a Verdict is frozen.
_ACCEPTED = Verdict(OUTCOME_ACCEPTED)
_SOLE_PROVER_ACCUSED = Verdict(OUTCOME_REJECTED, accused=frozenset({1}))
_SOLE_PROVER_ERASED = Verdict(OUTCOME_REJECTED, erased=frozenset({1}))


@dataclass(frozen=True)
class ChunkPlan:
    """How a k-symbol message is split across ``provers`` equal chunks."""

    provers: int
    symbols: int

    def __post_init__(self):
        if self.provers < 1 or self.symbols < 1:
            raise UsageError("provers and symbols must be positive")
        if self.symbols % self.provers:
            raise UsageError(
                f"{self.symbols} symbols do not split evenly across "
                f"{self.provers} provers"
            )

    @property
    def chunk_len(self) -> int:
        return self.symbols // self.provers

    def bounds(self, index: int) -> Tuple[int, int]:
        """Half-open symbol range of the 1-based chunk ``index``."""
        if not 1 <= index <= self.provers:
            raise UsageError(f"chunk index {index} out of range")
        start = (index - 1) * self.chunk_len
        return start, start + self.chunk_len

    def all_bounds(self) -> list:
        """:meth:`bounds` of every chunk, in prover order."""
        return [self.bounds(i) for i in range(1, self.provers + 1)]

    def split(self, symbols: Sequence[int]) -> list:
        """The chunks in prover order; those of a :class:`CheckedSymbols`
        come out checked, without a scan."""
        if len(symbols) != self.symbols:
            raise UsageError(f"expected {self.symbols} symbols, got {len(symbols)}")
        if isinstance(symbols, CheckedSymbols):
            return [symbols.part(start, stop) for start, stop in self.all_bounds()]
        return [tuple(symbols[start:stop]) for start, stop in self.all_bounds()]

    def zero_extended(self, symbols: Sequence[int], index: int) -> tuple:
        """Chunk ``index`` kept in place, all other positions zeroed."""
        start, stop = self.bounds(index)
        out = [0] * self.symbols
        out[start:stop] = self.split(symbols)[index - 1]
        return tuple(out)


@dataclass(frozen=True)
class AuditShape:
    """What an audit's guarantees are stated for: s ``provers``, and for
    rs-parity up to ``r`` cheaters named and up to ``e`` silent ones tolerated."""

    provers: int
    r: Optional[int] = None
    e: Optional[int] = None


@dataclass(frozen=True)
class Digest:
    """Verifier state: the challenge and the expected value(s), for the hash
    ``family`` and the audit ``shape`` they were made for.

    A digest is whole when it is made.  Construction checks the challenge
    against n, each expected value against the alphabet at the challenge
    (whose size it keeps as ``answer_limit``), the shape's prover count
    against the variant, and then the variant's own :attr:`Variant.check`.
    The shape is not serialized and takes no part in equality.
    """

    variant: str
    beta: int
    gammas: Tuple[int, ...]
    family: HashFamilyDescriptor
    shape: AuditShape = field(compare=False)
    answer_limit: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        spec = VARIANTS.get(self.variant)
        if spec is None:
            raise UsageError(f"unknown digest variant {self.variant!r}")
        n = self.family.n
        if not 1 <= self.beta <= n:
            raise UsageError(f"challenge index {self.beta} is below 1 or exceeds the family size n={n}")
        limit = self.family.alphabet(self.beta)  # q for the kind linear and rs-parity need
        for gamma in self.gammas:
            if not 0 <= gamma < limit:
                raise UsageError(f"expected value {gamma} outside the alphabet [0, {limit})")
        object.__setattr__(self, "answer_limit", limit)
        provers = self.shape.provers
        if provers < 1 or spec.provers not in (None, provers):
            raise UsageError(f"the {self.variant} variant audits {spec.provers or 'one or more'} "
                             f"provers, not {provers}")
        spec.check(self)

    @property
    def fingerprint(self) -> bytes:
        return self.family.fingerprint


def digest_to_bytes(digest: Digest) -> bytes:
    """Serialize a digest: magic, version, variant, fingerprint, challenge,
    and the expected values as fixed 64-bit words."""
    for g in digest.gammas:
        if not 0 <= g < 2**64:
            raise UsageError("expected value does not fit in 64 bits")
    if digest.beta >= 2**64:
        raise UsageError("challenge index does not fit in 64 bits")
    head = _DIGEST_HEADER.pack(
        _DIGEST_MAGIC,
        _DIGEST_VERSION,
        VARIANTS[digest.variant].tag,
        digest.fingerprint,
        digest.beta,
        len(digest.gammas),
    )
    return head + b"".join(struct.pack("<Q", g) for g in digest.gammas)


def digest_from_bytes(blob: bytes, fam: HashFamilyDescriptor, shape: AuditShape) -> Digest:
    """The digest that ``blob`` holds, for the family ``fam``, which its
    fingerprint must name, and the audit ``shape``: the one place where a
    shape that did not come from :func:`preprocess` enters a digest."""
    if len(blob) < _DIGEST_HEADER.size:
        raise UsageError("digest too short")
    magic, version, tag, fingerprint, beta, count = _DIGEST_HEADER.unpack_from(blob)
    if magic != _DIGEST_MAGIC:
        raise UsageError("not a digest file (bad magic)")
    if version != _DIGEST_VERSION:
        raise UsageError(f"unsupported digest version {version}")
    if tag not in _TAG_VARIANTS:
        raise UsageError(f"unknown digest variant tag {tag}")
    if len(blob) != _DIGEST_HEADER.size + 8 * count:
        raise UsageError("digest length does not match its value count")
    if fingerprint != fam.fingerprint:
        raise UsageError("family fingerprint mismatch")
    gammas = struct.unpack_from(f"<{count}Q", blob, _DIGEST_HEADER.size) if count else ()
    return Digest(_TAG_VARIANTS[tag], beta, tuple(gammas), fam, shape)


def digest_payload_bits(digest: Digest) -> int:
    """Information content of the digest: challenge bits plus one symbol
    width per stored value.  (The file format pads values to whole 64-bit
    words; this counts the unpadded payload.)"""
    fam = digest.family
    return fam.challenge_bits + len(digest.gammas) * fam.symbol_bits


def _draw_challenge(fam: HashFamilyDescriptor, rng_seed: Optional[int]) -> int:
    draw = secrets.randbelow if rng_seed is None else random.Random(rng_seed).randrange
    return draw(fam.n) + 1


def _whole_message_plan(fam: HashFamilyDescriptor, provers: int) -> ChunkPlan:
    return ChunkPlan(provers, fam.k)


def _need_plan(plan: Optional[ChunkPlan]) -> None:
    if plan is None:
        raise UsageError("multi-prover variants need a chunk plan")


def _one_value(digest: Digest) -> Digest:
    """A single or linear digest stores exactly one value."""
    if len(digest.gammas) != 1:
        raise UsageError(f"a {digest.variant} digest stores one value, not {len(digest.gammas)}")
    return digest


def _check_answer_range(digest: Digest, answers: Sequence[Optional[int]]) -> None:
    """Each answer is None or an int, below the challenge's alphabet size:
    the test the decoder makes of its word."""
    limit = digest.answer_limit
    for answer in answers:
        if answer is not None and not (isinstance(answer, int) and 0 <= answer < limit):
            raise UsageError(f"answer {answer!r} outside the challenge's alphabet [0, {limit})")


def _honest_expected(fam, shares, shape):
    return lambda beta, answers: answers  # the digest values themselves


# --- single prover ---------------------------------------------------------


def _single_shares(fam, x, plan):
    if plan is not None and plan.provers != 1:
        raise UsageError("the single variant has exactly one prover")
    return [(validate_message(fam, x), None)]


def _single_decide(digest, answers):
    _check_answer_range(digest, answers)
    answer = answers[0]
    if answer is None:
        return _SOLE_PROVER_ERASED
    return _ACCEPTED if answer == digest.gammas[0] else _SOLE_PROVER_ACCUSED


# --- s provers, one expected value per chunk -------------------------------


def _trivial_plan(chunk_fam, provers):
    """s chunks of k symbols each, or s values for karp-rabin."""
    symbols = provers * chunk_fam.k if chunk_fam.kind == KIND_POLYNOMIAL else provers
    return ChunkPlan(provers, symbols)


def _trivial_shares(chunk_fam, x, plan):
    """One whole message of ``chunk_fam`` per prover: for the polynomial
    kind, ``x`` is the ``plan.symbols``-long message and each prover keeps
    its own chunk; for karp-rabin, ``x`` holds one number per prover."""
    _need_plan(plan)
    if chunk_fam.kind == KIND_POLYNOMIAL:
        if plan.chunk_len != chunk_fam.k:
            raise UsageError(
                f"plan chunks have {plan.chunk_len} symbols but the chunk "
                f"family hashes {chunk_fam.k}"
            )
        chunks = plan.split(check_symbols(chunk_fam, x))  # one scan for every chunk
    elif len(x) != plan.provers:
        raise UsageError(f"expected {plan.provers} chunk values, got {len(x)}")
    else:
        chunks = x
    return [(validate_message(chunk_fam, chunk), None) for chunk in chunks]


def _trivial_check(digest):
    if digest.shape.provers != len(digest.gammas):
        raise UsageError(f"digest expects {len(digest.gammas)} provers, got {digest.shape.provers}")
    return digest


def _trivial_decide(digest, answers):
    _check_answer_range(digest, answers)
    accused, erased = set(), set()
    for index, (answer, gamma) in enumerate(zip(answers, digest.gammas), start=1):
        if answer is None:
            erased.add(index)
        elif answer != gamma:
            accused.add(index)
    if accused or erased:
        return Verdict(OUTCOME_REJECTED, frozenset(accused), frozenset(erased))
    return _ACCEPTED


# --- s provers over one polynomial message: linear and rs-parity -----------


def _offset_shares(fam, x, plan):
    """Each prover's chunk of the one message ``x`` and its symbol offset;
    the prover answers for ``x`` zeroed outside its chunk."""
    if fam.kind != KIND_POLYNOMIAL:
        raise UnsupportedVariantError(
            "the linear and rs-parity variants need a linear hash family; "
            "only the polynomial kind qualifies"
        )
    _need_plan(plan)
    if plan.symbols != fam.k:
        raise UsageError(f"plan covers {plan.symbols} symbols but the family hashes {fam.k}")
    symbols = validate_message(fam, x)
    return [(symbols.part(start, stop), start) for start, stop in plan.all_bounds()]


def _check_field(digest):
    """The linear check, and the start of the rs-parity one: the family is
    polynomial."""
    if digest.family.kind != KIND_POLYNOMIAL:
        raise UnsupportedVariantError(f"the {digest.variant} variant needs the polynomial kind")
    return digest


def _linear_check(digest):
    return _one_value(_check_field(digest))


def _linear_expected(fam, shares, shape):
    """The whole-message hash, hashed on its own so that the check does not
    rest on the chunk hashes: the chunks' words, joined."""
    words = memoryview(b"".join(data.words for data, _ in shares)).cast("Q")
    whole = answerers(fam, [(words, None)])
    return lambda beta, answers: whole(beta)


def _linear_decide(digest, answers):
    _check_answer_range(digest, answers)
    erased = frozenset(i for i, a in enumerate(answers, start=1) if a is None)
    if erased:
        return Verdict(OUTCOME_REJECTED, erased=erased)
    if sum(answers) % digest.family.q == digest.gammas[0]:
        return _ACCEPTED
    return Verdict(OUTCOME_REJECTED)


def _rs_code(shape, q):
    """The [s + 2r + e, s] code of ``shape`` over F_q, which needs s + 2r + e <= q."""
    if shape.r is None or shape.e is None or min(shape.r, shape.e) < 0:
        raise UsageError(f"rs-parity needs r >= 0 and e >= 0, not r={shape.r}, e={shape.e}")
    return SystematicRSCode.cached(shape.provers, shape.provers + 2 * shape.r + shape.e, q)


def _rs_expected(fam, shares, shape):
    """The 2r+e Reed-Solomon parities of the s honest answers."""
    code = _rs_code(shape, fam.q)
    return lambda beta, answers: rs_encode_systematic(code, answers)[code.message_len:]


def _rs_check(digest):
    code = _rs_code(_check_field(digest).shape, digest.family.q)
    if code.block_len - code.message_len != len(digest.gammas):
        raise UsageError(
            f"{digest.shape} needs {code.block_len - code.message_len} parity symbols, "
            f"digest stores {len(digest.gammas)}"
        )
    return digest


def _rs_decide(digest, answers):
    """Accuse the wrong answers that the stored parities locate, as
    :func:`verify` says; the message is never rebuilt."""
    _check_answer_range(digest, answers)
    erased = frozenset(i for i, a in enumerate(answers, start=1) if a is None)
    if len(erased) > digest.shape.e:
        return Verdict(OUTCOME_UNDECIDABLE, erased=erased)
    s, gammas = len(answers), digest.gammas
    errors = rs_locate_errors(SystematicRSCode.cached(s, s + len(gammas), digest.family.q),
                              (*answers, *gammas))
    if errors is None:
        return Verdict(OUTCOME_UNDECIDABLE, erased=erased)
    if errors:
        accused = frozenset(p for p in errors if p <= s)
        return Verdict(OUTCOME_REJECTED, accused=accused, erased=erased)
    return Verdict(OUTCOME_ACCEPTED, erased=erased)


# --- the variant table ------------------------------------------------------


@dataclass(frozen=True)
class Variant:
    """What one audit variant knows, and nothing else does.

    - ``tag``: its byte in the digest format.
    - ``provers``: the prover count when the variant fixes it, else None.
    - ``chunk_family``: the family hashes one chunk, and the data holds every
      prover's chunk (trivial), rather than hashing the whole message.
    - ``chunk_plan(fam, s)``: how the data splits across s provers.
    - ``shares(fam, x, plan)``: each prover's data, checked, and its symbol
      offset (None when the data is a whole message of ``fam``).
    - ``expected(fam, shares, shape)``: the function (beta, answers) -> the
      tuple of digest values, given the tuple of honest answers at beta;
      for single and trivial, the answers themselves.
    - ``check(digest)``: what else a digest's construction checks, given
      its shape.
    - ``decide(digest, answers)``: the verdict on one answer (or None, for
      silence) per prover, on a digest that :func:`settle` has passed for
      that many provers.  It range-checks the answers, and no more.
    """

    tag: int
    provers: Optional[int]
    chunk_family: bool
    chunk_plan: Callable
    shares: Callable
    expected: Callable
    check: Callable
    decide: Callable


VARIANTS = {
    VARIANT_SINGLE: Variant(1, 1, False, _whole_message_plan, _single_shares,
                            _honest_expected, _one_value, _single_decide),
    VARIANT_TRIVIAL: Variant(2, None, True, _trivial_plan, _trivial_shares,
                             _honest_expected, _trivial_check, _trivial_decide),
    VARIANT_LINEAR: Variant(3, None, False, _whole_message_plan, _offset_shares,
                            _linear_expected, _linear_check, _linear_decide),
    VARIANT_RS: Variant(4, None, False, _whole_message_plan, _offset_shares,
                        _rs_expected, _rs_check, _rs_decide),
}
_TAG_VARIANTS = {variant.tag: name for name, variant in VARIANTS.items()}


def lookup_variant(name: str) -> Variant:
    """The table entry of ``name``; a :class:`UsageError` for unknown names."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise UsageError(f"unknown variant {name!r}") from None


def settle(digest: Digest, provers: int) -> Digest:
    """The digest, checked to decide ``provers`` answers: its shape's prover
    count, the one check of an audit that the digest cannot make itself."""
    if provers != digest.shape.provers:
        raise UsageError(f"the digest was made for {digest.shape}, not {provers} provers")
    return digest


def digest_maker(variant: str, fam: HashFamilyDescriptor, shares: Sequence,
                 shape: AuditShape) -> Callable[[int], Tuple[Digest, tuple]]:
    """The function beta -> (the digest of ``variant`` at beta, the honest
    answers there), over checked ``shares`` as :attr:`Variant.shares` gives
    them, packed once: the one place where hashed answers become a digest,
    for :func:`preprocess` and the experiments alike."""
    expected = VARIANTS[variant].expected(fam, shares, shape)
    answers_at = answerers(fam, shares)

    def digest_at(beta: int) -> Tuple[Digest, tuple]:
        answers = answers_at(beta)
        return Digest(variant, beta, expected(beta, answers), fam, shape), answers

    return digest_at


def preprocess(
    variant: str,
    fam: HashFamilyDescriptor,
    x: Message,
    plan: Optional[ChunkPlan],
    rng_seed: Optional[int],
    r: Optional[int] = None,
    e: Optional[int] = None,
) -> Digest:
    """Sample a challenge and store the variant's expected values there.

    ``plan`` may be None for the single variant; (r, e) is the rs-parity
    budget, which needs s + 2r + e <= q.  The digest keeps the shape.  With
    ``rng_seed`` None the challenge is secret; anyone who knows a seed knows it.
    """
    shares = lookup_variant(variant).shares(fam, x, plan)
    digest_at = digest_maker(variant, fam, shares, AuditShape(len(shares), r, e))
    return digest_at(_draw_challenge(fam, rng_seed))[0]


def verify(digest: Digest, answers: Sequence[Optional[int]]) -> Verdict:
    """The verdict of the digest's variant on one answer (or None, for
    silence) per prover, after :func:`settle`."""
    return VARIANTS[digest.variant].decide(settle(digest, len(answers)), answers)


def multi_rs_preprocess(
    fam: HashFamilyDescriptor, x: Message, plan: ChunkPlan, r: int, e: int, rng_seed: Optional[int]
) -> Digest:
    """:func:`preprocess` for rs-parity, kept by name because the benchmark
    times it as ``storen.multi_rs_preprocess``."""
    return preprocess(VARIANT_RS, fam, x, plan, rng_seed, r, e)


# --- storage bound ---------------------------------------------------------


@dataclass(frozen=True)
class SlackReport:
    """Additive gap, in bits, between a passing prover population's storage
    and the information content of the data, up to one universal constant."""

    variant: str
    bits: float
    list_size: int
    expression: str

    def __str__(self) -> str:
        return (
            f"{self.variant}: storage >= C(x) - ({self.bits:.4f} + c0) bits"
            f"  [{self.expression}]"
        )


def storage_bound_slack(
    variant: str,
    fam: HashFamilyDescriptor,
    list_size: Optional[int] = None,
    s: Optional[int] = None,
) -> SlackReport:
    """Bits of slack in the storage lower bound for a given audit variant.

    ``list_size`` defaults to the Johnson bound 2*sum(alphabet sizes).  The
    universal constant is left symbolic (``c0`` in the rendered string).
    """
    lookup_variant(variant)  # refuses an unknown name
    n = fam.n
    q = fam.q if fam.kind == KIND_POLYNOMIAL else fam.primes[-1]  # the widest alphabet
    L = johnson_list_size_bound(fam) if list_size is None else list_size
    if L < 1:
        raise UsageError("list size must be positive")
    loglog = 2 * math.log2(math.log2(q * n))
    if variant == VARIANT_SINGLE:
        if s not in (None, 1):
            raise UsageError("the single variant has exactly one prover")
        bits = math.log2(q) + math.log2(L) + 3 * math.log2(n) + loglog
        expression = "log2(q*L*n^3) + 2*log2(log2(q*n)) + c0"
    else:
        if s is None or s < 1:
            raise UsageError(f"the {variant} variant needs the prover count s")
        base = s + 2 * math.log2(s) + math.log2(q) + 4 * math.log2(n) + loglog
        if variant == VARIANT_TRIVIAL:
            bits = base + s * math.log2(L)
            expression = "s + log2(s^2*q*L^s*n^4) + 2*log2(log2(q*n)) + c0"
        else:
            bits = base + math.log2(L)
            expression = "s + log2(s^2*q*L*n^4) + 2*log2(log2(q*n)) + c0"
    return SlackReport(variant, bits, L, expression)


# --- retrievability --------------------------------------------------------


def retrievability_extract(
    fam: HashFamilyDescriptor,
    answers: Sequence[int],
    digest: Digest,
) -> list:
    """Candidate messages consistent with a full answer transcript.

    Given one answer per challenge index (a corrupted codeword), list-decode
    within the Johnson radius and keep the candidates whose hash at the
    stored challenge matches the digest.  The original message is always in
    the returned list when at most ``johnson_radius`` answers are wrong.
    """
    if digest.variant != VARIANT_SINGLE:
        raise UnsupportedVariantError(
            "retrievability extraction works on single-prover digests"
        )
    if digest.family != fam:
        raise UsageError("family fingerprint mismatch")
    (gamma,) = digest.gammas
    radius = johnson_radius(fam.n, fam.n - fam.k + 1)
    candidates = brute_force_list_decode(fam, answers, radius)
    return [u for u in candidates if hash_eval(fam, u, digest.beta) == gamma]
