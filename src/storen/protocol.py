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
import struct
from dataclasses import dataclass, field, replace
from itertools import chain
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
    check_symbols,
    family_fingerprint,
    hash_eval,
    unchecked_hasher,
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
        if len(symbols) != self.symbols:
            raise UsageError(f"expected {self.symbols} symbols, got {len(symbols)}")
        start, stop = self.bounds(index)
        out = [0] * self.symbols
        out[start:stop] = symbols[start:stop]
        return tuple(out)


@dataclass(frozen=True)
class Digest:
    """Verifier state: the challenge and the expected value(s).

    ``family`` and ``parity_budget`` are in-memory conveniences: the family
    lets verification range-check answers and the rs-parity variant find its
    field, and the budget records (r, e) chosen at preprocessing.  Neither is
    serialized, neither participates in equality; a digest loaded from bytes
    must be re-attached to its family with :meth:`with_family` (and the
    rs-parity budget re-supplied to the verifier) before use.  A digest made
    with a family checks its fingerprint, the challenge against n and each
    expected value against the alphabet at the challenge, whose size it
    keeps as ``answer_limit`` (None without a family).
    """

    variant: str
    beta: int
    gammas: Tuple[int, ...]
    fingerprint: bytes
    family: Optional[HashFamilyDescriptor] = field(default=None, compare=False)
    parity_budget: Optional[Tuple[int, int]] = field(default=None, compare=False)
    answer_limit: Optional[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown digest variant {self.variant!r}")
        if self.beta < 1:
            raise UsageError("challenge index must be 1-based and positive")
        if len(self.fingerprint) != 32:
            raise UsageError("fingerprint must be 32 bytes")
        limit = None
        if self.family is not None:
            fam = self.family
            if family_fingerprint(fam) != self.fingerprint:
                raise UsageError("family fingerprint mismatch")
            if self.beta > fam.n:
                raise UsageError(f"challenge index {self.beta} exceeds the family size n={fam.n}")
            limit = fam.alphabet(self.beta)  # q for the kind linear and rs-parity need
            for gamma in self.gammas:
                if not 0 <= gamma < limit:
                    raise UsageError(f"expected value {gamma} outside the alphabet [0, {limit})")
        object.__setattr__(self, "answer_limit", limit)

    def with_family(self, fam: HashFamilyDescriptor) -> "Digest":
        """Return a copy with ``fam`` attached, checked as the class says."""
        return replace(self, family=fam)


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


def digest_from_bytes(blob: bytes) -> Digest:
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
    gammas = struct.unpack_from(f"<{count}Q", blob, _DIGEST_HEADER.size) if count else ()
    return Digest(_TAG_VARIANTS[tag], beta, tuple(gammas), fingerprint)


def digest_payload_bits(digest: Digest) -> int:
    """Information content of the digest: challenge bits plus one symbol
    width per stored value.  (The file format pads values to whole 64-bit
    words; this counts the unpadded payload.)"""
    if digest.family is None:
        raise UsageError("digest has no family attached")
    fam = digest.family
    return fam.challenge_bits + len(digest.gammas) * fam.symbol_bits


def _draw_challenge(fam: HashFamilyDescriptor, rng_seed: int) -> int:
    return random.Random(rng_seed).randrange(fam.n) + 1


def _whole_message_plan(fam: HashFamilyDescriptor, provers: int) -> ChunkPlan:
    return ChunkPlan(provers, fam.k)


def _need_plan(plan: Optional[ChunkPlan]) -> None:
    if plan is None:
        raise UsageError("multi-prover variants need a chunk plan")


def _own(digest: Digest, variant: str) -> None:
    if digest.variant != variant:
        raise UsageError(f"digest is for variant {digest.variant!r}")


def _one_value(digest: Digest) -> Digest:
    """A single or linear digest stores exactly one value."""
    if len(digest.gammas) != 1:
        raise UsageError(f"a {digest.variant} digest stores one value, not {len(digest.gammas)}")
    return digest


def _check_answer_range(digest: Digest, answers: Sequence[Optional[int]]) -> None:
    """Each answer is None or an int, below the challenge's alphabet size
    when the digest knows it: the test the decoder makes of its word."""
    limit = digest.answer_limit
    for answer in answers:
        if answer is not None and not (
                isinstance(answer, int) and (limit is None or 0 <= answer < limit)):
            raise UsageError(f"answer {answer!r} outside the challenge's alphabet [0, {limit})")


# --- single prover ---------------------------------------------------------


def _single_shares(fam, x, plan):
    if plan is not None and plan.provers != 1:
        raise UsageError("the single variant has exactly one prover")
    return [(validate_message(fam, x), None)]


def _single_check(digest, provers, r=None, e=None):
    _own(digest, VARIANT_SINGLE)
    if provers != 1:
        raise UsageError("the single variant audits exactly one prover")
    return _one_value(digest)


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


def _trivial_check(digest, provers, r=None, e=None):
    _own(digest, VARIANT_TRIVIAL)
    if provers < 1 or provers != len(digest.gammas):
        raise UsageError(f"digest expects {len(digest.gammas)} provers, got {provers}")
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
    return [(symbols[start:stop], start) for start, stop in plan.all_bounds()]


def _check_field(variant, digest, provers, r=None, e=None):
    """The linear check, and the start of the rs-parity one: a polynomial
    family is attached and at least one prover answers."""
    _own(digest, variant)
    if digest.family is None:
        raise UsageError("digest has no family attached (field size unknown)")
    if digest.family.kind != KIND_POLYNOMIAL:
        raise UnsupportedVariantError(f"the {variant} variant needs the polynomial kind")
    if provers < 1:
        raise UsageError("at least one answer required")
    return digest


def _linear_check(digest, provers, r=None, e=None):
    return _one_value(_check_field(VARIANT_LINEAR, digest, provers))


def _linear_expected(fam, shares, plan, r=None, e=None):
    """The whole-message hash, hashed on its own so that the check does not
    rest on the chunk hashes."""
    whole = unchecked_hasher(fam, tuple(chain.from_iterable(data for data, _ in shares)))
    return lambda beta, answers: (whole(beta),)


def _linear_decide(digest, answers):
    _check_answer_range(digest, answers)
    erased = frozenset(i for i, a in enumerate(answers, start=1) if a is None)
    if erased:
        return Verdict(OUTCOME_REJECTED, erased=erased)
    if sum(answers) % digest.family.q == digest.gammas[0]:
        return _ACCEPTED
    return Verdict(OUTCOME_REJECTED)


def _rs_block_len(provers, r, e, q):
    if r is None or e is None:
        raise UsageError("the rs-parity variant needs r and e")
    if r < 0 or e < 0:
        raise UsageError("r and e must be non-negative")
    block_len = provers + 2 * r + e
    if block_len > q:
        raise UsageError(
            f"s + 2r + e = {block_len} exceeds the field size {q}; "
            f"choose a larger field or a smaller budget"
        )
    return block_len


def _rs_expected(fam, shares, plan, r=None, e=None):
    """The 2r+e Reed-Solomon parities of the s honest answers."""
    s = plan.provers
    code = SystematicRSCode.cached(s, _rs_block_len(s, r, e, fam.q), fam.q)
    return lambda beta, answers: rs_encode_systematic(code, tuple(answers))[s:]


def _rs_check(digest, provers, r=None, e=None):
    """Returns the digest with its budget: (r, e) when given, else the one
    it carries from preprocessing."""
    _check_field(VARIANT_RS, digest, provers)
    if (r is None) != (e is None):
        raise UsageError("supply both r and e or neither")
    if r is None:
        if digest.parity_budget is None:
            raise UsageError("digest carries no (r, e) budget; pass r= and e=")
        r, e = digest.parity_budget
    _rs_block_len(provers, r, e, digest.family.q)
    if 2 * r + e != len(digest.gammas):
        raise UsageError(
            f"budget (r={r}, e={e}) needs {2 * r + e} parity symbols, "
            f"digest stores {len(digest.gammas)}"
        )
    if digest.parity_budget == (r, e):
        return digest
    return replace(digest, parity_budget=(r, e))


def _rs_decide(digest, answers):
    """Accuse the wrong answers that the stored parities locate, as
    :func:`multi_rs_verify` says; the message is never rebuilt."""
    _check_answer_range(digest, answers)
    erased = frozenset(i for i, a in enumerate(answers, start=1) if a is None)
    if len(erased) > digest.parity_budget[1]:
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
    - ``expected(fam, shares, plan, r, e)``: None when the honest answers
      are the digest values; otherwise a function (beta, answers) -> the
      digest values, given an iterable of the honest answers at beta.
    - ``check(digest, provers, r, e)``: everything that can be checked
      before a challenge is sent; returns the digest ready to decide.
    - ``decide(digest, answers)``: the verdict on one answer (or None, for
      silence) per prover, on a digest that ``check`` has passed for that
      many provers.  It range-checks the answers, and no more.
    """

    tag: int
    provers: Optional[int]
    chunk_family: bool
    chunk_plan: Callable
    shares: Callable
    expected: Optional[Callable]
    check: Callable
    decide: Callable


def answerers(fam: HashFamilyDescriptor, shares: Sequence) -> list:
    """One honest answer function, beta -> h_beta, per share of
    :attr:`Variant.shares`."""
    return [unchecked_hasher(fam, data, start) for data, start in shares]


VARIANTS = {
    VARIANT_SINGLE: Variant(1, 1, False, _whole_message_plan, _single_shares,
                            None, _single_check, _single_decide),
    VARIANT_TRIVIAL: Variant(2, None, True, _trivial_plan, _trivial_shares,
                             None, _trivial_check, _trivial_decide),
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


def preprocess(
    variant: str,
    fam: HashFamilyDescriptor,
    x: Message,
    plan: Optional[ChunkPlan],
    rng_seed: int,
    r: Optional[int] = None,
    e: Optional[int] = None,
) -> Digest:
    """Sample a challenge and store the variant's expected values there.

    ``plan`` may be None for the single variant; (r, e) is the rs-parity
    budget, which needs s + 2r + e <= q, and is kept on the digest.
    """
    spec = lookup_variant(variant)
    shares = spec.shares(fam, x, plan)
    extra = spec.expected and spec.expected(fam, shares, plan, r, e)
    hashers = answerers(fam, shares)
    beta = _draw_challenge(fam, rng_seed)
    answers = (hash_at(beta) for hash_at in hashers)  # linear never reads them
    gammas = answers if extra is None else extra(beta, answers)
    budget = None if r is None and e is None else (r, e)
    return Digest(variant, beta, tuple(gammas), family_fingerprint(fam), family=fam,
                  parity_budget=budget)


def single_preprocess(fam: HashFamilyDescriptor, x: Message, rng_seed: int) -> Digest:
    """Sample a challenge and store the one expected hash value."""
    return preprocess(VARIANT_SINGLE, fam, x, None, rng_seed)


def single_verify(digest: Digest, answer: Optional[int]) -> Verdict:
    return _single_decide(_single_check(digest, 1), (answer,))


def multi_trivial_verify(digest: Digest, answers: Sequence[Optional[int]]) -> Verdict:
    return _trivial_decide(_trivial_check(digest, len(answers)), answers)


def multi_trivial_preprocess(
    chunk_fam: HashFamilyDescriptor, x: Message, plan: ChunkPlan, rng_seed: int
) -> Digest:
    """One shared challenge, one expected value per chunk; ``chunk_fam``
    describes a single chunk."""
    return preprocess(VARIANT_TRIVIAL, chunk_fam, x, plan, rng_seed)


def multi_linear_preprocess(
    fam: HashFamilyDescriptor, x: Message, plan: ChunkPlan, rng_seed: int
) -> Digest:
    """One expected value total: the hash of the whole message.  Each prover
    later answers with the hash of its zero-extended chunk; by linearity the
    honest answers sum to the stored value."""
    return preprocess(VARIANT_LINEAR, fam, x, plan, rng_seed)


def multi_linear_verify(digest: Digest, answers: Sequence[Optional[int]]) -> Verdict:
    return _linear_decide(_linear_check(digest, len(answers)), answers)


def multi_rs_preprocess(
    fam: HashFamilyDescriptor, x: Message, plan: ChunkPlan, r: int, e: int, rng_seed: int
) -> Digest:
    """Store 2r+e Reed-Solomon parity symbols over the per-chunk hashes.

    During verification the s answers and the parities form a received word
    of the [s+2r+e, s] code over F_q; decoding corrects up to r wrong
    answers (identifying the cheaters) while tolerating up to e silent
    provers.  Requires s + 2r + e <= q.
    """
    return preprocess(VARIANT_RS, fam, x, plan, rng_seed, r, e)


def multi_rs_verify(
    digest: Digest,
    answers: Sequence[Optional[int]],
    r: Optional[int] = None,
    e: Optional[int] = None,
) -> Verdict:
    """Decode answers + stored parities; accuse the wrong-answer positions.
    The budget is (r, e) when given, else the digest's own.

    Returns ``undecidable`` (rather than rejecting anyone) when more than e
    provers are silent or when no codeword lies within the corruption
    budget — the audit then carries no attributable evidence.
    """
    return _rs_decide(_rs_check(digest, len(answers), r, e), answers)


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
    n = fam.n
    q = max(fam.alphabets())
    L = johnson_list_size_bound(fam) if list_size is None else list_size
    if L < 1:
        raise UsageError("list size must be positive")
    loglog = 2 * math.log2(math.log2(q * n))
    if variant == VARIANT_SINGLE:
        if s not in (None, 1):
            raise UsageError("the single variant has exactly one prover")
        bits = math.log2(q) + math.log2(L) + 3 * math.log2(n) + loglog
        expression = "log2(q*L*n^3) + 2*log2(log2(q*n)) + c0"
    elif variant in (VARIANT_TRIVIAL, VARIANT_LINEAR, VARIANT_RS):
        if s is None or s < 1:
            raise UsageError(f"the {variant} variant needs the prover count s")
        base = s + 2 * math.log2(s) + math.log2(q) + 4 * math.log2(n) + loglog
        if variant == VARIANT_TRIVIAL:
            bits = base + s * math.log2(L)
            expression = "s + log2(s^2*q*L^s*n^4) + 2*log2(log2(q*n)) + c0"
        else:
            bits = base + math.log2(L)
            expression = "s + log2(s^2*q*L*n^4) + 2*log2(log2(q*n)) + c0"
    else:
        raise UsageError(f"unknown variant {variant!r}")
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
    if family_fingerprint(fam) != digest.fingerprint:
        raise UsageError("family fingerprint mismatch")
    (gamma,) = _one_value(digest).gammas
    radius = johnson_radius(fam.n, fam.n - fam.k + 1)
    candidates = brute_force_list_decode(fam, answers, radius)
    return [u for u in candidates if hash_eval(fam, u, digest.beta) == gamma]
