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
from typing import Optional, Sequence, Tuple

from .codes import (
    SystematicRSCode,
    brute_force_list_decode,
    johnson_list_size_bound,
    johnson_radius,
    rs_decode_errors_erasures,
    rs_encode_systematic,
)
from .errors import UnsupportedVariantError, UsageError
from .hash_families import (
    KIND_POLYNOMIAL,
    HashFamilyDescriptor,
    Message,
    chunk_hashers,
    family_fingerprint,
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

_VARIANT_TAGS = {
    VARIANT_SINGLE: 1,
    VARIANT_TRIVIAL: 2,
    VARIANT_LINEAR: 3,
    VARIANT_RS: 4,
}
_TAG_VARIANTS = {tag: name for name, tag in _VARIANT_TAGS.items()}

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
        if len(symbols) != self.symbols:
            raise UsageError(f"expected {self.symbols} symbols, got {len(symbols)}")
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
    rs-parity budget re-supplied to the verifier) before use.
    """

    variant: str
    beta: int
    gammas: Tuple[int, ...]
    fingerprint: bytes
    family: Optional[HashFamilyDescriptor] = field(default=None, compare=False)
    parity_budget: Optional[Tuple[int, int]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.variant not in _VARIANT_TAGS:
            raise UsageError(f"unknown digest variant {self.variant!r}")
        if self.beta < 1:
            raise UsageError("challenge index must be 1-based and positive")
        if len(self.fingerprint) != 32:
            raise UsageError("fingerprint must be 32 bytes")
        if self.family is not None and family_fingerprint(self.family) != self.fingerprint:
            raise UsageError("attached family does not match the stored fingerprint")

    def with_family(self, fam: HashFamilyDescriptor) -> "Digest":
        """Return a copy with ``fam`` attached, checking the fingerprint."""
        if family_fingerprint(fam) != self.fingerprint:
            raise UsageError("family fingerprint mismatch")
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
        _VARIANT_TAGS[digest.variant],
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


# --- single prover ---------------------------------------------------------


def single_preprocess(fam: HashFamilyDescriptor, x: Message, rng_seed: int) -> Digest:
    """Sample a challenge and store the one expected hash value."""
    beta = _draw_challenge(fam, rng_seed)
    gamma = hash_eval(fam, x, beta)
    return Digest(VARIANT_SINGLE, beta, (gamma,), family_fingerprint(fam), family=fam)


def _check_answer_range(digest: Digest, answer: int) -> None:
    if digest.family is not None and not 0 <= answer < digest.family.alphabet(digest.beta):
        raise UsageError(
            f"answer {answer} outside the challenge's alphabet "
            f"[0, {digest.family.alphabet(digest.beta)})"
        )


def single_verify(digest: Digest, answer: Optional[int]) -> Verdict:
    if digest.variant != VARIANT_SINGLE:
        raise UsageError(f"digest is for variant {digest.variant!r}")
    if answer is None:
        return Verdict(OUTCOME_REJECTED, erased=frozenset({1}))
    _check_answer_range(digest, answer)
    if answer == digest.gammas[0]:
        return Verdict(OUTCOME_ACCEPTED)
    return Verdict(OUTCOME_REJECTED, accused=frozenset({1}))


# --- s provers, one expected value per chunk -------------------------------


def multi_trivial_preprocess(
    chunk_fam: HashFamilyDescriptor,
    x: Message,
    plan: ChunkPlan,
    rng_seed: int,
) -> Digest:
    """One shared challenge, one expected value per chunk.

    ``chunk_fam`` describes a single chunk.  For the polynomial kind, ``x``
    is the whole ``plan.symbols``-long message and each prover hashes its
    own chunk; for Karp-Rabin, ``x`` is a sequence of ``plan.provers``
    numbers, one per prover.
    """
    chunks = chunk_messages(chunk_fam, x, plan)
    beta = _draw_challenge(chunk_fam, rng_seed)
    gammas = tuple(hash_eval(chunk_fam, chunk, beta) for chunk in chunks)
    return Digest(
        VARIANT_TRIVIAL, beta, gammas, family_fingerprint(chunk_fam), family=chunk_fam
    )


def chunk_messages(chunk_fam, x, plan):
    """Split ``x`` into the per-prover messages of the trivial variant."""
    if chunk_fam.kind == KIND_POLYNOMIAL:
        if plan.chunk_len != chunk_fam.k:
            raise UsageError(
                f"plan chunks have {plan.chunk_len} symbols but the chunk "
                f"family hashes {chunk_fam.k}"
            )
        return plan.split(x)
    if len(x) != plan.provers:
        raise UsageError(f"expected {plan.provers} chunk values, got {len(x)}")
    return [validate_message(chunk_fam, value) for value in x]


def multi_trivial_verify(digest: Digest, answers: Sequence[Optional[int]]) -> Verdict:
    if digest.variant != VARIANT_TRIVIAL:
        raise UsageError(f"digest is for variant {digest.variant!r}")
    if len(answers) != len(digest.gammas):
        raise UsageError(
            f"expected {len(digest.gammas)} answers, got {len(answers)}"
        )
    accused, erased = set(), set()
    for index, (answer, gamma) in enumerate(zip(answers, digest.gammas), start=1):
        if answer is None:
            erased.add(index)
            continue
        _check_answer_range(digest, answer)
        if answer != gamma:
            accused.add(index)
    if accused or erased:
        return Verdict(OUTCOME_REJECTED, frozenset(accused), frozenset(erased))
    return Verdict(OUTCOME_ACCEPTED)


# --- s provers, answers sum to the whole-message hash ----------------------


def _require_polynomial(fam: HashFamilyDescriptor, variant: str) -> None:
    if fam.kind != KIND_POLYNOMIAL:
        raise UnsupportedVariantError(
            f"the {variant} variant needs a linear hash family; "
            f"only the polynomial kind qualifies"
        )


def multi_linear_preprocess(
    fam: HashFamilyDescriptor, x: Message, plan: ChunkPlan, rng_seed: int
) -> Digest:
    """One expected value total: the hash of the whole message.  Each prover
    later answers with the hash of its zero-extended chunk; by linearity the
    honest answers sum to the stored value."""
    _require_polynomial(fam, VARIANT_LINEAR)
    if plan.symbols != fam.k:
        raise UsageError(f"plan covers {plan.symbols} symbols but the family hashes {fam.k}")
    beta = _draw_challenge(fam, rng_seed)
    gamma = hash_eval(fam, x, beta)
    return Digest(VARIANT_LINEAR, beta, (gamma,), family_fingerprint(fam), family=fam)


def multi_linear_verify(digest: Digest, answers: Sequence[Optional[int]]) -> Verdict:
    if digest.variant != VARIANT_LINEAR:
        raise UsageError(f"digest is for variant {digest.variant!r}")
    if not answers:
        raise UsageError("at least one answer required")
    erased = frozenset(i for i, a in enumerate(answers, start=1) if a is None)
    if erased:
        return Verdict(OUTCOME_REJECTED, erased=erased)
    for answer in answers:
        _check_answer_range(digest, answer)
    if digest.family is not None:
        total = sum(answers) % digest.family.q
    else:
        raise UsageError("digest has no family attached (field size unknown)")
    if total == digest.gammas[0]:
        return Verdict(OUTCOME_ACCEPTED)
    return Verdict(OUTCOME_REJECTED)


# --- s provers with Reed-Solomon parities and cheater identification -------


def multi_rs_preprocess(
    fam: HashFamilyDescriptor,
    x: Message,
    plan: ChunkPlan,
    r: int,
    e: int,
    rng_seed: int,
) -> Digest:
    """Store 2r+e Reed-Solomon parity symbols over the per-chunk hashes.

    During verification the s answers and the parities form a received word
    of the [s+2r+e, s] code over F_q; decoding corrects up to r wrong
    answers (identifying the cheaters) while tolerating up to e silent
    provers.  Requires s + 2r + e <= q.
    """
    _require_polynomial(fam, VARIANT_RS)
    if plan.symbols != fam.k:
        raise UsageError(f"plan covers {plan.symbols} symbols but the family hashes {fam.k}")
    if r < 0 or e < 0:
        raise UsageError("r and e must be non-negative")
    block_len = plan.provers + 2 * r + e
    if block_len > fam.q:
        raise UsageError(
            f"s + 2r + e = {block_len} exceeds the field size {fam.q}; "
            f"choose a larger field or a smaller budget"
        )
    hashers = chunk_hashers(fam, x, plan.all_bounds())
    beta = _draw_challenge(fam, rng_seed)
    code = SystematicRSCode(plan.provers, block_len, fam.q)
    codeword = rs_encode_systematic(code, [hash_at(beta) for hash_at in hashers])
    gammas = codeword[plan.provers:]
    return Digest(
        VARIANT_RS,
        beta,
        gammas,
        family_fingerprint(fam),
        family=fam,
        parity_budget=(r, e),
    )


def multi_rs_verify(
    digest: Digest,
    answers: Sequence[Optional[int]],
    r: Optional[int] = None,
    e: Optional[int] = None,
) -> Verdict:
    """Decode answers + stored parities; accuse the wrong-answer positions.

    Returns ``undecidable`` (rather than rejecting anyone) when more than e
    provers are silent or when no codeword lies within the corruption
    budget — the audit then carries no attributable evidence.
    """
    if digest.variant != VARIANT_RS:
        raise UsageError(f"digest is for variant {digest.variant!r}")
    if digest.family is None:
        raise UsageError("digest has no family attached (field size unknown)")
    if (r is None) != (e is None):
        raise UsageError("supply both r and e or neither")
    if r is None:
        if digest.parity_budget is None:
            raise UsageError("digest carries no (r, e) budget; pass r= and e=")
        r, e = digest.parity_budget
    if r < 0 or e < 0:
        raise UsageError("r and e must be non-negative")
    if 2 * r + e != len(digest.gammas):
        raise UsageError(
            f"budget (r={r}, e={e}) needs {2 * r + e} parity symbols, "
            f"digest stores {len(digest.gammas)}"
        )
    s = len(answers)
    if s < 1:
        raise UsageError("at least one answer required")
    q = digest.family.q
    block_len = s + len(digest.gammas)
    if block_len > q:
        raise UsageError(f"s + 2r + e = {block_len} exceeds the field size {q}")
    erased = frozenset(i for i, a in enumerate(answers, start=1) if a is None)
    if len(erased) > e:
        return Verdict(OUTCOME_UNDECIDABLE, erased=erased)
    for answer in answers:
        if answer is not None and not 0 <= answer < q:
            raise UsageError(f"answer {answer} outside the field [0, {q})")
    received = list(answers) + list(digest.gammas)
    code = SystematicRSCode(s, block_len, q)
    decoded = rs_decode_errors_erasures(code, received)
    if decoded is None:
        return Verdict(OUTCOME_UNDECIDABLE, erased=erased)
    _, error_positions = decoded
    accused = frozenset(p for p in error_positions if p <= s)
    if error_positions:
        return Verdict(OUTCOME_REJECTED, accused=accused, erased=erased)
    return Verdict(OUTCOME_ACCEPTED, erased=erased)


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
    radius = johnson_radius(fam.n, fam.n - fam.k + 1)
    candidates = brute_force_list_decode(fam, answers, radius)
    gamma = digest.gammas[0]
    return [u for u in candidates if hash_eval(fam, u, digest.beta) == gamma]
