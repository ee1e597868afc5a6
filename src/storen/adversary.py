"""Adversarial prover strategies and the audit simulation harness.

A *strategy* is a frozen description of what a prover keeps and how it
answers challenges.  Each concrete strategy owns both of its rules:
``store(fam, data, start, honest)`` builds its :class:`ProverStore` over one
prover's checked share of the data (``honest`` is the function
beta -> h_beta of that share), and ``rate(fam, x)`` is its exact
single-prover pass rate.  A store is a frozen ``(retained_bits, answer)``
record.  ``retained_bits`` counts exactly the payload the prover keeps: zero
for stores that keep nothing, otherwise a 40-bit header (one tag byte plus
a 32-bit symbol count) plus the sum of per-symbol widths.  This makes
retention strictly monotone in the number of kept symbols.

:func:`run_experiment` replays many independent audits against a strategy
and reports empirical pass rates next to exact analytic ones;
:func:`run_sweep` does so for several strategy assignments at once, over
the same audits.  A call keeps a memo: the first time a challenge is drawn,
it hashes each prover's data there once and keeps the verifier's digest,
checked once, and the honest answers, which later trials reuse, the
stores answering through it.  Trials are reproducible: trial ``i`` of
master seed ``m`` reseeds the call's one generator with
``sha256("storen.trial:m:i")`` (as a big-endian integer), which gives the
stream of a fresh ``random.Random`` of that seed; the challenge is drawn
first, then prover answers in prover order.  Stores draw from the trial
generator only when they guess, uniformly over the challenge's alphabet,
and do not check the challenge, which the engine draws in 1..n.
"""

from __future__ import annotations

import bisect
import hashlib
import marshal
import math
import numbers
import os
import random
import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .algebra import poly_eval_mod, tree_reduce
from .errors import UnsupportedVariantError, UsageError
from .hash_families import (
    KIND_POLYNOMIAL,
    HashFamilyDescriptor,
    Message,
    chunk_hasher,
    family_fingerprint,
)
from .protocol import (
    OUTCOME_ACCEPTED,
    OUTCOME_UNDECIDABLE,
    RNG_ALGORITHM,
    VARIANT_SINGLE,
    AuditShape,
    ChunkPlan,
    Digest,
    answerers,
    lookup_variant,
    settle,
)

_HEADER_BITS = 40  # tag byte + u32 symbol count, charged once per non-empty store
EXACT_RATE_TERMS = 2**14  # most 1/p terms an exact karp-rabin guessing rate sums
_LEAF_PRIMES = 16  # primes multiplied out in one leaf of that sum's product tree
MIN_TRIALS_PER_WORKER = 2048  # fewest trials a call hands to one process
_MAX_WORKERS = 8  # most processes that replay one call's trials


@dataclass(frozen=True)
class ProverStore:
    """What one prover keeps, and how it answers.

    ``retained_bits`` is 0 for an empty store and header + sum of symbol
    widths otherwise.  ``answer(beta, rng)`` is the answer to challenge
    ``beta``, or None for silence; any guess is drawn from ``rng``.
    """

    retained_bits: int
    answer: Callable[[int, random.Random], Optional[int]]


def _retained(count: int, payload_bits: int) -> int:
    """Retained bits of a store keeping ``count`` symbols, ``payload_bits`` in all."""
    return _HEADER_BITS + payload_bits if count else 0


def _data_bits(fam: HashFamilyDescriptor, data) -> int:
    """Retained bits of a prover keeping its share: its symbols, or for
    karp-rabin its one natural."""
    if fam.kind == KIND_POLYNOMIAL:
        return _retained(len(data), len(data) * fam.symbol_bits)
    return _retained(1, (fam.message_space - 1).bit_length())


@numbers.Rational.register
class _Lowest(NamedTuple):  # Fraction copies a Rational's two fields with no gcd
    numerator: int
    denominator: int


def _guess_mass(fam: HashFamilyDescriptor, t: int) -> Optional[Fraction]:
    """Sum of 1/|alphabet| over the challenges t+1..n, which a prover can
    only guess uniformly: (n - t)/q for the polynomial kind.  For karp-rabin,
    the sum N/D of 1/p_i, i > t, by a balanced tree over leaves of
    :data:`_LEAF_PRIMES` primes.  Mod each p_i, N is prod_{j != i} p_j, not 0, so
    N/D is in lowest terms and needs no gcd.  None past :data:`EXACT_RATE_TERMS` terms."""
    if fam.kind == KIND_POLYNOMIAL:
        return Fraction(fam.n - t, fam.q)
    if fam.n - t > EXACT_RATE_TERMS:
        return None
    if t == fam.n:
        return Fraction(0)

    def leaf(i):  # (sum d/p, d) over p_{i+1}..p_{i+16}, d their product
        chunk = fam.primes[i:i + _LEAF_PRIMES]
        d = math.prod(chunk)
        return sum(d // p for p in chunk), d

    add = lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1])
    return Fraction(_Lowest(*tree_reduce(add, range(t, fam.n, _LEAF_PRIMES), leaf)))


class Strategy:
    """Base class for prover strategies.

    A concrete single-prover strategy defines both of its rules:

    - ``store(fam, data, start, honest)``: its :class:`ProverStore` over one
      prover's share as :attr:`protocol.Variant.shares` gives it (checked
      data, and its symbol offset or None for a whole message).  ``honest``
      is the function beta -> h_beta of that share; stores call it only
      from ``answer``, for the challenge being answered.
    - ``rate(fam, x)``: its exact pass probability over the challenge draw
      (and any guessing) as the one prover of message ``x``, or None.
    """

    def store(self, fam, data, start, honest) -> ProverStore:
        raise UsageError(f"{self!r} is not a single-prover strategy")

    def rate(self, fam, x) -> Optional[Fraction]:
        raise UsageError(f"{self!r} is not a single-prover strategy")


@dataclass(frozen=True)
class Honest(Strategy):
    """Keeps the whole message and always answers correctly."""

    def store(self, fam, data, start, honest):
        return ProverStore(_data_bits(fam, data), lambda beta, rng: honest(beta))

    def rate(self, fam, x):
        return Fraction(1)


@dataclass(frozen=True)
class PartialCodeword(Strategy):
    """Keeps the first ``t`` hash values and guesses uniformly elsewhere."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise UsageError("t must be non-negative")

    def store(self, fam, data, start, honest):
        t = self.t
        if t > fam.n:
            raise UsageError(f"t={t} exceeds the family size n={fam.n}")
        q, primes = fam.q, fam.primes
        # (p - 1).bit_length() > b iff p > 2**b: count kept primes above each 2**b
        widths = (t * fam.symbol_bits if fam.kind == KIND_POLYNOMIAL else sum(
            t - bisect.bisect_right(primes, 1 << b, 0, t)
            for b in range((primes[t - 1] - 1).bit_length() if t else 0)))

        def answer(beta, rng):
            if beta <= t:
                return honest(beta)  # a kept value
            # q is None for karp-rabin, whose alphabet at beta is the beta-th prime
            return rng.randrange(q or primes[beta - 1])

        return ProverStore(_retained(t, widths), answer)

    def rate(self, fam, x):
        n = fam.n
        t = min(self.t, n)
        mass = _guess_mass(fam, t)
        return None if mass is None else Fraction(t, n) + mass / n


@dataclass(frozen=True)
class PartialRaw(Strategy):
    """Keeps the first ``t`` message symbols (polynomial kind only) and
    answers with the hash of the prefix plus a uniformly guessed suffix."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise UsageError("t must be non-negative")

    def store(self, fam, data, start, honest):
        if fam.kind != KIND_POLYNOMIAL:
            raise UnsupportedVariantError(
                "raw-prefix retention is defined for the polynomial kind only"
            )
        t, k, q = self.t, fam.k, fam.q
        if t > k:
            raise UsageError(f"t={t} exceeds the message length k={k}")
        # the prefix of the zero-extended message, less any trailing zeros,
        # which add nothing to the hash
        prefix = ((0,) * (start or 0) + tuple(data))[:t]

        def answer(beta, rng):
            point = beta - 1
            value = poly_eval_mod(prefix, point, q)
            if t == k:
                return value
            if point == 0:
                # the suffix never reaches the evaluation point 0; the prefix
                # pins the answer when it covers the constant term
                return value if t >= 1 else rng.randrange(q)
            # a uniform suffix contributes a uniform field element at any
            # nonzero point, so one draw suffices
            return (value + rng.randrange(q)) % q

        return ProverStore(_retained(t, t * fam.symbol_bits), answer)

    def rate(self, fam, x):
        n = fam.n
        if self.t == fam.k:
            return Fraction(1)
        determined = 1 if self.t >= 1 else 0
        return Fraction(determined, n) + Fraction(n - determined, n) / fam.q


@dataclass(frozen=True)
class UniformGuesser(Strategy):
    """Keeps nothing; answers a uniform element of the challenge alphabet."""

    def store(self, fam, data, start, honest):
        q, primes = fam.q, fam.primes
        return ProverStore(0, lambda beta, rng: rng.randrange(q or primes[beta - 1]))

    def rate(self, fam, x):
        return PartialCodeword(0).rate(fam, x)


@dataclass(frozen=True)
class ZeroAnswerer(Strategy):
    """Keeps nothing; always answers zero."""

    def store(self, fam, data, start, honest):
        return ProverStore(0, lambda beta, rng: 0)

    def rate(self, fam, x):
        hash_at = chunk_hasher(fam, x)
        zeros = sum(1 for beta in range(1, fam.n + 1) if hash_at(beta) == 0)
        return Fraction(zeros, fam.n)


@dataclass(frozen=True)
class Unresponsive(Strategy):
    """Keeps the whole message but stays silent with the given probability
    (silent every time by default); answers honestly otherwise."""

    probability: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise UsageError("probability must lie in [0, 1]")

    def store(self, fam, data, start, honest):
        probability = self.probability

        def answer(beta, rng):
            return None if rng.random() < probability else honest(beta)

        return ProverStore(_data_bits(fam, data), answer)

    def rate(self, fam, x):
        return 1 - Fraction(self.probability)


@dataclass(frozen=True)
class Colluding(Strategy):
    """Multi-prover meta-strategy: the listed 1-based provers run ``inner``,
    everyone else is honest."""

    members: frozenset
    inner: Strategy

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        if isinstance(self.inner, Colluding):
            raise UsageError("colluding strategies do not nest")


def per_prover_strategies(provers: int, strategy) -> Tuple[Strategy, ...]:
    """Expand a strategy assignment into one concrete strategy per prover.

    Accepts a single strategy (applied to every prover), a
    :class:`Colluding` wrapper, or an explicit sequence of ``provers``
    strategies.
    """
    if isinstance(strategy, Colluding):
        if not all(isinstance(m, int) and 1 <= m <= provers for m in strategy.members):
            raise UsageError(f"colluder indices must lie in 1..{provers}")
        return tuple(
            strategy.inner if i in strategy.members else Honest()
            for i in range(1, provers + 1)
        )
    if isinstance(strategy, Strategy):
        return (strategy,) * provers
    try:
        strategies = tuple(strategy)
    except TypeError:
        raise UsageError(f"not a strategy or a sequence of strategies: {strategy!r}") from None
    if len(strategies) != provers:
        raise UsageError(f"expected {provers} strategies, got {len(strategies)}")
    for s in strategies:
        if not isinstance(s, Strategy) or isinstance(s, Colluding):
            raise UsageError("per-prover entries must be concrete strategies")
    return strategies


def analytic_pass_rate(
    fam: HashFamilyDescriptor,
    x: Message,
    strategy,
    variant: str = VARIANT_SINGLE,
    plan: Optional[ChunkPlan] = None,
) -> Optional[Fraction]:
    """Exact pass probability over the challenge draw (and any guessing).

    Covers every single-prover strategy but karp-rabin guessing past
    :data:`EXACT_RATE_TERMS` primes; for multi-prover variants, only the
    all-honest population (1).  Anything else is None: measure it.
    """
    if lookup_variant(variant).provers is None:
        if plan is None:
            raise UsageError("multi-prover variants need a chunk plan")
        strategies = per_prover_strategies(plan.provers, strategy)
        return Fraction(1) if all(isinstance(s, Honest) for s in strategies) else None
    if not isinstance(strategy, Strategy):
        (strategy,) = per_prover_strategies(1, strategy)
    return strategy.rate(fam, x)


# --- experiment engine ------------------------------------------------------


def trial_seed(master_seed: int, index: int) -> int:
    """Derived seed for trial ``index``: sha256 of a namespaced label."""
    label = f"storen.trial:{master_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(label).digest(), "big")


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome counts of one strategy replayed over many audits."""

    variant: str
    strategy_label: str
    trials: int
    passes: int
    undecidable: int
    retained_bits: int
    empirical_rate: Fraction
    analytic_rate: Optional[Fraction]
    accused_counts: Tuple[int, ...]
    master_seed: int
    rng_algorithm: str = RNG_ALGORITHM


def run_experiment(
    fam: HashFamilyDescriptor,
    x: Message,
    strategy,
    trials: int,
    master_seed: int,
    variant: str = VARIANT_SINGLE,
    plan: Optional[ChunkPlan] = None,
    r: Optional[int] = None,
    e: Optional[int] = None,
) -> ExperimentReport:
    """Replay ``trials`` independent audits of one strategy assignment: the
    one-assignment case of :func:`run_sweep`."""
    (report,) = run_sweep(fam, x, [strategy], trials, master_seed, variant, plan, r, e)
    return report


def run_sweep(
    fam: HashFamilyDescriptor,
    x: Message,
    assignments: Sequence,
    trials: int,
    master_seed: int,
    variant: str = VARIANT_SINGLE,
    plan: Optional[ChunkPlan] = None,
    r: Optional[int] = None,
    e: Optional[int] = None,
) -> Tuple[ExperimentReport, ...]:
    """Replay the same ``trials`` audits of master seed ``master_seed``
    against each strategy assignment; one report per assignment.

    Each trial reseeds the call's one generator with the pinned trial-seed
    recipe, draws a challenge, collects the answers, and runs the real
    verdict (:attr:`Variant.decide`) on the digest of that challenge.  The
    first time a challenge is drawn, each prover's data is hashed once
    there, and the digest, which :func:`settle` passes then, and
    the honest answers are kept for every later trial and assignment that
    draws it; the stores read the answers as their ``honest`` function.  A
    sweep therefore checks the data once and costs one evaluation per chunk
    per distinct challenge, and no codeword is built.  Every assignment is
    checked, and its stores built, before the first trial.
    ``retained_bits`` totals an assignment's stores across all provers.

    A call of ``2 * MIN_TRIALS_PER_WORKER`` trials or more splits them into
    contiguous ranges replayed in forked processes (:func:`_workers`), each
    with its own memo; the reports are the same for any number of them.  So
    a store's ``answer`` must be a pure function of ``(beta, rng)``: its
    side effects stay in the process that ran the trial.
    """
    if trials < 1:
        raise UsageError("at least one trial required")
    spec = lookup_variant(variant)
    shares = spec.shares(fam, x, plan)
    provers = len(shares)
    populations = [per_prover_strategies(provers, a) for a in assignments]
    # digests[beta - 1] is the digest of a challenge and answers[beta - 1]
    # its honest answers, one per prover, both made at its first draw;
    # where the honest answers are the digest values (single, trivial), the
    # digest holds them.  A list, and machine words for the answers, keep
    # the memo small: it is part of every call's peak memory.
    n = fam.n
    digests = [None] * n
    shape = AuditShape(provers, r, e)
    extra = spec.expected and spec.expected(fam, shares, shape)
    if extra is None:
        honest = lambda column: lambda beta: digests[beta - 1].gammas[column]
    else:
        answers = [None] * n
        honest = lambda column: lambda beta: answers[beta - 1][column]
    store_sets = [
        [strat.store(fam, data, start, honest(column))
         for column, ((data, start), strat) in enumerate(zip(shares, strategies))]
        for strategies in populations
    ]
    rates = [analytic_pass_rate(fam, x, a, variant, plan) for a in assignments]
    hashers = answerers(fam, shares)
    fingerprint = family_fingerprint(fam)

    def digest_at(beta):
        """The digest of ``beta``, made, checked and memoized at its first draw."""
        word = [hash_at(beta) for hash_at in hashers]
        if extra is None:
            gammas = word
        else:
            answers[beta - 1] = array("Q", word)
            gammas = extra(beta, word)
        digest = Digest(variant, beta, tuple(gammas), fingerprint, family=fam, shape=shape)
        digests[beta - 1] = settle(digest, provers)
        return digests[beta - 1]

    decide = spec.decide
    rng = random.Random()
    seed = super(random.Random, rng).seed  # Random.seed, less its type dispatch
    randrange = rng.randrange

    def replay(lo, hi):
        """(passes, undecidable, *accused_counts) of each assignment over trials lo..hi-1."""
        counts = []
        for stores in store_sets:
            answer_fns = [store.answer for store in stores]
            passes = undecidable = 0
            accused_counts = [0] * provers
            for index in range(lo, hi):
                # for an int, Random.seed is these two steps, so the stream is
                # that of random.Random(trial_seed(master_seed, index))
                seed(trial_seed(master_seed, index))
                rng.gauss_next = None
                beta = randrange(n) + 1
                verdict = decide(digests[beta - 1] or digest_at(beta),
                                 [answer(beta, rng) for answer in answer_fns])
                outcome = verdict.outcome
                if outcome == OUTCOME_ACCEPTED:
                    passes += 1
                elif outcome == OUTCOME_UNDECIDABLE:
                    undecidable += 1
                for accused in verdict.accused:
                    accused_counts[accused - 1] += 1
            counts.append((passes, undecidable, *accused_counts))
        return counts

    workers = _workers(trials)
    parts = [replay(0, trials)] if workers == 1 else _forked(replay, trials, workers)
    reports = []
    for assignment, stores, rate, counts in zip(assignments, store_sets, rates, zip(*parts)):
        passes, undecidable, *accused_counts = map(sum, zip(*counts))  # over the ranges
        reports.append(ExperimentReport(
            variant=variant,
            strategy_label=repr(assignment),
            trials=trials,
            passes=passes,
            undecidable=undecidable,
            retained_bits=sum(store.retained_bits for store in stores),
            empirical_rate=Fraction(passes, trials),
            analytic_rate=rate,
            accused_counts=tuple(accused_counts),
            master_seed=master_seed,
        ))
    return tuple(reports)


def _workers(trials: int) -> int:
    """Processes to replay ``trials`` trials in: one per :data:`MIN_TRIALS_PER_WORKER`, up
    to :data:`_MAX_WORKERS` and the CPUs this process may run on; one without a CPU affinity
    mask (macOS; Windows, which has no fork) or while another thread runs, as fork is unsafe."""
    if (trials < 2 * MIN_TRIALS_PER_WORKER or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, trials // MIN_TRIALS_PER_WORKER)


def _forked(replay, trials: int, workers: int) -> list:
    """``replay(lo, hi)`` over ``workers`` contiguous ranges of ``range(trials)``, in order:
    the first here, the others in forked workers that send them back through pipes.  A range
    whose worker sends nothing whole is replayed here, so its error surfaces with its own
    traceback.  No worker outlives the call."""
    import signal  # only a forked call needs it
    bounds = [trials * w // workers for w in range(workers + 1)]
    running = []  # (pid, read end of its pipe, lo, hi) per worker
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # the result, or a short write; the exit status is not read
                    os.write(write, marshal.dumps(replay(lo, hi)))
                finally:
                    os._exit(0)
            os.close(write)
            running.append((pid, open(read, "rb"), lo, hi))
        parts = [replay(0, bounds[1])]
        for _, pipe, lo, hi in running:
            try:  # a strict prefix of a marshalled list does not load
                parts.append(marshal.loads(pipe.read()))
            except (EOFError, ValueError):
                parts.append(replay(lo, hi))
        return parts
    finally:
        for pid, pipe, _, _ in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # unreaped, so its pid is not reused
            os.waitpid(pid, 0)
