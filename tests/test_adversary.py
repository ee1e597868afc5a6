import dataclasses
import hashlib
import math
import os
import random
import threading
from fractions import Fraction

import pytest

import storen.adversary
import storen.algebra
import storen.codes
import storen.hash_families
import storen.protocol
from storen.adversary import (
    EXACT_RATE_TERMS,
    Colluding,
    Honest,
    PartialCodeword,
    PartialRaw,
    ProverStore,
    Strategy,
    UniformGuesser,
    Unresponsive,
    ZeroAnswerer,
    analytic_pass_rate,
    per_prover_strategies,
    run_experiment,
    run_sweep,
    trial_seed,
)
from storen.cli import synthesize_message
from storen.codes import encode
from storen.errors import UnsupportedVariantError, UsageError
from storen.hash_families import (
    KIND_KARP_RABIN,
    KIND_POLYNOMIAL,
    chunk_hasher,
    derive_family,
    hash_eval,
    karp_rabin_family,
    polynomial_family,
)
from storen.protocol import ChunkPlan, Digest, multi_rs_preprocess, single_verify
from storen.transport import honest_answerer
from storen.hash_families import family_fingerprint

from _oracles import first_primes, guess_mass, guess_mass_of_primes, wilson_free_halfwidth

FAM = polynomial_family(k=2, n=5, q=5)
KR = karp_rabin_family(k=2, n=4)
X = (1, 2)  # codeword (1, 3, 0, 2, 4)


def _store(fam, x, strategy, start=None):
    """The store ``strategy`` builds over ``x``, given ``x``'s own hash as
    ``honest``."""
    return strategy.store(fam, x, start, chunk_hasher(fam, x, start))


def test_trial_seed_is_sha256_derived():
    expected = int.from_bytes(
        hashlib.sha256(b"storen.trial:42:0").digest(), "big"
    )
    assert trial_seed(42, 0) == expected
    assert trial_seed(42, 1) != trial_seed(42, 0)
    assert trial_seed(43, 0) != trial_seed(42, 0)


def test_honest_store_answers_codeword():
    store = _store(FAM, X, Honest())
    rng = random.Random(0)
    assert [store.answer(b, rng) for b in range(1, 6)] == [1, 3, 0, 2, 4]
    # full message: header (tag + count) plus 2 symbols of 3 bits each
    assert store.retained_bits == 40 + 2 * 3


def test_honest_store_karp_rabin_bits():
    store = _store(KR, 4, Honest())
    rng = random.Random(0)
    assert store.answer(1, rng) == hash_eval(KR, 4, 1)
    # one natural below 2*3 = 6: five bits wide, plus the header
    assert store.retained_bits == 40 + 3


def test_partial_codeword_store():
    cw = encode(FAM, X)
    store = _store(FAM, X, PartialCodeword(t=2))
    rng = random.Random(1)
    assert store.answer(1, rng) == cw[0]
    assert store.answer(2, rng) == cw[1]
    for b in (3, 4, 5):
        assert 0 <= store.answer(b, rng) < 5
    assert store.retained_bits == 40 + 2 * 3
    assert _store(FAM, X, PartialCodeword(t=0)).retained_bits == 0
    bit_counts = [
        _store(FAM, X, PartialCodeword(t=t)).retained_bits for t in range(6)
    ]
    assert bit_counts == sorted(bit_counts)
    assert all(b1 < b2 for b1, b2 in zip(bit_counts[1:], bit_counts[2:]))
    with pytest.raises(UsageError):
        _store(FAM, X, PartialCodeword(t=6))


def test_partial_codeword_karp_rabin_widths():
    # primes 2, 3, 5, 7 -> symbol widths 1, 2, 3, 3
    store = _store(KR, 4, PartialCodeword(t=4))
    assert store.retained_bits == 40 + (1 + 2 + 3 + 3)
    rng = random.Random(2)
    for b, p in zip(range(1, 5), (2, 3, 5, 7)):
        assert store.answer(b, rng) == 4 % p


def test_partial_raw_store():
    store = _store(FAM, X, PartialRaw(t=1))
    rng = random.Random(3)
    # the first evaluation point is 0, where the hash equals the first symbol
    for _ in range(10):
        assert store.answer(1, rng) == X[0]
    assert store.retained_bits == 40 + 3
    full = _store(FAM, X, PartialRaw(t=2))
    for b in range(1, 6):
        assert full.answer(b, rng) == encode(FAM, X)[b - 1]
    with pytest.raises(UnsupportedVariantError):
        _store(KR, 4, PartialRaw(t=1))


def test_stateless_stores():
    rng = random.Random(4)
    zero = _store(FAM, X, ZeroAnswerer())
    assert zero.answer(3, rng) == 0 and zero.retained_bits == 0
    uniform = _store(FAM, X, UniformGuesser())
    assert all(0 <= uniform.answer(b, rng) < 5 for b in range(1, 6))
    assert uniform.retained_bits == 0
    silent = _store(FAM, X, Unresponsive())
    assert silent.answer(1, rng) is None
    assert silent.retained_bits == 40 + 2 * 3  # keeps the data, never serves it
    sometimes = _store(FAM, X, Unresponsive(probability=0.0))
    assert sometimes.answer(2, rng) == 3
    with pytest.raises(UsageError):
        Unresponsive(probability=1.5)


def test_colluding_has_no_store():
    with pytest.raises(UsageError):
        _store(FAM, X, Colluding(members=frozenset({1}), inner=ZeroAnswerer()))


def test_per_prover_strategies():
    plain = per_prover_strategies(3, PartialCodeword(t=1))
    assert plain == (PartialCodeword(t=1),) * 3
    spread = per_prover_strategies(3, Colluding(frozenset({2}), ZeroAnswerer()))
    assert spread == (Honest(), ZeroAnswerer(), Honest())
    explicit = per_prover_strategies(2, (Honest(), UniformGuesser()))
    assert explicit == (Honest(), UniformGuesser())
    with pytest.raises(UsageError):
        per_prover_strategies(2, Colluding(frozenset({3}), ZeroAnswerer()))
    with pytest.raises(UsageError):
        per_prover_strategies(2, (Honest(),))
    with pytest.raises(UsageError):
        per_prover_strategies(2, Colluding(frozenset({1}), Colluding(frozenset({1}), Honest())))
    for neither in (42, None, Honest):
        with pytest.raises(UsageError):
            per_prover_strategies(2, neither)


def test_analytic_rates_single():
    assert analytic_pass_rate(FAM, X, Honest()) == 1
    assert analytic_pass_rate(FAM, X, PartialCodeword(t=2)) == Fraction(2, 5) + Fraction(3, 5) * Fraction(1, 5)
    assert analytic_pass_rate(FAM, X, PartialCodeword(t=5)) == 1
    assert analytic_pass_rate(FAM, X, UniformGuesser()) == Fraction(1, 5)
    # codeword (1, 3, 0, 2, 4) has one zero
    assert analytic_pass_rate(FAM, X, ZeroAnswerer()) == Fraction(1, 5)
    assert analytic_pass_rate(FAM, X, Unresponsive()) == 0
    assert analytic_pass_rate(FAM, X, Unresponsive(probability=0.25)) == Fraction(3, 4)
    # raw prefix pins only the evaluation point 0
    assert analytic_pass_rate(FAM, X, PartialRaw(t=1)) == Fraction(1, 5) + Fraction(4, 5) * Fraction(1, 5)
    assert analytic_pass_rate(FAM, X, PartialRaw(t=2)) == 1
    assert analytic_pass_rate(KR, 4, UniformGuesser()) == (
        Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7)
    ) / 4
    assert analytic_pass_rate(KR, 4, PartialCodeword(t=2)) == (
        Fraction(2, 4) + (Fraction(1, 5) + Fraction(1, 7)) / 4
    )
    for not_a_strategy in ("honest", None, Honest):
        with pytest.raises(UsageError):
            analytic_pass_rate(FAM, X, not_a_strategy)
    with pytest.raises(UsageError):
        analytic_pass_rate(FAM, X, Colluding(frozenset({1}), ZeroAnswerer()))
    # one prover's list, as per_prover_strategies(1, ...) takes it
    assert analytic_pass_rate(FAM, X, [ZeroAnswerer()]) == Fraction(1, 5)
    for misfit in ([Honest(), Honest()], [Colluding(frozenset({1}), Honest())]):
        with pytest.raises(UsageError):
            analytic_pass_rate(FAM, X, misfit)


def test_analytic_rates_multi():
    plan = ChunkPlan(2, 2)
    assert analytic_pass_rate(FAM, X, Honest(), variant="linear", plan=plan) == 1
    assert analytic_pass_rate(
        FAM, X, Colluding(frozenset({1}), Honest()), variant="rs-parity", plan=plan
    ) == 1
    assert analytic_pass_rate(
        FAM, X, Colluding(frozenset({1}), ZeroAnswerer()), variant="linear", plan=plan
    ) is None


def test_run_experiment_honest_single():
    report = run_experiment(FAM, X, Honest(), trials=200, master_seed=11)
    assert report.passes == report.trials == 200
    assert report.empirical_rate == 1
    assert report.analytic_rate == 1
    assert report.undecidable == 0
    assert report.retained_bits == 46
    assert report.rng_algorithm == "mt19937-randrange-v1"
    again = run_experiment(FAM, X, Honest(), trials=200, master_seed=11)
    assert again == report


def test_run_experiment_matches_manual_replay():
    # replay the pinned trial recipe by hand and compare pass counts
    trials, master = 50, 99
    fp = family_fingerprint(FAM)
    cw = encode(FAM, X)
    expected_passes = 0
    for index in range(trials):
        rng = random.Random(trial_seed(master, index))
        beta = rng.randrange(FAM.n) + 1
        digest = Digest("single", beta, (cw[beta - 1],), fp, family=FAM)
        guess = rng.randrange(FAM.alphabet(beta))
        if single_verify(digest, guess).accepted:
            expected_passes += 1
    report = run_experiment(FAM, X, UniformGuesser(), trials=trials, master_seed=master)
    assert report.passes == expected_passes


def test_run_experiment_empirical_matches_analytic():
    trials = 4000
    for fam, x, strategy in (
        (FAM, X, PartialCodeword(t=2)),
        (FAM, X, ZeroAnswerer()),
        (KR, 4, UniformGuesser()),
    ):
        report = run_experiment(fam, x, strategy, trials=trials, master_seed=5)
        p = float(report.analytic_rate)
        slack = wilson_free_halfwidth(p, trials)
        assert abs(float(report.empirical_rate) - p) <= slack, (strategy, report)


def test_run_experiment_multi_rs_accuses_colluder():
    plan = ChunkPlan(2, 2)
    strategy = Colluding(frozenset({2}), ZeroAnswerer())
    report = run_experiment(
        FAM, X, strategy, trials=400, master_seed=21,
        variant="rs-parity", plan=plan, r=1, e=0,
    )
    assert report.trials == 400
    assert report.undecidable == 0
    assert report.accused_counts[0] == 0
    assert report.accused_counts[1] == report.trials - report.passes
    assert 0 < report.passes < report.trials  # zero sometimes happens to be right
    assert report.analytic_rate is None
    # the honest half of the population retains its one-symbol chunk
    # (zero padding is structural, not stored); the colluder retains nothing
    assert report.retained_bits == 40 + 1 * 3


def test_run_experiment_multi_variants_honest():
    plan = ChunkPlan(2, 2)
    for variant, extra in (
        ("trivial", {}),
        ("linear", {}),
        ("rs-parity", {"r": 1, "e": 0}),
    ):
        fam = polynomial_family(k=1, n=5, q=5) if variant == "trivial" else FAM
        report = run_experiment(
            fam, X, Honest(), trials=100, master_seed=3,
            variant=variant, plan=plan, **extra,
        )
        assert report.passes == 100, variant
        assert report.analytic_rate == 1


def test_run_experiment_trivial_karp_rabin():
    chunk_fam = karp_rabin_family(k=2, n=6)
    plan = ChunkPlan(2, 4)
    report = run_experiment(
        chunk_fam, (4, 5), Honest(), trials=50, master_seed=8,
        variant="trivial", plan=plan,
    )
    assert report.passes == 50


def test_run_experiment_validation():
    with pytest.raises(UsageError):
        run_experiment(FAM, X, Honest(), trials=0, master_seed=1)
    with pytest.raises(UsageError):
        run_experiment(FAM, X, Honest(), trials=10, master_seed=1, variant="linear")
    with pytest.raises(UsageError):
        run_experiment(FAM, X, Honest(), trials=10, master_seed=1, variant="sideways")
    with pytest.raises(UsageError):
        run_experiment(FAM, X, 42, trials=10, master_seed=1, variant="linear", plan=ChunkPlan(2, 2))
    with pytest.raises(UsageError):
        run_experiment(FAM, X, Colluding(frozenset({1}), ZeroAnswerer()), trials=10, master_seed=1)
    listed = run_experiment(FAM, X, [ZeroAnswerer()], trials=50, master_seed=1)
    plain = run_experiment(FAM, X, ZeroAnswerer(), trials=50, master_seed=1)
    assert listed.strategy_label == "[ZeroAnswerer()]"
    assert dataclasses.replace(listed, strategy_label=plain.strategy_label) == plain


def test_serving_and_experiments_build_no_codeword(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a whole codeword was built")

    fam = polynomial_family(k=6, n=11, q=11)
    x = (3, 0, 7, 10, 1, 5)
    with_zero = (4, 0, 7, 10, 1, 5)  # h_7 is 0
    zeros = storen.hash_families.hash_all(fam, with_zero).count(0)
    assert zeros == 1
    monkeypatch.setattr(storen.hash_families, "hash_all", refuse)
    monkeypatch.setattr(storen.codes, "hash_all", refuse)
    plan = ChunkPlan(3, 6)
    assert honest_answerer(fam, x)(4) == hash_eval(fam, x, 4)
    assert honest_answerer(fam, x[2:4], 2)(4) == hash_eval(fam, plan.zero_extended(x, 2), 4)
    digest = multi_rs_preprocess(fam, x, plan, r=1, e=1, rng_seed=5)
    assert len(digest.gammas) == 3

    report = run_experiment(fam, x, PartialCodeword(5), trials=200, master_seed=1)
    assert report.analytic_rate == Fraction(5, 11) + Fraction(6, 11) / 11
    report = run_experiment(fam, with_zero, ZeroAnswerer(), trials=200, master_seed=1)
    assert report.analytic_rate == Fraction(zeros, 11)
    report = run_experiment(
        fam, x, [Honest(), ZeroAnswerer(), Unresponsive(0.5)], trials=200,
        master_seed=2, variant="rs-parity", plan=plan, r=1, e=1,
    )
    # the zero answerer is caught whenever its chunk hash is nonzero, and
    # nobody honest is ever blamed
    assert report.undecidable == 0 and report.accused_counts[0] == 0
    assert report.accused_counts[1] + report.passes == 200
    assert report.accused_counts[1] > 0 and report.accused_counts[2] == 0


def test_analytic_guess_rates_closed_form_equals_the_sum():
    fams = [
        derive_family(KIND_POLYNOMIAL, 2, Fraction(4, 5)),
        derive_family(KIND_POLYNOMIAL, 4, Fraction(1, 2)),
        derive_family(KIND_POLYNOMIAL, 16, Fraction(1, 4)),
        polynomial_family(k=3, n=7, q=11),  # alphabets q above n
    ]
    for fam in fams:
        n, x = fam.n, (0,) * fam.k
        for t in sorted({0, 1, n // 3, n - 1, n, n + 5}):
            kept = min(t, n)
            assert analytic_pass_rate(fam, x, PartialCodeword(t)) == (
                Fraction(kept, n) + guess_mass(fam, kept) / n
            )
        assert analytic_pass_rate(fam, x, UniformGuesser()) == guess_mass(fam, 0) / n


def test_karp_rabin_guess_rates_tree_equals_the_sum():
    fams = [
        karp_rabin_family(k=2, n=4),
        karp_rabin_family(k=5, n=37),  # halves of unequal length
        derive_family(KIND_KARP_RABIN, 64, Fraction(1, 4)),  # n = 1024
    ]
    for fam in fams:
        n, x = fam.n, 1
        for t in sorted({0, 1, n // 3, n - 1, n, n + 5}):
            kept = min(t, n)
            assert analytic_pass_rate(fam, x, PartialCodeword(t)) == (
                Fraction(kept, n) + guess_mass(fam, kept) / n
            )
        assert analytic_pass_rate(fam, x, UniformGuesser()) == guess_mass(fam, 0) / n


@pytest.mark.parametrize("terms", [1, 2, 15, 16, 17, 33, 1000, EXACT_RATE_TERMS])
def test_karp_rabin_guess_rates_are_exact_and_in_lowest_terms(terms):
    # term counts on either side of a 16-prime leaf, and the largest exact
    # sum; the kept-prefix case shifts the one normalised sum by exact terms
    kept = 3
    primes = first_primes(terms + kept)
    mass = guess_mass_of_primes(primes[:terms])
    shifted = (mass + sum(Fraction(1, p) for p in primes[terms:])
               - sum(Fraction(1, p) for p in primes[:kept]))
    n = terms + kept
    for fam, strategy, rate in (
        (karp_rabin_family(k=1, n=terms), UniformGuesser(), mass / terms),
        (karp_rabin_family(k=1, n=n), PartialCodeword(kept), Fraction(kept, n) + shifted / n),
    ):
        got = analytic_pass_rate(fam, 1, strategy)
        assert got == rate
        assert math.gcd(got.numerator, got.denominator) == 1


def test_karp_rabin_guess_rates_past_the_exact_size_are_none():
    n = EXACT_RATE_TERMS + 1
    fam = karp_rabin_family(k=1, n=n)
    assert analytic_pass_rate(fam, 1, PartialCodeword(0)) is None
    assert analytic_pass_rate(fam, 1, UniformGuesser()) is None
    assert analytic_pass_rate(fam, 1, PartialCodeword(1)) == (
        Fraction(1, n) + guess_mass(fam, 1) / n
    )
    assert analytic_pass_rate(fam, 1, PartialCodeword(n - 16)) == (
        Fraction(n - 16, n) + guess_mass(fam, n - 16) / n
    )
    report = run_experiment(fam, 1, PartialCodeword(0), trials=20, master_seed=1)
    assert report.analytic_rate is None and report.trials == 20
    # closed forms stay exact at any size
    poly = polynomial_family(k=1, n=n)
    assert analytic_pass_rate(poly, (0,), PartialCodeword(0)) == Fraction(1, poly.q)


def test_partial_codeword_widths_equal_the_per_index_sum():
    fams = [FAM, KR, karp_rabin_family(k=5, n=37), derive_family(KIND_POLYNOMIAL, 16, Fraction(1, 4))]
    for fam in fams:
        x = 1 if fam.kind == KIND_KARP_RABIN else (0,) * fam.k
        for t in (1, fam.n // 2, fam.n):
            widths = sum((fam.alphabet(i) - 1).bit_length() for i in range(1, t + 1))
            assert _store(fam, x, PartialCodeword(t)).retained_bits == 40 + widths


# Complete reports at master seed 17, 300 trials: (label, family, message,
# strategy, variant arguments, passes, undecidable, accused_counts,
# retained_bits, analytic_rate).  Any change to the trial recipe, a store, a
# verifier or the retention account shows up here.
_F11 = polynomial_family(k=6, n=11, q=11)
_X11 = (3, 0, 7, 10, 1, 5)
_CHUNK11 = polynomial_family(k=2, n=11, q=11)
_PLAN = ChunkPlan(3, 6)
_MIXED = [Honest(), ZeroAnswerer(), Unresponsive(0.5)]
_KR2 = karp_rabin_family(k=2, n=6)
_KR3 = karp_rabin_family(k=3, n=8)
PINNED_REPORTS = [
    ("rs-parity mixed", _F11, _X11, _MIXED, dict(variant="rs-parity", plan=_PLAN, r=1, e=1),
     61, 0, (0, 239, 0), 96, None),
    ("rs-parity honest", _F11, _X11, Honest(), dict(variant="rs-parity", plan=_PLAN, r=1, e=0),
     300, 0, (0, 0, 0), 144, 1),
    ("linear honest", _F11, _X11, Honest(), dict(variant="linear", plan=_PLAN),
     300, 0, (0, 0, 0), 144, 1),
    ("linear mixed", _F11, _X11, _MIXED, dict(variant="linear", plan=_PLAN),
     34, 0, (0, 0, 0), 96, None),
    ("trivial honest", _CHUNK11, _X11, Honest(), dict(variant="trivial", plan=_PLAN),
     300, 0, (0, 0, 0), 144, 1),
    ("trivial mixed", _CHUNK11, _X11, _MIXED, dict(variant="trivial", plan=_PLAN),
     11, 0, (0, 281, 0), 96, None),
    ("trivial karp-rabin", _KR2, (4, 5), [Honest(), Unresponsive(0.5)],
     dict(variant="trivial", plan=ChunkPlan(2, 4)), 152, 0, (0, 0), 86, None),
    ("single honest", _F11, _X11, Honest(), {}, 300, 0, (0,), 64, 1),
    ("single raw t=1", _F11, _X11, PartialRaw(1), {}, 59, 0, (241,), 44, Fraction(21, 121)),
    ("single raw t=4", _F11, _X11, PartialRaw(4), {}, 70, 0, (230,), 56, Fraction(21, 121)),
    ("single codeword t=4", _F11, _X11, PartialCodeword(4), {}, 132, 0, (168,), 56, Fraction(51, 121)),
    ("single zero", _F11, _X11, ZeroAnswerer(), {}, 0, 0, (300,), 0, 0),
    ("single unresponsive", _F11, _X11, Unresponsive(0.3), {}, 226, 0, (0,), 64, 1 - Fraction(0.3)),
    ("single zero, one zero hash", FAM, X, ZeroAnswerer(), {}, 66, 0, (234,), 0, Fraction(1, 5)),
    ("single karp-rabin zero", _KR3, 28, ZeroAnswerer(), {}, 87, 0, (213,), 0, Fraction(1, 4)),
    ("single karp-rabin codeword t=3", _KR3, 28, PartialCodeword(3), {},
     124, 0, (176,), 46, Fraction(553229, 1293292)),
]


@pytest.mark.parametrize(
    "fam, x, strategy, kwargs, passes, undecidable, accused, bits, rate",
    [case[1:] for case in PINNED_REPORTS],
    ids=[case[0] for case in PINNED_REPORTS],
)
def test_run_experiment_reports_are_pinned(
    fam, x, strategy, kwargs, passes, undecidable, accused, bits, rate
):
    report = run_experiment(fam, x, strategy, trials=300, master_seed=17, **kwargs)
    assert (report.passes, report.undecidable, report.accused_counts) == (
        passes, undecidable, accused,
    )
    assert report.retained_bits == bits
    assert report.analytic_rate == rate
    assert report.empirical_rate == Fraction(passes, 300)


@pytest.mark.parametrize("variant, kwargs, per_challenge", [
    pytest.param("rs-parity", dict(strategy=_MIXED, plan=_PLAN, r=1, e=1), 3, id="rs-parity-3"),
    pytest.param("linear", dict(strategy=_MIXED, plan=_PLAN), 4, id="linear-4"),
    # the kept prefix is answered from the same memo, not hashed up front
    pytest.param("single", dict(strategy=PartialCodeword(7)), 1, id="single-partial-codeword-1"),
])
def test_run_experiment_hashes_each_chunk_once_per_challenge(
    monkeypatch, variant, kwargs, per_challenge
):
    # one hash per chunk per challenge: three chunks, plus the whole-message
    # hash for linear; the single variant's one message
    calls = []

    def counting(coeffs, point, p):
        calls.append(point)
        return storen.algebra.poly_eval_mod(coeffs, point, p)

    monkeypatch.setattr(storen.hash_families, "poly_eval_mod", counting)
    fam = polynomial_family(k=6, n=11, q=11)
    counts = {}
    for trials in (5, 200, 2000):
        calls.clear()
        run_experiment(
            fam, (3, 0, 7, 10, 1, 5), trials=trials, master_seed=4, variant=variant, **kwargs
        )
        drawn = {
            random.Random(trial_seed(4, i)).randrange(fam.n) + 1 for i in range(trials)
        }
        assert len(calls) <= per_challenge * len(drawn)
        counts[trials] = len(calls)
    # every challenge is drawn within 200 trials, so more trials cost nothing
    assert counts[200] == counts[2000] == per_challenge * fam.n


def test_an_rs_parity_experiment_checks_each_digest_once_and_locates_every_trial(monkeypatch):
    # the variant's check runs once per distinct challenge, at its first
    # draw; the verdict, with its syndromes and Berlekamp-Massey, every trial
    located, checked = [], []

    def counting_locate(code, z):
        located.append(z)
        return storen.codes.rs_locate_errors(code, z)

    def counting_check(digest, *args):
        checked.append(digest.beta)
        return spec.check(digest, *args)

    spec = storen.protocol.VARIANTS["rs-parity"]
    monkeypatch.setattr(storen.protocol, "rs_locate_errors", counting_locate)
    monkeypatch.setitem(storen.protocol.VARIANTS, "rs-parity",
                        dataclasses.replace(spec, check=counting_check))
    for trials in (7, 300):
        located.clear()
        checked.clear()
        report = run_experiment(_F11, _X11, _MIXED, trials=trials, master_seed=5,
                                variant="rs-parity", plan=_PLAN, r=1, e=1)
        drawn = [random.Random(trial_seed(5, i)).randrange(_F11.n) + 1 for i in range(trials)]
        assert len(located) == trials
        assert sorted(checked) == sorted(set(drawn))
        assert sum(report.accused_counts) > 0


class _Recorder(Strategy):
    """Answers honestly, and records what it draws from the trial generator
    after the challenge."""

    def __init__(self):
        self.draws = []

    def store(self, fam, data, start, honest):
        def answer(beta, rng):
            self.draws.append((beta, rng.randrange(fam.q), rng.random(),
                               rng.getrandbits(77), rng.gauss(0, 1)))
            return honest(beta)

        return ProverStore(0, answer)

    def rate(self, fam, x):
        return None


def test_trials_draw_what_a_fresh_generator_draws():
    # gauss draws two normals and keeps the second for the next call, so a
    # trial that did not reset it would replay the last trial's spare
    fam = derive_family(KIND_POLYNOMIAL, 16, Fraction(1, 4))
    recorder = _Recorder()
    report = run_experiment(fam, (0,) * fam.k, recorder, trials=1000, master_seed=6)
    assert report.passes == 1000
    expected = []
    for index in range(1000):
        rng = random.Random(trial_seed(6, index))
        expected.append((rng.randrange(fam.n) + 1, rng.randrange(fam.q), rng.random(),
                         rng.getrandbits(77), rng.gauss(0, 1)))
    assert recorder.draws == expected


_SWEEPS = [
    ("single", _F11, _X11, [Honest(), PartialCodeword(4), PartialRaw(2), UniformGuesser(),
                            ZeroAnswerer(), Unresponsive(0.3), PartialCodeword(11)], {}),
    ("single karp-rabin", _KR3, 28, [PartialCodeword(0), PartialCodeword(3),
                                     UniformGuesser(), ZeroAnswerer()], {}),
    ("trivial", _CHUNK11, _X11, [Honest(), _MIXED, [UniformGuesser(), PartialCodeword(5),
                                                     Honest()]],
     dict(variant="trivial", plan=_PLAN)),
    ("trivial karp-rabin", _KR2, (4, 5), [Honest(), [UniformGuesser(), Unresponsive(0.5)]],
     dict(variant="trivial", plan=ChunkPlan(2, 4))),
    ("linear", _F11, _X11, [Honest(), _MIXED, Colluding({2}, UniformGuesser())],
     dict(variant="linear", plan=_PLAN)),
    ("rs-parity", _F11, _X11, [Honest(), _MIXED, Colluding({1, 3}, ZeroAnswerer())],
     dict(variant="rs-parity", plan=_PLAN, r=1, e=1)),
]


@pytest.mark.parametrize("fam, x, assignments, kwargs", [case[1:] for case in _SWEEPS],
                         ids=[case[0] for case in _SWEEPS])
def test_a_sweep_reports_what_separate_calls_report(fam, x, assignments, kwargs):
    swept = run_sweep(fam, x, assignments, 300, 17, **kwargs)
    assert swept == tuple(run_experiment(fam, x, a, 300, 17, **kwargs) for a in assignments)
    assert len({report.passes for report in swept}) > 1


def test_a_sweep_hashes_each_drawn_challenge_once(monkeypatch):
    calls = []

    def counting(coeffs, point, p):
        calls.append(point)
        return storen.algebra.poly_eval_mod(coeffs, point, p)

    monkeypatch.setattr(storen.hash_families, "poly_eval_mod", counting)
    fam = polynomial_family(k=6, n=101, q=101)
    ts = [0, 25, 50, 100]
    reports = run_sweep(fam, _X11, [PartialCodeword(t) for t in ts], 60, 9)
    drawn = {random.Random(trial_seed(9, i)).randrange(fam.n) + 1 for i in range(60)}
    assert len(drawn) < 60 and len(calls) == len(drawn)
    assert [r.passes for r in reports] == [
        run_experiment(fam, _X11, PartialCodeword(t), 60, 9).passes for t in ts]


def test_a_sweep_checks_every_assignment_before_its_first_trial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(storen.adversary, "trial_seed", refuse)
    with pytest.raises(UsageError, match="t=12 exceeds"):
        run_sweep(_F11, _X11, [PartialCodeword(1), PartialCodeword(12)], 5, 1)
    with pytest.raises(UsageError, match="at least one trial"):
        run_sweep(_F11, _X11, [PartialCodeword(1)], 0, 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_KR_SWEEP = ("karp-rabin partial codeword", derive_family(KIND_KARP_RABIN, 8, Fraction(1, 2)),
             1234567, [PartialCodeword(t) for t in (0, 1, 7, 16, 31, 32)], {})


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fam, x, assignments, kwargs", [case[1:] for case in _SWEEPS + [_KR_SWEEP]],
                         ids=[case[0] for case in _SWEEPS + [_KR_SWEEP]])
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, fam, x, assignments, kwargs,
                                                   workers):
    # 301 and 302 trials split unevenly over 2 and 3 workers
    for trials in (301, 302):
        monkeypatch.setattr(storen.adversary, "_workers", lambda _: 1)
        alone = run_sweep(fam, x, assignments, trials, 17, **kwargs)
        _no_child_left()
        monkeypatch.setattr(storen.adversary, "_workers", lambda _: workers)
        assert run_sweep(fam, x, assignments, trials, 17, **kwargs) == alone
        _no_child_left()


def test_an_error_in_a_workers_range_is_raised_by_the_call(monkeypatch):
    # over 3 workers, the last range (200..299) draws challenges no other range draws
    fam, trials, master = polynomial_family(k=2, n=1009, q=1009), 300, 4
    drawn = [random.Random(trial_seed(master, i)).randrange(fam.n) + 1 for i in range(trials)]
    beta = min(set(drawn[200:]) - set(drawn[:200]))

    class Failing(Strategy):
        def store(self, fam, data, start, honest):
            def answer(b, rng):
                if b == beta:
                    raise LookupError(f"no answer at {b}")
                return honest(b)

            return ProverStore(0, answer)

        def rate(self, fam, x):
            return None

    monkeypatch.setattr(storen.adversary, "_workers", lambda _: 3)
    with pytest.raises(LookupError, match=f"no answer at {beta}$"):
        run_sweep(fam, (1, 2), [Honest(), Failing()], trials, master)
    _no_child_left()


def test_calls_that_must_not_fork_run_in_process(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    fam = polynomial_family(k=2, n=7, q=7)
    cap = min(len(os.sched_getaffinity(0)), storen.adversary._MAX_WORKERS)
    assert run_experiment(fam, (1, 2), PartialCodeword(3), 1, 1).trials == 1
    assert run_experiment(fam, (1, 2), PartialCodeword(3), 2000, 1).trials == 2000
    assert storen.adversary._workers(2 * storen.adversary.MIN_TRIALS_PER_WORKER - 1) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert storen.adversary._workers(10**9) == 1
        report = run_experiment(fam, (1, 2), PartialCodeword(3), 100_000, 1)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and report.trials == 100_000
    assert storen.adversary._workers(10**9) == cap


def test_partial_codeword_karp_rabin_widths_by_bit_length():
    fam = derive_family(KIND_KARP_RABIN, 256, Fraction(1, 4))
    for t in (0, 1, 2, 3, 5, 1024, fam.n):
        widths = sum((p - 1).bit_length() for p in fam.primes[:t])
        assert _store(fam, 1, PartialCodeword(t)).retained_bits == (40 + widths if t else 0)


def test_each_call_hashes_its_own_message():
    # as the CLI does, each master seed synthesizes its own message: a memo
    # kept past its call would check the answers against the last one
    fam = derive_family(KIND_POLYNOMIAL, 8, Fraction(1, 2))
    for master in (1, 2):
        x = synthesize_message(fam, master)
        (kept,) = run_sweep(fam, x, [PartialRaw(fam.k)], 200, master)
        assert kept.passes == 200
