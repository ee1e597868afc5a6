"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they happen).  Tolerances and time budgets are pinned in
the assertions themselves.
"""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

from storen.adversary import PartialCodeword, run_experiment
from storen.codes import (
    SystematicRSCode,
    brute_force_list_decode,
    encode,
    johnson_list_size_bound,
    johnson_radius,
    min_distance_exhaustive,
    rs_decode_errors_erasures,
    rs_encode_systematic,
)
from storen.hash_families import (
    chunk_hasher,
    collision_probability_exact,
    derive_family,
    enumerate_messages,
    hash_eval,
    hash_eval_stream,
    karp_rabin_family,
    next_prime_at_least,
    polynomial_family,
)
from storen.protocol import (
    ChunkPlan,
    digest_payload_bits,
    multi_rs_preprocess,
    preprocess,
    retrievability_extract,
    verify,
)
from storen.transport import (
    ProverServer,
    reset_consumed_digests,
    run_verifier_client,
)

from _oracles import naive_poly_eval


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {label}: {status}{suffix}")
    assert ok, f"acceptance {num:02d} {label}{suffix}"


def _seed_for(n, beta):
    return next(
        s for s in range(100000) if random.Random(s).randrange(n) + 1 == beta
    )


def test_criterion_01_code_distance():
    started = time.monotonic()
    cases = [
        (polynomial_family(k=2, n=5, q=5), 4),
        (polynomial_family(k=3, n=7, q=7), 5),
        (karp_rabin_family(k=2, n=4), 3),
    ]
    results = [min_distance_exhaustive(fam) for fam, _ in cases]
    elapsed = time.monotonic() - started
    ok = all(got == n - fam.k + 1 == want
             for (fam, want), got, n in zip(cases, results, [5, 7, 4]))
    ok = ok and elapsed < 1.0
    _report(1, "exhaustive code distance is n-k+1",
            ok, f"distances {results}, {elapsed:.2f}s")


def test_criterion_02_list_size_within_johnson_bound():
    started = time.monotonic()
    fam = polynomial_family(k=2, n=5, q=5)
    radius = johnson_radius(5, 4)
    bound = johnson_list_size_bound(fam)
    assert radius == 2 and bound == 50
    max_seen = 0
    for z in itertools.product(range(5), repeat=5):
        size = len(brute_force_list_decode(fam, z, radius))
        max_seen = max(max_seen, size)
    elapsed = time.monotonic() - started
    ok = max_seen <= bound and elapsed < 10.0
    _report(2, "list size at the certified radius stays within the bound",
            ok, f"max list {max_seen} <= {bound} over all 3125 words, {elapsed:.2f}s")


def test_criterion_03_exact_collision_probability():
    poly = polynomial_family(k=2, n=5, q=5)
    kr = karp_rabin_family(k=2, n=4)
    cp_poly = collision_probability_exact(poly)
    cp_kr = collision_probability_exact(kr)
    ok = cp_poly <= Fraction(1, 5) and cp_kr <= Fraction(1, 4)
    _report(3, "exact collision probability is within (k-1)/n",
            ok, f"polynomial {cp_poly}, karp-rabin {cp_kr}")


def test_criterion_04_decoder_exhaustive_error_erasure():
    started = time.monotonic()
    code = SystematicRSCode(2, 6, 7)
    budget = 6 - 2
    checked = 0
    ok = True
    for v in itertools.product(range(7), repeat=2):
        cw = rs_encode_systematic(code, v)
        for n_err in range(budget // 2 + 1):
            for err_pos in itertools.combinations(range(6), n_err):
                rest = [p for p in range(6) if p not in err_pos]
                for n_era in range(budget - 2 * n_err + 1):
                    for era_pos in itertools.combinations(rest, n_era):
                        for deltas in itertools.product(range(1, 7), repeat=n_err):
                            word = list(cw)
                            for p, d in zip(err_pos, deltas):
                                word[p] = (word[p] + d) % 7
                            for p in era_pos:
                                word[p] = None
                            got = rs_decode_errors_erasures(code, word)
                            want = (v, frozenset(p + 1 for p in err_pos))
                            ok = ok and got == want
                            checked += 1
        if not ok:
            break
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(4, "decoder is exact for every budgeted error/erasure pattern",
            ok, f"{checked} received words, {elapsed:.2f}s")


def test_criterion_05_completeness_every_challenge_and_tcp():
    reset_consumed_digests()
    fam = polynomial_family(k=2, n=5, q=5)
    kr = karp_rabin_family(k=2, n=4)
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(2, 2)
    x = (1, 2)
    ok = True
    for beta in range(1, 6):
        seed = _seed_for(5, beta)
        d = preprocess("single", fam, x, None, seed)
        ok = ok and d.beta == beta and verify(d, (hash_eval(fam, x, beta),)).accepted
        d = preprocess("trivial", chunk_fam, x, plan, seed)
        answers = tuple(hash_eval(chunk_fam, (sym,), beta) for sym in x)
        ok = ok and verify(d, answers).accepted
        d = preprocess("linear", fam, x, plan, seed)
        answers = tuple(
            hash_eval(fam, plan.zero_extended(x, i), beta) for i in (1, 2)
        )
        ok = ok and verify(d, answers).accepted
        d = multi_rs_preprocess(fam, x, plan, 1, 0, seed)
        ok = ok and verify(d, answers).accepted
    for beta in range(1, 5):
        d = preprocess("single", kr, 4, None, _seed_for(4, beta))
        ok = ok and verify(d, (hash_eval(kr, 4, beta),)).accepted

    # one end-to-end network run per variant
    with ProverServer(fam, chunk_hasher(fam, x)) as server:
        ok = ok and run_verifier_client(
            preprocess("single", fam, x, None, 123), [server.address]
        ).accepted
    with ProverServer(chunk_fam, chunk_hasher(chunk_fam, (1,))) as s1, \
            ProverServer(chunk_fam, chunk_hasher(chunk_fam, (2,))) as s2:
        ok = ok and run_verifier_client(
            preprocess("trivial", chunk_fam, x, plan, 123),
            [s1.address, s2.address],
        ).accepted
    a1 = chunk_hasher(fam, plan.zero_extended(x, 1))
    a2 = chunk_hasher(fam, plan.zero_extended(x, 2))
    with ProverServer(fam, a1) as s1, ProverServer(fam, a2) as s2:
        ok = ok and run_verifier_client(
            preprocess("linear", fam, x, plan, 123), [s1.address, s2.address]
        ).accepted
        ok = ok and run_verifier_client(
            multi_rs_preprocess(fam, x, plan, 1, 0, 124), [s1.address, s2.address]
        ).accepted
    _report(5, "honest provers pass every challenge, in process and over tcp", ok)


def test_criterion_06_partial_retention_rates():
    started = time.monotonic()
    fam = derive_family("polynomial", 64, Fraction(1, 4))
    assert (fam.n, fam.q) == (1024, 1031)
    rng = random.Random(64)
    x = tuple(rng.randrange(fam.q) for _ in range(64))
    trials = 100_000
    details = []
    ok = True
    for t in (0, 256, 512, 768, 1024):
        report = run_experiment(
            fam, x, PartialCodeword(t), trials=trials, master_seed=2026
        )
        p = Fraction(t, 1024) + Fraction(1024 - t, 1024) * Fraction(1, 1031)
        assert report.analytic_rate == p
        tolerance = 3 * math.sqrt(float(p) * (1 - float(p)) / trials)
        gap = abs(float(report.empirical_rate) - float(p))
        ok = ok and gap <= tolerance
        details.append(f"t={t}: |{float(report.empirical_rate):.5f}-{float(p):.5f}|<={tolerance:.5f}")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(6, "empirical pass rates track the partial-retention law",
            ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_07_cheater_identification_with_silence():
    fam = polynomial_family(k=3, n=7, q=7)
    plan = ChunkPlan(3, 3)
    rng = random.Random(7)
    ok = True
    for trial in range(1000):
        x = tuple(rng.randrange(7) for _ in range(3))
        digest = multi_rs_preprocess(fam, x, plan, r=1, e=1, rng_seed=trial)
        honest = tuple(
            hash_eval(fam, plan.zero_extended(x, i), digest.beta) for i in (1, 2, 3)
        )
        for cheater in (1, 2, 3):
            for silent in (1, 2, 3):
                if silent == cheater:
                    continue
                wrong = (honest[cheater - 1] + rng.randrange(1, 7)) % 7
                answers = list(honest)
                answers[silent - 1] = None
                answers[cheater - 1] = wrong
                verdict = verify(digest, tuple(answers))
                ok = ok and verdict.outcome == "rejected"
                ok = ok and verdict.accused == frozenset({cheater})
                ok = ok and verdict.erased == frozenset({silent})
                # a "cheater" echoing the honest value is not accused
                answers[cheater - 1] = honest[cheater - 1]
                verdict = verify(digest, tuple(answers))
                ok = ok and verdict.accepted
                ok = ok and verdict.erased == frozenset({silent})
        if not ok:
            break
    _report(7, "one wrong prover is named exactly, even with one silent prover",
            ok, "1000 random data/challenge pairs, all cheater x silent combinations")


def test_criterion_08_digest_payload_sizes():
    fam = polynomial_family(k=2, n=5, q=5)
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    kr = karp_rabin_family(k=2, n=4)
    plan = ChunkPlan(2, 2)
    lg = lambda v: math.ceil(math.log2(v))
    cases = [
        ("single poly", preprocess("single", fam, (1, 2), None, 0), lg(5) + lg(5)),
        ("single kr", preprocess("single", kr, 4, None, 0), lg(4) + lg(7)),
        ("trivial", preprocess("trivial", chunk_fam, (1, 2), plan, 0),
         lg(5) + 2 * lg(5)),
        ("linear", preprocess("linear", fam, (1, 2), plan, 0), lg(5) + lg(5)),
        ("rs-parity", multi_rs_preprocess(fam, (1, 2), plan, 1, 0, 0),
         lg(5) + (2 * 1 + 0) * lg(5)),
    ]
    results = [(name, digest_payload_bits(d), want) for name, d, want in cases]
    ok = all(got == want for _, got, want in results)
    _report(8, "digest payload bits match the per-variant formulas",
            ok, ", ".join(f"{name}={got}" for name, got, _ in results))


def test_criterion_09_stream_equals_batch():
    started = time.monotonic()
    poly = polynomial_family(k=8, n=64, q=67)
    kr = karp_rabin_family(k=4, n=16)
    rng = random.Random(9)
    ok = True
    for _ in range(10_000):
        x = tuple(rng.randrange(67) for _ in range(8))
        i = rng.randrange(64) + 1
        ok = ok and hash_eval_stream(poly, iter(x), i) == hash_eval(poly, x, i)
    space = 2 * 3 * 5 * 7
    for _ in range(10_000):
        value = rng.randrange(space)
        i = rng.randrange(16) + 1
        ok = ok and hash_eval_stream(kr, iter([value]), i) == hash_eval(kr, value, i)
    tiny = polynomial_family(k=2, n=4, q=5)
    for x in enumerate_messages(tiny):
        for i in range(1, 5):
            ok = ok and hash_eval_stream(tiny, iter(x), i) == hash_eval(tiny, x, i)

    # constant-size state: stream a 50k-symbol message without holding it
    k = 50_000
    big = polynomial_family(k=k, n=k, q=next_prime_at_least(k))
    tracemalloc.start()
    value = hash_eval_stream(big, ((j * 7 + 3) % big.q for j in range(k)), 17)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ok = ok and isinstance(value, int) and peak < 256 * 1024
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(9, "streaming evaluation equals batch with constant state",
            ok, f"20000 random + exhaustive tiny; peak stream state {peak}B, {elapsed:.1f}s")


def test_criterion_10_retrievability_from_corrupted_answers():
    started = time.monotonic()
    fam = polynomial_family(k=2, n=5, q=5)
    radius = johnson_radius(5, 4)
    assert radius == 2
    messages = list(enumerate_messages(fam))
    oracle_words = {
        x: [naive_poly_eval(x, point, 5) for point in range(5)] for x in messages
    }
    ok = True
    singletons = total = 0
    for x in messages:
        digest = preprocess("single", fam, x, None, 0)
        cw = oracle_words[x]
        for positions in itertools.chain.from_iterable(
            itertools.combinations(range(5), j) for j in range(radius + 1)
        ):
            for deltas in itertools.product(range(1, 5), repeat=len(positions)):
                z = list(cw)
                for p, d in zip(positions, deltas):
                    z[p] = (z[p] + d) % 5
                survivors = retrievability_extract(fam, z, digest)
                expected = [
                    u for u in messages
                    if sum(1 for a, b in zip(oracle_words[u], z) if a != b) <= radius
                    and oracle_words[u][digest.beta - 1] == digest.gammas[0]
                ]
                ok = ok and x in survivors and list(survivors) == expected
                total += 1
                singletons += 1 if len(survivors) == 1 else 0
        if not ok:
            break
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(10, "the stored data survives any in-radius corruption",
            ok, f"{total} corrupted transcripts, singleton rate "
                f"{singletons}/{total} = {singletons / total:.3f}, {elapsed:.1f}s")
