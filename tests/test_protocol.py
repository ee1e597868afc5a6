import math
import random
import struct

import pytest

from storen.adversary import Honest, run_experiment
from storen.codes import encode, johnson_radius
from storen.errors import UnsupportedVariantError, UsageError
from storen.hash_families import (
    CheckedSymbols,
    family_fingerprint,
    hash_eval,
    karp_rabin_family,
    polynomial_family,
)
from storen.protocol import (
    RNG_ALGORITHM,
    VARIANTS,
    ChunkPlan,
    Digest,
    Verdict,
    answerers,
    digest_from_bytes,
    digest_payload_bits,
    digest_to_bytes,
    multi_linear_preprocess,
    multi_linear_verify,
    multi_rs_preprocess,
    multi_rs_verify,
    multi_trivial_preprocess,
    multi_trivial_verify,
    preprocess,
    retrievability_extract,
    single_preprocess,
    single_verify,
    storage_bound_slack,
)

from _oracles import decodable_codewords

FAM = polynomial_family(k=2, n=5, q=5)
FP = family_fingerprint(FAM)


def find_seed(fam, target_beta):
    for seed in range(10000):
        if random.Random(seed).randrange(fam.n) + 1 == target_beta:
            return seed
    raise AssertionError("no seed found")


def test_verdict_invariants():
    v = Verdict("rejected", accused=frozenset({2}), erased=frozenset({1}))
    assert not v.accepted
    with pytest.raises(UsageError):
        Verdict("rejected", accused=frozenset({1}), erased=frozenset({1}))
    with pytest.raises(UsageError):
        Verdict("sideways")


def test_chunk_plan():
    plan = ChunkPlan(provers=2, symbols=6)
    assert plan.chunk_len == 3
    assert plan.bounds(1) == (0, 3)
    assert plan.bounds(2) == (3, 6)
    assert plan.split((1, 2, 3, 4, 5, 0)) == [(1, 2, 3), (4, 5, 0)]
    assert plan.zero_extended((1, 2, 3, 4, 5, 0), 2) == (0, 0, 0, 4, 5, 0)
    with pytest.raises(UsageError):
        ChunkPlan(provers=4, symbols=6)
    with pytest.raises(UsageError):
        plan.bounds(3)


def test_single_preprocess_binds_challenge_to_hash():
    for seed in range(30):
        digest = single_preprocess(FAM, (1, 2), seed)
        assert 1 <= digest.beta <= 5
        assert digest.gammas == (encode(FAM, (1, 2))[digest.beta - 1],)
        assert digest.fingerprint == FP
        assert single_preprocess(FAM, (1, 2), seed) == digest  # deterministic


def test_single_fixed_transcript():
    seed = find_seed(FAM, 4)
    digest = single_preprocess(FAM, (1, 2), seed)
    assert (digest.beta, digest.gammas) == (4, (2,))
    assert single_verify(digest, 2).accepted
    wrong = single_verify(digest, 3)
    assert (wrong.outcome, wrong.accused) == ("rejected", frozenset({1}))
    silent = single_verify(digest, None)
    assert (silent.outcome, silent.erased) == ("rejected", frozenset({1}))


def test_single_verify_range_checks_with_family():
    digest = single_preprocess(FAM, (1, 2), 0)
    with pytest.raises(UsageError):
        single_verify(digest, 9)


@pytest.mark.parametrize("count", [0, 2])
def test_single_and_linear_digests_hold_exactly_one_value(count):
    # a digest file may claim any count; these variants store one value
    for variant, verify, answers in (("single", single_verify, 2),
                                     ("linear", multi_linear_verify, (1, 1))):
        digest = Digest(variant, 4, (2,) * count, FP, family=FAM)
        with pytest.raises(UsageError, match=f"stores one value, not {count}"):
            verify(digest, answers)
        with pytest.raises(UsageError, match="one value"):
            VARIANTS[variant].check(digest, 1 if variant == "single" else 2)
    with pytest.raises(UsageError, match=f"stores one value, not {count}"):
        retrievability_extract(FAM, [0] * 5, Digest("single", 4, (2,) * count, FP))


def test_single_karp_rabin_round_trip():
    fam = karp_rabin_family(k=2, n=4)
    for seed in range(20):
        digest = single_preprocess(fam, 4, seed)
        assert single_verify(digest, hash_eval(fam, 4, digest.beta)).accepted


def test_multi_trivial_fixed_transcript():
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(provers=2, symbols=2)
    digest = multi_trivial_preprocess(chunk_fam, (1, 2), plan, rng_seed=7)
    # chunks are the constant polynomials 1 and 2
    assert digest.gammas == (1, 2)
    assert multi_trivial_verify(digest, (1, 2)).accepted
    v = multi_trivial_verify(digest, (1, 0))
    assert (v.outcome, v.accused, v.erased) == ("rejected", frozenset({2}), frozenset())
    v = multi_trivial_verify(digest, (None, 2))
    assert (v.outcome, v.accused, v.erased) == ("rejected", frozenset(), frozenset({1}))
    v = multi_trivial_verify(digest, (None, 0))
    assert (v.accused, v.erased) == (frozenset({2}), frozenset({1}))
    with pytest.raises(UsageError):
        multi_trivial_verify(digest, (1,))


def test_multi_trivial_karp_rabin_chunks():
    chunk_fam = karp_rabin_family(k=2, n=6)
    plan = ChunkPlan(provers=2, symbols=4)
    digest = multi_trivial_preprocess(chunk_fam, (4, 5), plan, rng_seed=3)
    beta = digest.beta
    assert digest.gammas == (
        hash_eval(chunk_fam, 4, beta),
        hash_eval(chunk_fam, 5, beta),
    )
    assert multi_trivial_verify(digest, digest.gammas).accepted


def test_multi_trivial_plan_must_match_chunk_family():
    chunk_fam = polynomial_family(k=2, n=5, q=5)
    with pytest.raises(UsageError):
        multi_trivial_preprocess(chunk_fam, (1, 2, 3, 4), ChunkPlan(4, 4), rng_seed=0)


def test_multi_linear_fixed_transcript():
    plan = ChunkPlan(provers=2, symbols=2)
    seed = find_seed(FAM, 3)  # challenge 3 evaluates at the point 2
    digest = multi_linear_preprocess(FAM, (1, 2), plan, rng_seed=seed)
    assert digest.gammas == (0,)  # 1 + 2*2 = 5 = 0 mod 5
    # honest chunk answers: 1 (from x1=(1,0)) and 4 (from x2=(0,2))
    assert hash_eval(FAM, plan.zero_extended((1, 2), 1), 3) == 1
    assert hash_eval(FAM, plan.zero_extended((1, 2), 2), 3) == 4
    assert multi_linear_verify(digest, (1, 4)).accepted
    v = multi_linear_verify(digest, (1, 3))
    assert (v.outcome, v.accused) == ("rejected", frozenset())
    v = multi_linear_verify(digest, (None, 4))
    assert (v.outcome, v.erased) == ("rejected", frozenset({1}))


def test_multi_linear_completeness_every_challenge():
    plan = ChunkPlan(provers=2, symbols=2)
    for x in ((0, 0), (1, 2), (4, 3)):
        for seed in range(25):
            digest = multi_linear_preprocess(FAM, x, plan, rng_seed=seed)
            answers = tuple(
                hash_eval(FAM, plan.zero_extended(x, i), digest.beta)
                for i in (1, 2)
            )
            assert multi_linear_verify(digest, answers).accepted


def test_multi_linear_rejects_karp_rabin():
    fam = karp_rabin_family(k=2, n=4)
    with pytest.raises(UnsupportedVariantError):
        multi_linear_preprocess(fam, 4, ChunkPlan(2, 2), rng_seed=0)


def test_multi_rs_fixed_transcript():
    # verifier side state for v=(1,2) with one error and no erasures allowed
    digest = Digest(
        "rs-parity", beta=1, gammas=(3, 4), fingerprint=FP, family=FAM,
        parity_budget=(1, 0),
    )
    assert multi_rs_verify(digest, (1, 2)).accepted
    v = multi_rs_verify(digest, (1, 0))
    assert (v.outcome, v.accused, v.erased) == ("rejected", frozenset({2}), frozenset())
    # more silence than the erasure budget is undecidable, not a rejection
    v = multi_rs_verify(digest, (None, 2))
    assert (v.outcome, v.erased) == ("undecidable", frozenset({1}))


def test_multi_rs_erasure_budget_recovers():
    # s=2, r=0, e=1: parity row of v=(1,2) under the code (2 -> 3) is (3,)
    digest = Digest(
        "rs-parity", beta=1, gammas=(3,), fingerprint=FP, family=FAM,
        parity_budget=(0, 1),
    )
    v = multi_rs_verify(digest, (None, 2))
    assert (v.outcome, v.accused, v.erased) == ("accepted", frozenset(), frozenset({1}))
    assert multi_rs_verify(digest, (1, 2)).accepted
    # a wrong answer with r=0 cannot be attributed: budget is erasure-only
    v = multi_rs_verify(digest, (0, 2))
    assert v.outcome == "undecidable"


def test_multi_rs_preprocess_builds_parities_from_chunk_hashes():
    plan = ChunkPlan(provers=2, symbols=2)
    for seed in range(20):
        digest = multi_rs_preprocess(FAM, (1, 2), plan, r=1, e=0, rng_seed=seed)
        assert digest.parity_budget == (1, 0)
        assert len(digest.gammas) == 2
        answers = tuple(
            hash_eval(FAM, plan.zero_extended((1, 2), i), digest.beta) for i in (1, 2)
        )
        assert multi_rs_verify(digest, answers).accepted
        # single cheater is identified exactly
        wrong = ((answers[0] + 1) % 5, answers[1])
        assert multi_rs_verify(digest, wrong).accused == frozenset({1})


def test_multi_rs_exhaustive_single_cheater_identification():
    plan = ChunkPlan(provers=2, symbols=2)
    seeds_by_beta = {}
    for seed in range(200):
        seeds_by_beta.setdefault(random.Random(seed).randrange(5) + 1, seed)
        if len(seeds_by_beta) == 5:
            break
    assert len(seeds_by_beta) == 5
    for x0 in range(5):
        for x1 in range(5):
            x = (x0, x1)
            for beta, seed in seeds_by_beta.items():
                digest = multi_rs_preprocess(FAM, x, plan, r=1, e=0, rng_seed=seed)
                honest = tuple(
                    hash_eval(FAM, plan.zero_extended(x, i), beta) for i in (1, 2)
                )
                assert multi_rs_verify(digest, honest).accepted
                for cheater in (1, 2):
                    for wrong in range(5):
                        if wrong == honest[cheater - 1]:
                            continue
                        answers = list(honest)
                        answers[cheater - 1] = wrong
                        verdict = multi_rs_verify(digest, tuple(answers))
                        assert verdict.outcome == "rejected"
                        assert verdict.accused == frozenset({cheater})


def test_multi_rs_beyond_budget_is_undecidable_or_wrong_codeword():
    digest = Digest(
        "rs-parity", beta=1, gammas=(3, 4), fingerprint=FP, family=FAM,
        parity_budget=(1, 0),
    )
    # answers two errors away from v=(1,2)'s codeword and not within budget
    # of any other codeword: decoding must fail, verdict undecidable
    z = None
    for a0 in range(5):
        for a1 in range(5):
            word = [a0, a1, 3, 4]
            if not decodable_codewords(2, 4, 5, word):
                z = (a0, a1)
                break
        if z:
            break
    assert z is not None
    assert multi_rs_verify(digest, z).outcome == "undecidable"


def test_multi_rs_parameter_errors():
    plan = ChunkPlan(provers=2, symbols=2)
    with pytest.raises(UsageError):
        multi_rs_preprocess(FAM, (1, 2), plan, r=2, e=0, rng_seed=0)  # 6 > q
    with pytest.raises(UnsupportedVariantError):
        multi_rs_preprocess(karp_rabin_family(2, 4), 3, plan, r=0, e=0, rng_seed=0)
    digest = multi_rs_preprocess(FAM, (1, 2), plan, r=1, e=0, rng_seed=0)
    stripped = digest_from_bytes(digest_to_bytes(digest))
    with pytest.raises(UsageError):
        multi_rs_verify(stripped, (1, 2))  # no family, no budget
    with pytest.raises(UsageError):
        multi_rs_verify(digest, (1, 2), r=0, e=0)  # budget disagrees with parities


def test_multi_rs_trivial_budget_always_accepts():
    plan = ChunkPlan(provers=2, symbols=2)
    digest = multi_rs_preprocess(FAM, (1, 2), plan, r=0, e=0, rng_seed=1)
    assert digest.gammas == ()
    for a0 in range(5):
        for a1 in range(5):
            assert multi_rs_verify(digest, (a0, a1)).accepted


def test_digest_round_trip_and_golden_bytes():
    digest = Digest("single", beta=4, gammas=(2,), fingerprint=FP)
    blob = digest_to_bytes(digest)
    expect = (
        b"SENF"
        + struct.pack("<H", 1)
        + struct.pack("<B", 1)
        + FP
        + struct.pack("<Q", 4)
        + struct.pack("<I", 1)
        + struct.pack("<Q", 2)
    )
    assert blob == expect
    assert len(blob) == 51 + 8
    assert digest_from_bytes(blob) == digest
    rs = Digest("rs-parity", beta=2, gammas=(3, 4), fingerprint=FP)
    assert digest_from_bytes(digest_to_bytes(rs)) == rs


def test_digest_from_bytes_rejects_malformed():
    digest = Digest("single", beta=4, gammas=(2,), fingerprint=FP)
    blob = digest_to_bytes(digest)
    with pytest.raises(UsageError):
        digest_from_bytes(blob[:-1])
    with pytest.raises(UsageError):
        digest_from_bytes(b"XENF" + blob[4:])
    with pytest.raises(UsageError):
        digest_from_bytes(blob[:4] + struct.pack("<H", 9) + blob[6:])
    bad_tag = blob[:6] + struct.pack("<B", 9) + blob[7:]
    with pytest.raises(UsageError):
        digest_from_bytes(bad_tag)


def test_digest_with_family_checks_fingerprint():
    digest = digest_from_bytes(digest_to_bytes(single_preprocess(FAM, (1, 2), 0)))
    assert digest.family is None
    attached = digest.with_family(FAM)
    assert attached.family == FAM
    with pytest.raises(UsageError):
        digest.with_family(karp_rabin_family(k=2, n=4))


def test_digest_with_family_range_checks_challenge_and_values():
    for variant, gammas in (("single", (4,)), ("linear", (0,)), ("rs-parity", (4, 0))):
        assert Digest(variant, 5, gammas, FP).with_family(FAM).family == FAM
        with pytest.raises(UsageError, match="exceeds the family size"):
            Digest(variant, 6, gammas, FP).with_family(FAM)
        with pytest.raises(UsageError, match=r"outside the alphabet \[0, 5\)"):
            Digest(variant, 5, gammas[:-1] + (5,), FP).with_family(FAM)
    # karp-rabin alphabets differ per challenge: 2, 3, 5, 7
    kr = karp_rabin_family(k=2, n=4)
    trivial = Digest("trivial", 1, (1, 0), family_fingerprint(kr))
    assert trivial.with_family(kr).family == kr
    with pytest.raises(UsageError, match=r"\[0, 2\)"):
        Digest("trivial", 1, (1, 2), family_fingerprint(kr)).with_family(kr)
    assert Digest("trivial", 4, (6, 2), family_fingerprint(kr)).with_family(kr)


def test_a_digest_made_with_its_family_range_checks_its_values():
    # not only a digest attached to its family later: a value past the
    # alphabet would have the verifier accuse an honest prover
    fam = polynomial_family(k=2, n=4, q=5)
    fp = family_fingerprint(fam)
    h = hash_eval(fam, (1, 2), 3)
    for variant, gammas in (("single", (h + 5,)), ("trivial", (h, h + 5)),
                            ("linear", (5,)), ("rs-parity", (h, 5))):
        with pytest.raises(UsageError, match=r"outside the alphabet \[0, 5\)"):
            Digest(variant, 3, gammas, fp, family=fam)
    with pytest.raises(UsageError, match="exceeds the family size n=4"):
        Digest("single", 5, (h,), fp, family=fam)
    assert single_verify(Digest("single", 3, (h,), fp, family=fam), h).accepted


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_every_verdict_refuses_an_answer_that_is_not_an_int(variant):
    spec = VARIANTS[variant]
    fam = polynomial_family(k=1, n=5, q=5) if spec.chunk_family else FAM
    plan = spec.chunk_plan(fam, spec.provers or 2)
    digest = preprocess(variant, fam, (1, 2), plan, 0, r=1, e=0)
    honest = [hash_at(digest.beta) for hash_at in answerers(fam, spec.shares(fam, (1, 2), plan))]

    def verdict(answers):
        return spec.decide(spec.check(digest, len(answers)), answers)

    assert verdict(honest).accepted
    for bad in (float(honest[0]), str(honest[0]), complex(honest[0])):
        with pytest.raises(UsageError, match="challenge's alphabet"):
            verdict([bad, *honest[1:]])
    with pytest.raises(UsageError, match="challenge's alphabet"):
        verdict([5, *honest[1:]])


def test_single_and_rs_parity_refuse_a_float_answer():
    digest = single_preprocess(FAM, (1, 2), 0)
    h = hash_eval(FAM, (1, 2), digest.beta)
    with pytest.raises(UsageError, match=rf"answer {float(h)!r} outside"):
        single_verify(digest, float(h))
    plan = ChunkPlan(2, 2)
    digest = multi_rs_preprocess(FAM, (1, 2), plan, 1, 0, 0)
    answers = [hash_eval(FAM, plan.zero_extended((1, 2), i), digest.beta) for i in (1, 2)]
    assert multi_rs_verify(digest, answers).accepted
    with pytest.raises(UsageError, match="outside the challenge's alphabet"):
        multi_rs_verify(digest, [answers[0], float(answers[1])])


def test_digest_payload_bits_formulas():
    assert digest_payload_bits(single_preprocess(FAM, (1, 2), 0)) == 3 + 3
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan2 = ChunkPlan(2, 2)
    trivial = multi_trivial_preprocess(chunk_fam, (1, 2), plan2, 0)
    assert digest_payload_bits(trivial) == 3 + 2 * 3
    linear = multi_linear_preprocess(FAM, (1, 2), plan2, 0)
    assert digest_payload_bits(linear) == 3 + 3
    rs = multi_rs_preprocess(FAM, (1, 2), plan2, r=1, e=0, rng_seed=0)
    assert digest_payload_bits(rs) == 3 + 2 * 3
    kr = single_preprocess(karp_rabin_family(k=2, n=4), 4, 0)
    assert digest_payload_bits(kr) == 2 + 3
    with pytest.raises(UsageError):
        digest_payload_bits(digest_from_bytes(digest_to_bytes(rs)))


def test_storage_bound_slack_single_fixed_value():
    report = storage_bound_slack("single", FAM, list_size=50)
    assert abs(report.bits - 19.3623) < 1e-3
    assert report.list_size == 50
    assert "c0" in str(report)
    # the Johnson bound 2*q*n is the default list size
    assert storage_bound_slack("single", FAM).list_size == 50
    assert storage_bound_slack("single", FAM).bits == report.bits


def test_storage_bound_slack_formulas_cross_checked():
    q, n, L, s = 5, 5, 50, 2
    ll = 2 * math.log2(math.log2(q * n))
    got = storage_bound_slack("trivial", FAM, s=2)
    assert abs(got.bits - (s + math.log2(s**2 * q * L**s * n**4) + ll)) < 1e-9
    got = storage_bound_slack("linear", FAM, s=2)
    assert abs(got.bits - (s + math.log2(s**2 * q * L * n**4) + ll)) < 1e-9
    assert storage_bound_slack("rs-parity", FAM, s=2).bits == got.bits
    with pytest.raises(UsageError):
        storage_bound_slack("trivial", FAM)  # s required
    with pytest.raises(UsageError):
        storage_bound_slack("sideways", FAM)


def test_retrievability_extract_contains_message():
    x = (1, 2)
    cw = list(encode(FAM, x))
    digest = single_preprocess(FAM, x, 5)
    radius = johnson_radius(5, 4)
    assert radius == 2
    corrupted = cw[:]
    corrupted[0] = (corrupted[0] + 1) % 5
    corrupted[2] = (corrupted[2] + 3) % 5
    survivors = retrievability_extract(FAM, corrupted, digest)
    assert x in survivors
    for u in survivors:
        assert hash_eval(FAM, u, digest.beta) == digest.gammas[0]
        assert sum(1 for a, b in zip(encode(FAM, u), corrupted) if a != b) <= radius


def test_retrievability_extract_rejects_other_variants():
    plan = ChunkPlan(2, 2)
    digest = multi_linear_preprocess(FAM, (1, 2), plan, 0)
    with pytest.raises(UnsupportedVariantError):
        retrievability_extract(FAM, [0] * 5, digest)


def test_rng_algorithm_is_pinned():
    assert RNG_ALGORITHM == "mt19937-randrange-v1"


@pytest.mark.parametrize("variant", ["single", "trivial", "linear", "rs-parity"])
def test_a_checked_message_gives_the_digests_of_its_plain_tuple(variant):
    fam = polynomial_family(k=6, n=13, q=13)
    plan = None if variant == "single" else ChunkPlan(3, 6)
    if variant == "trivial":
        fam, plan = polynomial_family(k=2, n=13, q=13), ChunkPlan(3, 6)
    rng = random.Random(variant)
    for seed in range(12):
        checked = CheckedSymbols([rng.randrange(13) for _ in range(6)], 13)
        plain = tuple(checked)
        assert type(plain) is tuple
        digests = [digest_to_bytes(preprocess(variant, fam, x, plan, seed, r=1, e=1))
                   for x in (checked, plain)]
        assert digests[0] == digests[1]
        reports = [run_experiment(fam, x, Honest(), 5, seed, variant, plan, r=1, e=1)
                   for x in (checked, plain)]
        assert reports[0] == reports[1]
