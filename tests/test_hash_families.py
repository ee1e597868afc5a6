import copy
import hashlib
import math
import pickle
import random
import re
import struct
from fractions import Fraction

import pytest

import storen.hash_families as hash_families
from storen.errors import CapacityError, UsageError
from storen.hash_families import (
    KIND_KARP_RABIN,
    KIND_POLYNOMIAL,
    CheckedSymbols,
    chunk_hasher,
    derive_family,
    descriptor_from_bytes,
    descriptor_to_bytes,
    enumerate_messages,
    family_fingerprint,
    hash_all,
    hash_eval,
    hash_eval_stream,
    karp_rabin_family,
    collision_probability_exact,
    polynomial_family,
    unchecked_hasher,
    validate_message,
)
from storen.protocol import ChunkPlan

from _oracles import bignat_digits_msf, crt_reconstruct, naive_poly_eval


def test_derive_polynomial_fixed_point():
    fam = derive_family(KIND_POLYNOMIAL, k=2, epsilon=0.8)
    assert (fam.n, fam.q) == (4, 5)
    assert fam.epsilon_actual == Fraction(1, 4)


def test_derive_karp_rabin_fixed_point():
    fam = derive_family(KIND_KARP_RABIN, k=2, epsilon=0.75)
    assert fam.n == 4
    assert fam.primes == (2, 3, 5, 7)
    assert fam.message_primes == (2, 3)
    assert fam.epsilon_actual == Fraction(1, 4)


def test_derive_block_length_meets_agreement_target():
    for kind in (KIND_POLYNOMIAL, KIND_KARP_RABIN):
        for k, eps in ((2, 0.8), (8, 0.5), (64, 0.25), (3, 1.0)):
            fam = derive_family(kind, k=k, epsilon=eps)
            # n = ceil(k / eps^2), so the agreement fraction is at most eps^2
            assert fam.n >= k / eps**2
            assert fam.epsilon_actual < Fraction(eps) ** 2
            assert fam.epsilon_actual == Fraction(k - 1, fam.n)


def test_derive_large_fixed_point():
    fam = derive_family(KIND_POLYNOMIAL, k=64, epsilon=0.25)
    assert (fam.n, fam.q) == (1024, 1031)


def test_derive_validates_epsilon():
    for bad in (0, -0.5, 1.5):
        with pytest.raises(UsageError):
            derive_family(KIND_POLYNOMIAL, k=2, epsilon=bad)


@pytest.mark.parametrize("bad", ["1/0", "abc", float("nan"), float("inf")])
def test_derive_names_an_epsilon_that_is_not_a_number(bad):
    with pytest.raises(UsageError, match=re.escape(f"epsilon {bad!r} is not a number")):
        derive_family(KIND_POLYNOMIAL, k=2, epsilon=bad)


def test_polynomial_family_validates():
    polynomial_family(k=2, n=5, q=5)
    with pytest.raises(UsageError):
        polynomial_family(k=2, n=6, q=5)  # n > q
    with pytest.raises(UsageError):
        polynomial_family(k=6, n=5, q=5)  # k > n
    with pytest.raises(UsageError):
        polynomial_family(k=2, n=4, q=4)  # q composite


def test_hash_eval_polynomial_fixed_value():
    fam = polynomial_family(k=2, n=5, q=5)
    # message (1, 2) is 1 + 2Y; challenge 4 evaluates at point 3: 7 = 2 mod 5
    assert hash_eval(fam, (1, 2), 4) == 2
    assert hash_all(fam, (1, 2)) == (1, 3, 0, 2, 4)


def test_hash_eval_karp_rabin_fixed_value():
    fam = karp_rabin_family(k=2, n=4)
    # x = 4 against primes (2, 3, 5, 7)
    assert hash_eval(fam, 4, 3) == 4
    assert hash_all(fam, 4) == (0, 1, 4, 4)


def test_hash_eval_matches_naive_powering():
    rng = random.Random(7)
    fam = polynomial_family(k=6, n=11, q=11)
    for _ in range(100):
        x = tuple(rng.randrange(11) for _ in range(6))
        i = rng.randrange(1, 12)
        assert hash_eval(fam, x, i) == naive_poly_eval(x, i - 1, 11)


def test_hash_eval_validates_inputs():
    fam = polynomial_family(k=2, n=5, q=5)
    with pytest.raises(UsageError):
        hash_eval(fam, (1, 2), 0)
    with pytest.raises(UsageError):
        hash_eval(fam, (1, 2), 6)
    with pytest.raises(UsageError):
        hash_eval(fam, (1, 2, 3), 1)  # wrong length
    with pytest.raises(UsageError):
        hash_eval(fam, (1, 5), 1)  # symbol out of range
    kr = karp_rabin_family(k=2, n=4)
    with pytest.raises(UsageError):
        hash_eval(kr, 6, 1)  # message space is [0, 2*3)
    with pytest.raises(UsageError):
        hash_eval(kr, -1, 1)


def test_karp_rabin_residues_reconstruct_message():
    fam = karp_rabin_family(k=3, n=8)
    rng = random.Random(11)
    for _ in range(50):
        x = rng.randrange(fam.message_space)
        residues = [hash_eval(fam, x, i) for i in range(1, 4)]
        assert crt_reconstruct(residues, fam.message_primes) == x


def test_polynomial_family_is_linear():
    fam = polynomial_family(k=4, n=7, q=7)
    rng = random.Random(3)
    for _ in range(50):
        x = tuple(rng.randrange(7) for _ in range(4))
        y = tuple(rng.randrange(7) for _ in range(4))
        xy = tuple((a + b) % 7 for a, b in zip(x, y))
        for i in range(1, 8):
            assert hash_eval(fam, xy, i) == (hash_eval(fam, x, i) + hash_eval(fam, y, i)) % 7


def test_stream_equals_batch_exhaustive_tiny():
    fam = polynomial_family(k=2, n=5, q=5)
    for x in enumerate_messages(fam):
        for i in range(1, 6):
            assert hash_eval_stream(fam, iter(x), i) == hash_eval(fam, x, i)
    kr = karp_rabin_family(k=2, n=4)
    for x in enumerate_messages(kr):
        for i in range(1, 5):
            assert hash_eval_stream(kr, iter(bignat_digits_msf(x)), i) == hash_eval(kr, x, i)


def test_stream_equals_batch_random():
    rng = random.Random(20260815)
    fam = derive_family(KIND_POLYNOMIAL, k=16, epsilon=0.5)
    for _ in range(200):
        x = tuple(rng.randrange(fam.q) for _ in range(16))
        i = rng.randrange(1, fam.n + 1)
        assert hash_eval_stream(fam, iter(x), i) == hash_eval(fam, x, i)
    kr = derive_family(KIND_KARP_RABIN, k=16, epsilon=0.5)
    for _ in range(200):
        x = rng.randrange(kr.message_space)
        i = rng.randrange(1, kr.n + 1)
        assert hash_eval_stream(kr, iter(bignat_digits_msf(x)), i) == hash_eval(kr, x, i)


def test_stream_length_mismatch_rejected():
    fam = polynomial_family(k=3, n=5, q=5)
    with pytest.raises(UsageError):
        hash_eval_stream(fam, iter((1, 2)), 1)  # too short
    with pytest.raises(UsageError):
        hash_eval_stream(fam, iter((1, 2, 3, 4)), 1)  # too long
    kr = karp_rabin_family(k=2, n=4)
    with pytest.raises(UsageError):
        hash_eval_stream(kr, iter([1, 2, 3]), 1)  # more digits than any message


def test_collision_probability_polynomial_fixed_value():
    fam = polynomial_family(k=2, n=5, q=5)
    got = collision_probability_exact(fam)
    assert got == Fraction(1, 5)
    assert got <= fam.epsilon_actual


def test_collision_probability_karp_rabin_fixed_value():
    fam = karp_rabin_family(k=2, n=4)
    got = collision_probability_exact(fam)
    assert got == Fraction(1, 4)
    assert got <= fam.epsilon_actual


def test_collision_probability_capacity_guard():
    with pytest.raises(CapacityError):
        collision_probability_exact(polynomial_family(k=8, n=101, q=101))


def test_enumerate_messages_order():
    fam = polynomial_family(k=2, n=3, q=3)
    assert list(enumerate_messages(fam))[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    kr = karp_rabin_family(k=2, n=4)
    assert list(enumerate_messages(kr)) == [0, 1, 2, 3, 4, 5]


def test_descriptor_round_trip_and_golden_bytes():
    fam = polynomial_family(k=2, n=5, q=5)
    blob = descriptor_to_bytes(fam)
    assert blob == struct.pack("<BQQQ", 1, 2, 5, 5)
    assert descriptor_from_bytes(blob) == fam
    assert family_fingerprint(fam) == hashlib.sha256(blob).digest()

    kr = karp_rabin_family(k=2, n=4)
    blob = descriptor_to_bytes(kr)
    assert blob == struct.pack("<BQQQ", 2, 2, 4, 4)
    assert descriptor_from_bytes(blob) == kr


def test_descriptor_fingerprints_frozen():
    # Frozen so that digests and wire handshakes stay stable across releases.
    assert (
        family_fingerprint(polynomial_family(k=2, n=5, q=5)).hex()
        == "2d5c00e12637371190602aed8676be86951a62a9252c0a2a6fc3d144ccfc78d0"
    )
    assert (
        family_fingerprint(karp_rabin_family(k=2, n=4)).hex()
        == "20879223fbae3ece43225425c4cd984ba0eb0606c47533b7ce7289f91948d55f"
    )


def test_descriptor_from_bytes_rejects_malformed():
    good = descriptor_to_bytes(polynomial_family(k=2, n=5, q=5))
    with pytest.raises(UsageError):
        descriptor_from_bytes(good[:-1])
    with pytest.raises(UsageError):
        descriptor_from_bytes(b"\x07" + good[1:])
    # karp-rabin blob whose prime count disagrees with n
    with pytest.raises(UsageError):
        descriptor_from_bytes(struct.pack("<BQQQ", 2, 2, 4, 5))


def test_symbol_and_challenge_bit_widths():
    fam = polynomial_family(k=2, n=5, q=5)
    assert fam.symbol_bits == 3  # ceil(log2 5)
    assert fam.challenge_bits == 3  # ceil(log2 5)
    big = derive_family(KIND_POLYNOMIAL, k=64, epsilon=0.25)
    assert big.symbol_bits == 11  # ceil(log2 1031)
    assert big.challenge_bits == 10  # ceil(log2 1024)
    kr = karp_rabin_family(k=2, n=4)
    assert kr.symbol_bits == 3  # widest alphabet is p_4 = 7


def test_chunk_hasher_equals_hash_of_zero_extended_chunk():
    fam = polynomial_family(k=6, n=11, q=11)
    x = (3, 0, 7, 10, 1, 5)
    plan = ChunkPlan(3, 6)
    whole = chunk_hasher(fam, x)
    for i in range(1, 4):
        start, stop = plan.bounds(i)
        alone = chunk_hasher(fam, x[start:stop], start)
        trusted = unchecked_hasher(fam, x[start:stop], start)
        extended = plan.zero_extended(x, i)
        for beta in range(1, fam.n + 1):  # beta = 1 is the point 0
            expected = hash_eval(fam, extended, beta)
            assert alone(beta) == trusted(beta) == expected
    assert [whole(b) for b in range(1, 12)] == list(hash_all(fam, x))

    kr = karp_rabin_family(k=3, n=6)
    for value in (0, 17, kr.message_space - 1):
        hash_at = chunk_hasher(kr, value)
        assert [hash_at(b) for b in range(1, 7)] == list(hash_all(kr, value))


def test_chunk_hasher_validates_once_up_front():
    fam = polynomial_family(k=4, n=5, q=5)
    with pytest.raises(UsageError):
        chunk_hasher(fam, (1, 2, 3))  # a whole message needs k symbols
    with pytest.raises(UsageError):
        chunk_hasher(fam, (1, 5), 0)  # symbol outside the field
    with pytest.raises(UsageError):
        chunk_hasher(fam, (1, 2), 3)  # runs past symbol k
    with pytest.raises(UsageError):
        chunk_hasher(fam, (1,), -1)
    with pytest.raises(UsageError):
        chunk_hasher(karp_rabin_family(k=2, n=4), 4, 0)


def test_message_space_is_computed_once_per_descriptor():
    kr = karp_rabin_family(k=3, n=6)
    assert "message_space" not in vars(kr)
    validate_message(kr, 5)
    assert vars(kr)["message_space"] == 2 * 3 * 5 == kr.message_space
    # the cached bound is not part of the descriptor's identity
    fresh = karp_rabin_family(k=3, n=6)
    assert kr == fresh and hash(kr) == hash(fresh)
    assert descriptor_to_bytes(kr) == descriptor_to_bytes(fresh)


def test_karp_rabin_message_space_is_the_product_of_the_message_primes():
    for k in [*range(1, 301), 5000]:
        fam = karp_rabin_family(k=k, n=k)
        assert fam.message_space == math.prod(fam.message_primes)


def test_fingerprint_is_computed_once_per_descriptor():
    for fam, fresh in (
        (polynomial_family(k=2, n=5, q=5), polynomial_family(k=2, n=5, q=5)),
        (karp_rabin_family(k=2, n=4), karp_rabin_family(k=2, n=4)),
    ):
        assert "fingerprint" not in vars(fam)
        blob = descriptor_to_bytes(fam)
        assert family_fingerprint(fam) == hashlib.sha256(blob).digest()
        assert vars(fam)["fingerprint"] is family_fingerprint(fam)
        # the cached digest is not part of the descriptor's identity
        assert fam == fresh and hash(fam) == hash(fresh)
        assert descriptor_to_bytes(fam) == blob == descriptor_to_bytes(fresh)
        assert "fingerprint" not in vars(fresh)


def test_symbol_check_accepts_and_rejects_the_same_inputs():
    fam = polynomial_family(k=3, n=5, q=5)

    def check(x):
        whole = validate_message(fam, x)
        chunk_hasher(fam, x, 0)  # the chunk path runs the same check
        return whole

    assert check((0, 4, 2)) == (0, 4, 2)
    assert check([0, 4, 2]) == (0, 4, 2)
    assert check(iter([0, 4, 2])) == (0, 4, 2)  # a one-shot iterator
    assert check(bytes([0, 4, 2])) == (0, 4, 2)
    assert check((True, False, 4)) == (1, 0, 4)
    for bad, named in (
        ((0, -1, 2), "-1"),
        ((0, 5, 2), "5"),
        ((0, 2**70, 2), str(2**70)),
        ((0, 1.0, 2), "1.0"),
        ((0, "1", 2), "'1'"),
        ((0, None, 2), "None"),
    ):
        with pytest.raises(UsageError, match=re.escape(named)):
            validate_message(fam, bad)
        with pytest.raises(UsageError, match=re.escape(named)):
            chunk_hasher(fam, bad, 0)
    with pytest.raises(UsageError):
        validate_message(fam, 7)  # a number is not a symbol sequence
    with pytest.raises(UsageError):
        validate_message(fam, (0, 1))  # wrong length


# --- checked symbols ---------------------------------------------------------


def test_a_checked_message_is_passed_on_without_a_scan(scans):
    fam = polynomial_family(k=3, n=5, q=5)
    x = validate_message(fam, [0, 4, 2])
    assert type(x) is CheckedSymbols and x.bound == 5 and scans[0] == 1
    larger = polynomial_family(k=3, n=7, q=7)
    for same in (validate_message(fam, x), validate_message(larger, x),
                 hash_families.check_symbols(fam, x)):
        assert same is x
    chunk_hasher(fam, x)
    chunk_hasher(larger, x[:2], 0)  # a slice is a plain tuple: checked again
    assert scans[0] == 2


def test_a_checked_message_is_checked_again_against_a_smaller_field(scans):
    x = validate_message(polynomial_family(k=3, n=7, q=7), (0, 6, 2))
    small = polynomial_family(k=3, n=5, q=5)
    with pytest.raises(UsageError, match=re.escape("symbol 2 is 6, outside the field [0, 5)")):
        validate_message(small, x)
    with pytest.raises(UsageError, match="symbol 2 is 6"):
        chunk_hasher(small, x, 0)
    assert scans[0] == 3
    fits = validate_message(small, validate_message(polynomial_family(k=3, n=7, q=7), (0, 4, 2)))
    assert fits.bound == 5


def test_unchecked_sequences_are_checked_in_full_on_every_call(scans):
    fam = polynomial_family(k=3, n=5, q=5)
    inputs = (lambda: [0, 4, 2], lambda: iter([0, 4, 2]), lambda: bytes([0, 4, 2]),
              lambda: (0, 4, 2))
    for make in inputs:
        before = scans[0]
        for _ in range(2):
            assert validate_message(fam, make()) == (0, 4, 2)
            chunk_hasher(fam, make(), 0)
        assert scans[0] == before + 4


def test_checked_symbols_are_a_read_only_tuple():
    x = CheckedSymbols([3, 0, 1], 5)
    assert x == (3, 0, 1) and hash(x) == hash((3, 0, 1)) and x[1:] == (0, 1)
    with pytest.raises(AttributeError):
        x.bound = 7
    with pytest.raises(AttributeError):
        del x.bound
    assert x.bound == 5
    with pytest.raises(UsageError, match="symbol 1 is 5"):
        CheckedSymbols([5], 5)  # the constructor is the check


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))])
def test_checked_symbols_survive_copy_and_pickle(clone):
    x = CheckedSymbols([3, 0, 1], 5)
    y = clone(x)
    assert type(y) is CheckedSymbols and y == x and y.bound == 5
