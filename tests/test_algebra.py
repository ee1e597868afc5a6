import math
import operator
import random
import types

import pytest

import storen.algebra
from storen.algebra import (
    DIGIT_BASE,
    first_n_primes,
    is_prime,
    next_prime_at_least,
    poly_evaluator,
    tree_reduce,
)
from storen.errors import CapacityError, UsageError
from storen.hash_families import (
    KIND_KARP_RABIN,
    CheckedSymbols,
    derive_family,
    hash_eval_stream,
)

from _oracles import bignat_digits_msf, digits_mod, first_primes, naive_poly_eval, sieve_upto


def test_is_prime_matches_sieve_below_10000():
    flags = set(sieve_upto(10000))
    for n in range(10000):
        assert is_prime(n) == (n in flags)


def test_is_prime_known_hard_composites():
    # Carmichael number and a strong pseudoprime to several small bases.
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..23


def test_is_prime_large_primes():
    assert is_prime(2**61 - 1)
    assert is_prime(1031)
    assert is_prime(2**62 - 57)


def test_is_prime_rejects_out_of_certified_range():
    with pytest.raises(UsageError):
        is_prime(2**64 + 13)


def test_next_prime_at_least():
    assert next_prime_at_least(4) == 5
    assert next_prime_at_least(5) == 5
    assert next_prime_at_least(1024) == 1031
    assert next_prime_at_least(1) == 2


def poly_eval(coeffs, point, p):
    return poly_evaluator([coeffs], p)(point)[0]


def test_horner_fixed_value():
    # 1 + 2*Y at Y=3 over F_5 is 7 = 2.
    assert poly_eval([1, 2], 3, 5) == 2
    assert poly_evaluator([[1, 2], [4], []], 5)(3) == [2, 4, 0]


def test_horner_matches_naive_random():
    rng = random.Random(20260817)
    p = 1031
    for _ in range(200):
        k = rng.randrange(1, 12)
        coeffs = [rng.randrange(p) for _ in range(k)]
        point = rng.randrange(p)
        assert poly_eval(coeffs, point, p) == naive_poly_eval(coeffs, point, p)


def test_horner_empty_polynomial_is_zero():
    assert poly_eval([], 3, 5) == 0
    assert poly_evaluator([], 5)(3) == []
    assert poly_evaluator([[], ()], 5)(3) == [0, 0]


@pytest.mark.parametrize("p", [2, 3, 5, 1031, 8209, 2**61 - 1])
def test_horner_matches_naive_over_every_remainder_mod_4(p):
    # lengths 0-39 cover every length up to ten rows; 2**61 - 1 makes
    # every lane two 64-bit words
    rng = random.Random(p)
    for size in range(40):
        coeffs = [rng.randrange(p) for _ in range(size)]
        for point in {0, 1, p - 1, rng.randrange(p), rng.randrange(p)}:
            expected = naive_poly_eval(coeffs, point, p)
            checked = CheckedSymbols(coeffs, p)
            for form in (coeffs, tuple(coeffs), checked, checked.words):
                assert poly_eval(form, point, p) == expected, (size, point, type(form))


# small primes, and the largest primes below 2**32 and 2**64, whose lanes
# take one to three 64-bit words
_WIDE_PRIMES = [2, 3, 4099, 4294967291, 18446744073709551557]


@pytest.mark.parametrize("p", _WIDE_PRIMES)
def test_evaluator_matches_naive_for_shares_of_unequal_length(p):
    # every length up to 40, then one either side of m*L, where the kernel
    # packs L rows of m coefficients, m = round(sqrt(d/s)) for the longest
    # length d of s shares: 100 and 256 for one share (m = 10 and 16), 300
    # for three (m = 10)
    rng = random.Random(p)
    shapes = [shape for d in range(41) for shape in ([d], [d, d // 2, 1], [0, d, d])]
    shapes += [[d + delta] for d in (100, 256) for delta in (-1, 0, 1)]
    shapes += [[d + delta, d - 1, d - 2] for d in (300,) for delta in (-1, 0, 1)]
    for shape in shapes:
        polys = [[rng.randrange(p) for _ in range(size)] for size in shape]
        evaluate = poly_evaluator(polys, p)
        # the same shares as 64-bit words, cut from one checked message
        whole = CheckedSymbols([c for poly in polys for c in poly], p)
        starts = [sum(shape[:j]) for j in range(len(shape) + 1)]
        words = poly_evaluator([whole.part(a, b).words for a, b in zip(starts, starts[1:])], p)
        for point in {0, 1, p - 1, rng.randrange(p)}:
            expected = [naive_poly_eval(c, point, p) for c in polys]
            assert evaluate(point) == words(point) == expected, (shape, point)


def test_evaluator_lanes_hold_coefficients_at_their_largest():
    # coefficients of p - 1 everywhere make every lane as full as the point
    # allows; a lane that carried into the next would change a value
    for p in _WIDE_PRIMES:
        for d in (1, 2, 5, 64, 65):
            polys = [[p - 1] * d, [p - 1] * (d + 1)]
            evaluate = poly_evaluator(polys, p)
            for point in {p - 1, p // 2, max(p - 2, 0)}:
                assert evaluate(point) == [naive_poly_eval(c, point, p) for c in polys]


def test_first_n_primes_against_sieve():
    assert first_n_primes(4) == (2, 3, 5, 7)
    assert first_n_primes(1) == (2,)
    assert list(first_n_primes(1000)) == first_primes(1000)
    assert first_n_primes(1000)[-1] == 7919


def test_first_n_primes_small_counts_and_the_doubling_retry(monkeypatch):
    for count in range(1, 8):
        assert list(first_n_primes(count)) == first_primes(count)
    # halved logarithms start the sieve below p_n, so it must double its limit
    halved = types.SimpleNamespace(log=lambda v: math.log(v) / 2, isqrt=math.isqrt)
    monkeypatch.setattr(storen.algebra, "math", halved)
    for count in (6, 7, 1000):
        first_limit = int(count * (halved.log(count) + halved.log(halved.log(count)))) + 1
        assert first_limit < first_primes(count)[-1]
        assert list(first_n_primes(count)) == first_primes(count)


def test_tree_reduce_folds_in_order():
    assert tree_reduce(operator.add, ["a", "b", "c", "d", "e"]) == "abcde"
    assert tree_reduce(operator.add, "abc", str.upper) == "ABC"
    assert tree_reduce(operator.mul, [7]) == 7
    values = list(range(1, 40))
    assert tree_reduce(operator.mul, values) == math.prod(values)


def test_first_n_primes_growth_bound():
    # p_n stays below 2 n ln n for every n >= 3 in the ranges we use.
    import math

    for n in (3, 10, 100, 1000, 10000):
        assert first_n_primes(n)[-1] <= 2 * n * math.log(n)


def test_first_n_primes_validates():
    with pytest.raises(UsageError):
        first_n_primes(0)
    with pytest.raises(CapacityError):
        first_n_primes(10**9)


# A big natural streamed as base-2**32 digits, most significant first, is
# reduced by the karp-rabin branch of hash_eval_stream; h_i reduces mod the
# i-th prime, so h_3 is the residue mod 5.  k = 512 admits 5 191-bit messages.
_KR = derive_family(KIND_KARP_RABIN, k=512, epsilon=0.5)


def test_bignat_digits_msf_round_trip():
    assert bignat_digits_msf(0) == ()
    assert bignat_digits_msf(2**64) == (1, 0, 0)
    x = 123456789012345678901234567890
    digits = bignat_digits_msf(x)
    assert all(0 <= d < DIGIT_BASE for d in digits) and digits[0] != 0
    assert sum(d << (32 * j) for j, d in enumerate(reversed(digits))) == x


def test_bignat_mod_stream_fixed_value():
    # 2**64 has digit stream (1, 0, 0); 2**64 mod 5 = 1.
    assert _KR.primes[2] == 5
    assert hash_eval_stream(_KR, (1, 0, 0), 3) == 1
    assert hash_eval_stream(_KR, (), 3) == 0


def test_bignat_mod_stream_matches_int_mod():
    rng = random.Random(0xC0FFEE)
    for _ in range(50):
        x = rng.getrandbits(4096)
        i = rng.randrange(1, _KR.n + 1)
        p = _KR.primes[i - 1]
        digits = bignat_digits_msf(x)
        assert hash_eval_stream(_KR, digits, i) == x % p
        assert digits_mod(digits, p) == x % p


def test_bignat_mod_stream_consumes_a_one_shot_iterator():
    digits = iter(bignat_digits_msf(2**64))
    assert hash_eval_stream(_KR, digits, 3) == 1


def test_bignat_mod_stream_rejects_bad_digit():
    for bad in (DIGIT_BASE, -1, 1.0):
        with pytest.raises(UsageError):
            hash_eval_stream(_KR, [bad], 3)
        with pytest.raises(UsageError):
            hash_eval_stream(_KR, iter((1, bad)), 3)
