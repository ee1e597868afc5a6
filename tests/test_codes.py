import random
from itertools import combinations, product

import pytest

import storen.codes
from storen.algebra import is_prime
from storen.codes import (
    SystematicRSCode,
    brute_force_list_decode,
    encode,
    hamming_distance,
    johnson_list_size_bound,
    johnson_radius,
    min_distance_exhaustive,
    rs_decode_errors_erasures,
    rs_encode_systematic,
    rs_locate_errors,
)
from storen.errors import CapacityError, UsageError
from storen.hash_families import (
    karp_rabin_family,
    polynomial_family,
)

from _oracles import decodable_codewords, gao_decode, lagrange_eval, rs_codeword


def test_encode_fixed_values():
    assert encode(polynomial_family(k=2, n=5, q=5), (1, 2)) == (1, 3, 0, 2, 4)
    assert encode(karp_rabin_family(k=2, n=4), 4) == (0, 1, 4, 4)


def test_min_distance_fixed_values():
    assert min_distance_exhaustive(polynomial_family(k=2, n=5, q=5)) == 4
    assert min_distance_exhaustive(polynomial_family(k=3, n=7, q=7)) == 5
    assert min_distance_exhaustive(karp_rabin_family(k=2, n=4)) == 3


def test_min_distance_capacity_guard():
    with pytest.raises(CapacityError):
        min_distance_exhaustive(polynomial_family(k=5, n=31, q=31))


def test_johnson_radius_fixed_values():
    assert johnson_radius(5, 4) == 2
    assert johnson_radius(5, 0) == 0
    assert johnson_radius(4, 4) == 4
    assert johnson_radius(7, 5) == 3


def test_johnson_radius_exact_characterization():
    # r is the largest integer with (n-r)^2 >= n(n-d)
    for n in range(1, 60):
        for d in range(0, n + 1):
            r = johnson_radius(n, d)
            assert 0 <= r <= n
            assert (n - r) ** 2 >= n * (n - d)
            if r < n:
                assert (n - r - 1) ** 2 < n * (n - d)


def test_johnson_radius_validates():
    with pytest.raises(UsageError):
        johnson_radius(5, 6)
    with pytest.raises(UsageError):
        johnson_radius(0, 0)


def test_johnson_list_size_bound():
    assert johnson_list_size_bound(polynomial_family(k=2, n=5, q=5)) == 50
    assert johnson_list_size_bound(karp_rabin_family(k=2, n=4)) == 2 * (2 + 3 + 5 + 7)


def test_hamming_distance_counts_erasures_as_mismatch():
    assert hamming_distance((1, 2, 3), (1, 2, 3)) == 0
    assert hamming_distance((1, 2, 3), (1, None, 3)) == 1
    assert hamming_distance((1, 2), (2, 1)) == 2


def test_rs_encode_fixed_value():
    code = SystematicRSCode(message_len=2, block_len=4, q=5)
    assert rs_encode_systematic(code, (1, 2)) == (1, 2, 3, 4)


def test_rs_encode_systematic_prefix_random():
    rng = random.Random(99)
    code = SystematicRSCode(message_len=3, block_len=7, q=11)
    for _ in range(50):
        v = tuple(rng.randrange(11) for _ in range(3))
        cw = rs_encode_systematic(code, v)
        assert cw[:3] == v
        assert cw == rs_codeword(v, 7, 11)


# Shapes of the benchmark workloads: s = 8 provers with r = e = 1, and s = 4.
WORKLOAD_SHAPES = [(8, 11, 8209), (4, 7, 8209)]


def test_rs_encode_matches_lagrange_oracle():
    rng = random.Random(5)
    for m, ell, q in [(4, 9, 13)] + WORKLOAD_SHAPES + [(1, 5, 5), (3, 3, 5)]:
        code = SystematicRSCode(message_len=m, block_len=ell, q=q)
        for _ in range(30):
            v = [rng.randrange(q) for _ in range(m)]
            cw = rs_encode_systematic(code, v)
            assert cw == rs_codeword(v, ell, q)
            for a in range(ell):
                assert cw[a] == lagrange_eval(list(range(m)), v, a, q)


def test_rs_code_validates():
    with pytest.raises(UsageError):
        SystematicRSCode(message_len=3, block_len=2, q=5)
    with pytest.raises(UsageError):
        SystematicRSCode(message_len=2, block_len=6, q=5)  # block exceeds field
    with pytest.raises(UsageError):
        SystematicRSCode(message_len=2, block_len=4, q=4)


def test_rs_decode_fixed_single_error():
    code = SystematicRSCode(message_len=2, block_len=4, q=5)
    # codeword of (1,2) is (1,2,3,4); corrupt position 4
    assert rs_decode_errors_erasures(code, (1, 2, 3, 0)) == ((1, 2), frozenset({4}))


def test_rs_decode_fixed_erasure_only():
    code = SystematicRSCode(message_len=2, block_len=4, q=5)
    assert rs_decode_errors_erasures(code, (1, None, 3, None)) == ((1, 2), frozenset())


def test_rs_decode_clean_word():
    code = SystematicRSCode(message_len=2, block_len=4, q=5)
    assert rs_decode_errors_erasures(code, (1, 2, 3, 4)) == ((1, 2), frozenset())


def test_rs_decode_no_redundancy_reads_off():
    code = SystematicRSCode(message_len=3, block_len=3, q=5)
    assert rs_decode_errors_erasures(code, (4, 0, 2)) == ((4, 0, 2), frozenset())


def test_rs_decode_too_many_erasures_fails():
    code = SystematicRSCode(message_len=2, block_len=4, q=5)
    assert rs_decode_errors_erasures(code, (None, None, None, 4)) is None


def test_rs_decode_exhaustive_small():
    """Every corruption within budget decodes back exactly; the reported
    error set is exactly the corrupted, non-erased positions."""
    q, m, ell = 5, 2, 4
    code = SystematicRSCode(message_len=m, block_len=ell, q=q)
    budget = ell - m
    for v in product(range(q), repeat=m):
        cw = rs_encode_systematic(code, v)
        for n_err in range(budget // 2 + 1):
            for err_pos in combinations(range(ell), n_err):
                for erase_count in range(budget - 2 * n_err + 1):
                    rest = [i for i in range(ell) if i not in err_pos]
                    for erase_pos in combinations(rest, erase_count):
                        z = list(cw)
                        for i in err_pos:
                            z[i] = (z[i] + 1 + (i % (q - 1))) % q
                        for i in erase_pos:
                            z[i] = None
                        got = rs_decode_errors_erasures(code, z)
                        expect_errs = frozenset(i + 1 for i in err_pos)
                        assert got == (tuple(v), expect_errs)


def test_rs_decode_agrees_with_exhaustive_oracle_on_arbitrary_words():
    """On arbitrary received words: decode finds the within-budget codeword
    when one exists and fails exactly when none does."""
    q, m, ell = 5, 2, 5
    code = SystematicRSCode(message_len=m, block_len=ell, q=q)
    rng = random.Random(42)
    for _ in range(300):
        z = [rng.randrange(q) for _ in range(ell)]
        for i in rng.sample(range(ell), rng.randrange(3)):
            z[i] = None
        reachable = decodable_codewords(m, ell, q, z)
        got = rs_decode_errors_erasures(code, z)
        if reachable:
            assert len(reachable) == 1
            assert got == reachable[0]
        else:
            assert got is None


def test_rs_decode_random_large_field():
    rng = random.Random(20260816)
    for m, ell, q in [(5, 12, 1031)] + WORKLOAD_SHAPES:
        code = SystematicRSCode(message_len=m, block_len=ell, q=q)
        budget = ell - m
        for _ in range(300):
            v = tuple(rng.randrange(q) for _ in range(m))
            n_err = rng.randrange(budget // 2 + 1)
            n_erase = rng.randrange(budget - 2 * n_err + 1)
            z, errors = _corrupt(rng, rs_encode_systematic(code, v), q, n_err, n_erase)
            assert rs_decode_errors_erasures(code, z) == (v, errors)


def _corrupt(rng, cw, q, n_err, n_erase):
    """cw with n_err symbols changed and n_erase erased, and the changed
    1-based positions."""
    z = list(cw)
    touched = rng.sample(range(len(cw)), n_err + n_erase)
    for i in touched[:n_err]:
        z[i] = (z[i] + rng.randrange(1, q)) % q
    for i in touched[n_err:]:
        z[i] = None
    return z, frozenset(i + 1 for i in touched[:n_err])


def test_rs_decode_validates_word():
    code = SystematicRSCode(message_len=2, block_len=4, q=5)
    with pytest.raises(UsageError):
        rs_decode_errors_erasures(code, (1, 2, 3))
    with pytest.raises(UsageError):
        rs_decode_errors_erasures(code, (1, 2, 3, 7))


def test_rs_decode_out_of_budget_words_give_none_or_a_budgeted_codeword():
    """Whatever the word, a decoded result is a codeword within budget of
    it, with exactly the mismatched positions reported."""
    rng = random.Random(2053)
    decoded = 0
    for m, ell, q in WORKLOAD_SHAPES + [(2, 5, 5), (3, 7, 7)]:
        code = SystematicRSCode(message_len=m, block_len=ell, q=q)
        budget = ell - m
        for _ in range(400):
            if rng.randrange(2):
                z = [rng.randrange(q) for _ in range(ell)]
                for i in rng.sample(range(ell), rng.randrange(budget + 2)):
                    z[i] = None
            else:  # one error past the budget of a real codeword
                v = [rng.randrange(q) for _ in range(m)]
                n_erase = rng.randrange(budget + 1)
                n_err = min((budget - n_erase) // 2 + 1, ell - n_erase)
                z, _ = _corrupt(rng, rs_encode_systematic(code, v), q, n_err, n_erase)
            got = rs_decode_errors_erasures(code, z)
            if got is None:
                continue
            decoded += 1
            message, errors = got
            cw = rs_encode_systematic(code, message)
            mismatched = frozenset(
                i + 1 for i, (c, s) in enumerate(zip(cw, z)) if s is not None and c != s
            )
            assert errors == mismatched
            assert 2 * len(errors) + z.count(None) <= budget
    assert decoded  # the small fields land within budget now and then


def test_rs_decode_clean_and_erasure_only_words_report_no_errors():
    rng = random.Random(11)
    for m, ell, q in WORKLOAD_SHAPES:
        code = SystematicRSCode(message_len=m, block_len=ell, q=q)
        v = tuple(rng.randrange(q) for _ in range(m))
        cw = rs_encode_systematic(code, v)
        clean = rs_decode_errors_erasures(code, cw)  # re-encoding fast path
        erased, _ = _corrupt(rng, cw, q, 0, ell - m)  # decoder path
        for message, errors in (clean, rs_decode_errors_erasures(code, erased)):
            assert message == v
            assert errors == frozenset() and type(errors) is frozenset


def test_rs_code_shape_is_validated_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(storen.codes, "is_prime", counting_is_prime)
    for _ in range(3):
        code = SystematicRSCode(message_len=3, block_len=10, q=10007)
        rs_encode_systematic(code, (1, 2, 3))
    assert len(calls) <= 1
    for _ in range(2):  # a rejected shape is rejected every time
        with pytest.raises(UsageError):
            SystematicRSCode(message_len=3, block_len=10, q=10008)


def test_rs_decode_matches_gao_oracle_on_random_words():
    """The syndrome decoder gives Gao's result, None included, on words
    with any number of errors and erasures; a tenth are fully random."""
    rng = random.Random(1969)
    outcomes = set()
    for m, ell, q in [(8, 11, 2053), (4, 7, 8209), (3, 7, 7), (5, 12, 1031)]:
        code = SystematicRSCode(message_len=m, block_len=ell, q=q)
        for _ in range(5000):
            if rng.randrange(10):
                v = [rng.randrange(q) for _ in range(m)]
                n_err = rng.randrange(ell - m + 1)
                n_erase = rng.randrange(ell - n_err + 1)
                z, _ = _corrupt(rng, rs_encode_systematic(code, v), q, n_err, n_erase)
            else:
                z = [rng.randrange(q) for _ in range(ell)]
            got = rs_decode_errors_erasures(code, z)
            assert got == gao_decode(m, ell, q, z)
            outcomes.add(None if got is None else len(got[1]))
    assert {None, 0, 1, 2} <= outcomes


@pytest.mark.parametrize(
    "m, ell, q, wrong, erased",
    [
        (3, 6, 7, [0], []),  # alone
        (3, 6, 7, [0], [4]),  # beside an erasure
        (3, 7, 11, [0, 5], []),  # beside a second error, r = 2
        (8, 11, 2053, [0], [9]),  # the workload shape
    ],
)
def test_rs_decode_error_at_point_zero(m, ell, q, wrong, erased):
    """Position 1 is the point 0, which the recurrence C(x) alone cannot
    locate; the locator x**L * C(1/x) has it as a root."""
    code = SystematicRSCode(message_len=m, block_len=ell, q=q)
    v = tuple(range(1, m + 1))
    z = list(rs_encode_systematic(code, v))
    for i in wrong:
        z[i] = (z[i] + 3) % q
    for i in erased:
        z[i] = None
    assert rs_decode_errors_erasures(code, z) == (v, frozenset(i + 1 for i in wrong))


def test_rs_decode_rebuilds_an_erased_message_symbol_after_a_correction():
    code = SystematicRSCode(message_len=4, block_len=9, q=13)
    v = (5, 0, 12, 7)
    z = list(rs_encode_systematic(code, v))
    z[1] = None  # an erased message symbol
    z[2] = (z[2] + 1) % 13  # a wrong one among the values it is rebuilt from
    z[6] = (z[6] + 4) % 13  # and a wrong parity
    assert rs_decode_errors_erasures(code, z) == (v, frozenset({3, 7}))


@pytest.mark.parametrize(
    "m, ell, q, points, erased",
    [
        (2, 5, 7, [6], []),  # a single root past the block
        (2, 5, 7, [3], [3]),  # a single root at an erased point
        (2, 7, 11, [8, 10], []),  # two roots past the block
    ],
)
def test_rs_decode_locator_with_too_few_known_roots_gives_none(m, ell, q, points, erased):
    """Adding sum_X 1/(X - a) at every point a gives syndromes c * X**j, so
    the locator's roots are exactly the points X, none of them known."""
    code = SystematicRSCode(message_len=m, block_len=ell, q=q)
    z = list(rs_encode_systematic(code, [1] * m))
    for a in range(ell):
        z[a] = None if a in erased else (z[a] + sum(pow(x - a, -1, q) for x in points)) % q
    assert rs_decode_errors_erasures(code, z) is None
    assert gao_decode(m, ell, q, z) is None


def test_rs_code_cached_returns_one_code_per_shape():
    code = SystematicRSCode.cached(3, 10, 10007)
    assert code == SystematicRSCode(3, 10, 10007)
    assert SystematicRSCode.cached(3, 10, 10007) is code
    with pytest.raises(UsageError):
        SystematicRSCode.cached(3, 10, 10008)


def test_brute_force_list_decode_small():
    fam = polynomial_family(k=2, n=5, q=5)
    cw = encode(fam, (1, 2))
    hits = brute_force_list_decode(fam, cw, 0)
    assert hits == [(1, 2)]
    # every message within radius 2 of its own codeword appears
    hits = brute_force_list_decode(fam, (1, 3, 0, 2, 0), 1)
    assert (1, 2) in hits
    assert all(hamming_distance(encode(fam, u), (1, 3, 0, 2, 0)) <= 1 for u in hits)


def test_brute_force_list_decode_lexicographic_and_complete():
    fam = polynomial_family(k=2, n=5, q=5)
    z = (0, 1, 2, 3, 4)
    radius = 2
    hits = brute_force_list_decode(fam, z, radius)
    assert hits == sorted(hits)
    expect = [
        u
        for u in product(range(5), repeat=2)
        if hamming_distance(encode(fam, u), z) <= radius
    ]
    assert hits == expect


def test_brute_force_list_decode_karp_rabin():
    fam = karp_rabin_family(k=2, n=4)
    for x in range(fam.message_space):
        assert x in brute_force_list_decode(fam, encode(fam, x), 1)


def test_brute_force_list_decode_validates():
    fam = polynomial_family(k=2, n=5, q=5)
    with pytest.raises(UsageError):
        brute_force_list_decode(fam, (1, 2, 3), 1)  # wrong length
    with pytest.raises(UsageError):
        brute_force_list_decode(fam, (1, 2, 3, 4, 9), 1)  # symbol out of range
    with pytest.raises(CapacityError):
        brute_force_list_decode(polynomial_family(k=8, n=101, q=101), (0,) * 101, 1)


@pytest.mark.parametrize("m, ell, q", [
    (2, 5, 5), (3, 7, 7), (1, 7, 7), (4, 9, 11), (8, 11, 2053), (5, 12, 1031),
])
def test_locating_gives_the_decoders_error_positions(m, ell, q):
    """On words with every erasure count, and from no error to one past the
    budget, the locate step reports what the decoder reports, None included,
    and so does Gao's decoder, which shares no step with them."""
    rng = random.Random(ell * q)
    code = SystematicRSCode(message_len=m, block_len=ell, q=q)
    outcomes = set()
    for n_erase in range(ell + 1):
        for n_err in range(min(max(ell - m - n_erase, 0) // 2 + 1, ell - n_erase) + 1):
            for _ in range(40):
                v = [rng.randrange(q) for _ in range(m)]
                z, _ = _corrupt(rng, rs_encode_systematic(code, v), q, n_err, n_erase)
                decoded = rs_decode_errors_erasures(code, z)
                located = rs_locate_errors(code, z)
                assert located == (None if decoded is None else decoded[1])
                oracle = gao_decode(m, ell, q, z)
                assert located == (None if oracle is None else oracle[1])
                outcomes.add(None if located is None else len(located))
    assert outcomes == {None, *range((ell - m) // 2 + 1)}
