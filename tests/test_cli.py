import csv
import hashlib
import io
import os
import random
import re
import secrets
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import storen
from storen.adversary import PartialCodeword, ZeroAnswerer, analytic_pass_rate, run_experiment
from storen.cli import (
    _read_data,
    _read_polynomial_symbols,
    build_parser,
    main,
    synthesize_message,
)
from storen.errors import UsageError
from storen.hash_families import (
    KIND_KARP_RABIN,
    KIND_POLYNOMIAL,
    CheckedSymbols,
    derive_family,
    descriptor_from_bytes,
    descriptor_to_bytes,
    hash_eval,
    karp_rabin_family,
    chunk_hasher,
    polynomial_family,
)
from storen.protocol import (
    VARIANTS,
    AuditShape,
    ChunkPlan,
    Digest,
    Verdict,
    digest_from_bytes,
    digest_to_bytes,
    multi_rs_preprocess,
    preprocess,
    verify,
)
from storen.transport import (
    ProverServer,
    query_prover,
    reset_consumed_digests,
)

from _oracles import decodable_codewords, patched_digest

FAM = polynomial_family(k=2, n=4, q=5)


@pytest.fixture(autouse=True)
def _fresh_digest_registry():
    reset_consumed_digests()
    yield
    reset_consumed_digests()


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_server(port, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.02)
    raise AssertionError("server never came up")


def test_derive_prints_and_writes_descriptor(tmp_path, capsys):
    out = tmp_path / "family.desc"
    code = main([
        "derive", "--kind", "polynomial", "--data-symbols", "2",
        "--epsilon", "4/5", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "challenges: 4" in text
    assert "field size: 5" in text
    assert descriptor_from_bytes(out.read_bytes()) == FAM


def test_derive_karp_rabin(capsys):
    assert main(["derive", "--kind", "karp-rabin", "--data-symbols", "2",
                 "--epsilon", "3/4"]) == 0
    text = capsys.readouterr().out
    assert "challenges: 4" in text
    assert "largest prime: 7" in text


def test_preprocess_audit_single_over_tcp(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    digest_file = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "single",
        "--data", str(data), "--seed", "7", "--out", str(digest_file),
    ]) == 0
    assert "payload bits: 5" in capsys.readouterr().out
    with ProverServer(FAM, chunk_hasher(FAM, (1, 2))) as server:
        host, port = server.address
        code = main([
            "audit", "--digest", str(digest_file), "--family", str(fam_file),
            "--prover", f"{host}:{port}",
        ])
    assert code == 0
    assert "outcome: accepted" in capsys.readouterr().out


def test_audit_rejects_wrong_data(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    digest_file = tmp_path / "digest.bin"
    # (3,3) agrees with (1,2) only at challenge 4; pick a digest avoiding it
    for seed in range(50):
        main([
            "preprocess", "--family", str(fam_file), "--variant", "single",
            "--data", str(data), "--seed", str(seed), "--out", str(digest_file),
        ])
        if digest_from_bytes(digest_file.read_bytes(), FAM, AuditShape(1)).beta != 4:
            break
    capsys.readouterr()
    with ProverServer(FAM, chunk_hasher(FAM, (3, 3))) as server:
        host, port = server.address
        code = main([
            "audit", "--digest", str(digest_file), "--family", str(fam_file),
            "--prover", f"{host}:{port}",
        ])
    assert code == 1
    out = capsys.readouterr().out
    assert "outcome: rejected" in out
    assert "accused: 1" in out


def test_audit_undecidable_exit_code(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    # answers that put the received word outside every codeword's budget
    z = next(
        (a0, a1)
        for a0 in range(5)
        for a1 in range(5)
        if not decodable_codewords(2, 4, 5, [a0, a1, 3, 4])
    )
    digest_file = tmp_path / "digest.bin"
    digest_file.write_bytes(digest_to_bytes(
        Digest("rs-parity", beta=1, gammas=(3, 4), family=FAM, shape=AuditShape(2, 1, 0))
    ))
    with ProverServer(FAM, lambda beta: z[0]) as s1, \
            ProverServer(FAM, lambda beta: z[1]) as s2:
        code = main([
            "audit", "--digest", str(digest_file), "--family", str(fam_file),
            "--r", "1", "--e", "0",
            "--prover", "%s:%d" % s1.address, "--prover", "%s:%d" % s2.address,
        ])
    assert code == 3
    assert "outcome: undecidable" in capsys.readouterr().out


def test_audit_usage_and_io_exit_codes(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    digest_file = tmp_path / "digest.bin"
    digest_file.write_bytes(digest_to_bytes(
        Digest("rs-parity", beta=1, gammas=(3, 4), family=FAM, shape=AuditShape(2, 1, 0))
    ))
    # without a family file, neither the challenge nor the field is known
    code = main([
        "audit", "--digest", str(digest_file), "--r", "1", "--e", "0",
        "--prover", "127.0.0.1:1",
    ])
    assert code == 2
    assert main([
        "audit", "--digest", str(tmp_path / "missing.bin"), "--family", str(fam_file),
        "--prover", "127.0.0.1:1",
    ]) == 4
    capsys.readouterr()


def _counting(answer_fn, calls):
    def answer(beta):
        calls.append(beta)
        return answer_fn(beta)

    return answer


def test_audit_without_budget_exits_2_and_leaves_the_digest_unspent(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    plan = ChunkPlan(2, 2)
    digest_file = tmp_path / "digest.bin"
    digest_file.write_bytes(digest_to_bytes(multi_rs_preprocess(FAM, (1, 2), plan, 1, 0, 4)))
    calls = []
    a1 = _counting(chunk_hasher(FAM, plan.zero_extended((1, 2), 1)), calls)
    a2 = _counting(chunk_hasher(FAM, plan.zero_extended((1, 2), 2)), calls)
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, a2) as s2:
        argv = ["audit", "--digest", str(digest_file), "--family", str(fam_file),
                "--prover", "%s:%d" % s1.address, "--prover", "%s:%d" % s2.address]
        assert main(argv) == 2
        assert calls == []
        assert main(argv + ["--r", "1", "--e", "0"]) == 0
    assert len(calls) == 2
    assert "outcome: accepted" in capsys.readouterr().out


def _single_audit_argv(tmp_path, seed):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    digest_file = tmp_path / "digest.bin"
    digest_file.write_bytes(digest_to_bytes(preprocess("single", FAM, (1, 2), None, seed)))
    return ["audit", "--digest", str(digest_file), "--family", str(fam_file)]


@pytest.mark.parametrize("port", ["70000", "65536", "0", "-5", "http"])
def test_audit_refuses_out_of_range_ports(tmp_path, capsys, port):
    argv = _single_audit_argv(tmp_path, 3)
    assert main(argv + ["--prover", f"127.0.0.1:{port}"]) == 2
    assert "port number in 1-65535" in capsys.readouterr().err
    calls = []
    with ProverServer(FAM, _counting(chunk_hasher(FAM, (1, 2)), calls)) as server:
        assert main(argv + ["--prover", "%s:%d" % server.address]) == 0
    assert len(calls) == 1


def test_audit_with_a_bad_timeout_exits_2_and_leaves_the_digest_unspent(
    tmp_path, capsys, monkeypatch
):
    argv = _single_audit_argv(tmp_path, 5)
    calls = []
    with ProverServer(FAM, _counting(chunk_hasher(FAM, (1, 2)), calls)) as server:
        argv += ["--prover", "%s:%d" % server.address]
        assert main(argv + ["--timeout-ms", "0"]) == 2
        assert "timeout must be positive" in capsys.readouterr().err
        assert main(argv + ["--timeout-ms", "1000000000000"]) == 2
        assert "at most 2147483647 ms" in capsys.readouterr().err
        monkeypatch.setenv("STOREN_TIMEOUT_MS", "1000000000000")
        assert main(argv) == 2
        assert "at most 2147483647 ms" in capsys.readouterr().err
        monkeypatch.setenv("STOREN_TIMEOUT_MS", "abc")
        assert main(argv) == 2
        assert "STOREN_TIMEOUT_MS" in capsys.readouterr().err
        assert calls == []
        monkeypatch.delenv("STOREN_TIMEOUT_MS")
        assert main(argv) == 0
    assert len(calls) == 1
    assert "outcome: accepted" in capsys.readouterr().out


@pytest.mark.parametrize("variant, beta, gammas, message", [
    ("single", 5, (2,), "exceeds the family size n=4"),
    ("single", 2, (5,), "outside the alphabet [0, 5)"),
    ("rs-parity", 1, (3, 5), "outside the alphabet [0, 5)"),
], ids=["beta-past-n", "single-value-past-q", "parity-past-q"])
def test_audit_range_checks_the_digest_file(tmp_path, capsys, variant, beta, gammas, message):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    digest_file = tmp_path / "digest.bin"
    shape = AuditShape(1) if variant == "single" else AuditShape(2, 1, 0)
    valid = digest_to_bytes(Digest(variant, 1, (0,) * len(gammas), FAM, shape))
    digest_file.write_bytes(patched_digest(valid, beta=beta, gammas=gammas))
    calls = []
    with ProverServer(FAM, _counting(lambda beta: 0, calls)) as server:
        assert main([
            "audit", "--digest", str(digest_file), "--family", str(fam_file),
            "--r", "1", "--e", "0", "--prover", "%s:%d" % server.address,
            "--prover", "%s:%d" % server.address,
        ]) == 2
    assert calls == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("variant, gammas", [("single", ()), ("linear", (2, 3))])
def test_audit_of_a_digest_without_its_one_value_exits_2_unspent(
    tmp_path, capsys, variant, gammas
):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    digest_file = tmp_path / "digest.bin"
    shape = AuditShape(1 if variant == "single" else 2)
    valid = digest_to_bytes(Digest(variant, 2, (0,), FAM, shape))
    digest_file.write_bytes(patched_digest(valid, gammas=gammas))
    calls = []
    with ProverServer(FAM, _counting(lambda beta: 0, calls)) as server:
        provers = ["--prover", "%s:%d" % server.address] * (1 if variant == "single" else 2)
        argv = ["audit", "--digest", str(digest_file), "--family", str(fam_file), *provers]
        # twice: a spent digest would be refused the second time as spent
        for _ in range(2):
            assert main(argv) == 2
            assert f"digest stores one value, not {len(gammas)}" in capsys.readouterr().err
    assert calls == []


def test_data_file_validation(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    short = tmp_path / "short.bin"
    short.write_bytes(bytes([1]))
    out = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "single",
        "--data", str(short), "--seed", "0", "--out", str(out),
    ]) == 2
    big_symbol = tmp_path / "big.bin"
    big_symbol.write_bytes(bytes([7, 0]))
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "single",
        "--data", str(big_symbol), "--seed", "0", "--out", str(out),
    ]) == 2
    kr_file = tmp_path / "kr.desc"
    kr_file.write_bytes(descriptor_to_bytes(karp_rabin_family(k=2, n=4)))
    too_big = tmp_path / "toobig.bin"
    too_big.write_bytes(bytes([9]))  # 9 >= 2*3
    assert main([
        "preprocess", "--family", str(kr_file), "--variant", "single",
        "--data", str(too_big), "--seed", "0", "--out", str(out),
    ]) == 2
    capsys.readouterr()


def test_an_oversized_karp_rabin_data_file_exits_2(tmp_path, capsys):
    # the message space has about 7 500 digits, more than the interpreter
    # prints by default: both commands name it by its bit length instead
    fam_file, data = tmp_path / "family.desc", tmp_path / "data.bin"
    fam_file.write_bytes(descriptor_to_bytes(derive_family(KIND_KARP_RABIN, 2000, "1/2")))
    data.write_bytes(b"\xff" * 4000)
    for command in (["preprocess", "--variant", "single", "--out", str(tmp_path / "d.bin")],
                    ["serve", "--port", "0"]):
        assert main([*command, "--family", str(fam_file), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data value 1 does not fit the message space")
        assert "bits" in err
    assert not (tmp_path / "d.bin").exists()


@pytest.mark.parametrize("q, width", [(251, 1), (307, 2), (16000057, 3)])
def test_the_data_reader_names_the_first_symbol_out_of_range(q, width, scans):
    fam = polynomial_family(k=5, n=5, q=q)
    raw = lambda symbols: b"".join(sym.to_bytes(width, "big") for sym in symbols)
    good = [q - 1, 0, 1, q // 2, 2 ** (8 * width - 8)]
    assert _read_polynomial_symbols(fam, raw(good), 5) == tuple(good)
    assert scans[0] == 1  # one max() for the whole file
    top = 2 ** (8 * width) - 1
    for position in range(1, 6):
        for bad in (q, top):
            symbols = good[:position - 1] + [bad] + [top] * (5 - position)  # later ones bad too
            with pytest.raises(UsageError, match=re.escape(
                    f"symbol {position} is {bad}, outside the field [0, {q})")):
                _read_polynomial_symbols(fam, raw(symbols), 5)


@pytest.mark.parametrize("q", [2, 3, 251, 4099, 2**31 - 1, 4294967311, 2**61 - 1,
                               18446744073709551557])
def test_synthesized_symbols_are_the_interpreters_randrange_draws(q):
    # one getrandbits draw per symbol, redrawn while at least q: the stream
    # of randrange(q) on this interpreter, for one- and two-word draws
    fam = polynomial_family(k=1, n=2, q=q)
    for seed in range(4):
        label = f"storen.data:{seed}".encode()
        rng = random.Random(int.from_bytes(hashlib.sha256(label).digest(), "big"))
        assert synthesize_message(fam, seed, count=300) == tuple(
            rng.randrange(q) for _ in range(300))


def test_data_files_and_synthesized_messages_come_out_checked(tmp_path, capsys):
    wide = polynomial_family(k=3, n=300, q=307)  # two bytes per symbol
    for fam, raw, symbols in ((FAM, bytes([1, 4]), (1, 4)),
                              (wide, bytes([1, 50, 0, 0, 1, 2]), (306, 0, 258))):
        x = _read_data(fam, raw, VARIANTS["single"], ChunkPlan(1, fam.k))
        assert type(x) is CheckedSymbols and x == symbols and x.bound == fam.q
        for count in (None, 2 * fam.k):
            made = synthesize_message(fam, 5, count=count)
            assert type(made) is CheckedSymbols and made.bound == fam.q
            assert len(made) == (count or fam.k)

    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(wide))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes([0, 0, 1, 51, 0, 1]))  # symbol 2 is 307
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "single",
        "--data", str(bad), "--seed", "0", "--out", str(tmp_path / "digest.bin"),
    ]) == 2
    assert "symbol 2 is 307, outside the field [0, 307)" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["1/0", "abc", "nan", "inf"])
def test_an_epsilon_that_is_not_a_number_exits_2(capsys, epsilon):
    assert main(["derive", "--kind", "polynomial", "--data-symbols", "2",
                 "--epsilon", epsilon]) == 2
    assert main(["experiment", "kind=polynomial", "k=2", f"epsilon={epsilon}",
                 "strategy=zero", "trials=10", "seed=1"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"epsilon {epsilon!r} is not a number") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("option, value", [
    ("--port", "70000"), ("--port", "-1"), ("--max-sessions", "0"),
])
def test_serve_refuses_bad_limits_before_reading_data(tmp_path, capsys, option, value):
    missing = str(tmp_path / "missing")  # reading it would exit 4
    assert main(["serve", "--family", missing, "--data", missing, option, value]) == 2
    assert option in capsys.readouterr().err


def test_serve_on_a_port_in_use_is_an_io_error(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        assert main(["serve", "--family", str(fam_file), "--data", str(data),
                     "--port", str(port)]) == 4
    err = capsys.readouterr().err
    assert "Address already in use" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["preprocess", "--provers", "3", "--seed", "1"], "single variant has exactly one prover"),
    (["serve", "--chunks", "3"], "single variant has exactly one prover"),
    (["serve", "--chunk-index", "2"], "chunk index 2 out of range"),
])
def test_a_count_the_single_variant_cannot_have_exits_2(tmp_path, capsys, argv, message):
    # a count given on the command line reaches the variant, which refuses
    # it, rather than being replaced by the variant's own count of 1
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(polynomial_family(k=6, n=7, q=7)))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2, 3, 4, 5, 6]))
    out = tmp_path / "digest.bin"
    common = ["--family", str(fam_file), "--data", str(data), "--variant", "single"]
    extra = ["--out", str(out)] if argv[0] == "preprocess" else []
    with socket.socket() as busy:  # a serve that got past the count would exit 4 here
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        if argv[0] == "serve":
            extra = ["--port", str(busy.getsockname()[1])]
        assert main([argv[0], *common, *argv[1:], *extra]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_serve_cli_single(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    digest_file = tmp_path / "digest.bin"
    main([
        "preprocess", "--family", str(fam_file), "--variant", "single",
        "--data", str(data), "--seed", "3", "--out", str(digest_file),
    ])
    port = free_port()
    thread = threading.Thread(target=main, args=([
        "serve", "--family", str(fam_file), "--data", str(data),
        "--port", str(port), "--max-sessions", "1",
    ],), daemon=True)
    thread.start()
    wait_for_server(port)
    code = main([
        "audit", "--digest", str(digest_file), "--family", str(fam_file),
        "--prover", f"127.0.0.1:{port}",
    ])
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert code == 0
    capsys.readouterr()


def test_serve_process_exits_on_its_own_after_max_sessions(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    digest_file = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "single",
        "--data", str(data), "--seed", "3", "--out", str(digest_file),
    ]) == 0
    src = str(Path(storen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "storen", "serve", "--family", str(fam_file),
         "--data", str(data), "--port", "0", "--max-sessions", "1"],
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
    ) as proc:
        try:
            address = proc.stdout.readline().split()[-1]
            assert main([
                "audit", "--digest", str(digest_file), "--family", str(fam_file),
                "--prover", address,
            ]) == 0
            # the last session's thread wakes the one blocked in accept()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
    capsys.readouterr()


def test_serve_cli_linear_two_provers(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    digest_file = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "linear",
        "--provers", "2", "--data", str(data), "--seed", "5",
        "--out", str(digest_file),
    ]) == 0
    ports = [free_port(), free_port()]
    threads = []
    for i, port in enumerate(ports, start=1):
        threads.append(threading.Thread(target=main, args=([
            "serve", "--family", str(fam_file), "--data", str(data),
            "--variant", "linear", "--chunks", "2", "--chunk-index", str(i),
            "--port", str(port), "--max-sessions", "1",
        ],), daemon=True))
        threads[-1].start()
    for port in ports:
        wait_for_server(port)
    code = main([
        "audit", "--digest", str(digest_file), "--family", str(fam_file),
        "--prover", f"127.0.0.1:{ports[0]}", "--prover", f"127.0.0.1:{ports[1]}",
    ])
    for t in threads:
        t.join(timeout=5)
    assert code == 0
    assert "outcome: accepted" in capsys.readouterr().out


def test_serve_cli_rs_parity_three_provers(tmp_path, capsys):
    fam = polynomial_family(k=6, n=11, q=11)
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(fam))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([3, 0, 7, 10, 1, 5]))
    digest_file = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "rs-parity",
        "--provers", "3", "--r", "1", "--e", "1", "--data", str(data),
        "--seed", "2", "--out", str(digest_file),
    ]) == 0
    ports = [free_port() for _ in range(3)]
    threads = []
    for i, port in enumerate(ports, start=1):
        threads.append(threading.Thread(target=main, args=([
            "serve", "--family", str(fam_file), "--data", str(data),
            "--variant", "rs-parity", "--chunks", "3", "--chunk-index", str(i),
            "--port", str(port), "--max-sessions", "1",
        ],), daemon=True))
        threads[-1].start()
    for port in ports:
        wait_for_server(port)
    code = main([
        "audit", "--digest", str(digest_file), "--family", str(fam_file),
        "--r", "1", "--e", "1",
    ] + [arg for port in ports for arg in ("--prover", f"127.0.0.1:{port}")])
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome: accepted" in out
    assert "accused" not in out and "erased" not in out


def test_preprocess_without_a_seed_draws_a_secret_challenge(tmp_path, capsys, monkeypatch):
    calls = []

    def randbelow(n):
        calls.append(n)
        return n - 1

    monkeypatch.setattr(secrets, "randbelow", randbelow)
    fam_file, data, out = tmp_path / "family.desc", tmp_path / "data.bin", tmp_path / "d.bin"
    fam_file.write_bytes(descriptor_to_bytes(FAM))
    data.write_bytes(bytes([1, 2]))
    for variant, extra in (("single", []), ("rs-parity", ["--provers", "2", "--r", "1", "--e", "0"])):
        assert main(["preprocess", "--family", str(fam_file), "--variant", variant,
                     "--data", str(data), "--out", str(out), *extra]) == 0
        shape = AuditShape(1) if variant == "single" else AuditShape(2, 1, 0)
        assert digest_from_bytes(out.read_bytes(), FAM, shape).beta == FAM.n
    assert calls == [FAM.n, FAM.n]
    capsys.readouterr()


def test_preprocess_trivial_and_rs(tmp_path, capsys):
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(polynomial_family(k=1, n=5, q=5)))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes([1, 2]))
    out = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "trivial",
        "--provers", "2", "--data", str(data), "--seed", "1", "--out", str(out),
    ]) == 0
    digest = digest_from_bytes(out.read_bytes(), polynomial_family(k=1, n=5, q=5), AuditShape(2))
    assert digest.variant == "trivial" and digest.gammas == (1, 2)

    fam_file.write_bytes(descriptor_to_bytes(FAM))
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "rs-parity",
        "--provers", "2", "--r", "1", "--e", "0", "--data", str(data),
        "--seed", "1", "--out", str(out),
    ]) == 0
    digest = digest_from_bytes(out.read_bytes(), FAM, AuditShape(2, 1, 0))
    assert digest.variant == "rs-parity" and len(digest.gammas) == 2
    capsys.readouterr()


def test_preprocess_writes_the_digest_for_its_owner_alone(tmp_path, capsys):
    # the digest holds the secret challenge; the descriptor is public
    fam_file, data, out = tmp_path / "family.desc", tmp_path / "data.bin", tmp_path / "d.bin"
    data.write_bytes(bytes([1, 2]))
    argv = ["--family", str(fam_file), "--variant", "single", "--data", str(data)]
    old = os.umask(0)
    try:
        assert main(["derive", "--kind", "polynomial", "--data-symbols", "2",
                     "--epsilon", "4/5", "--out", str(fam_file)]) == 0
        for seed in ("1", "2"):  # an existing digest is replaced
            assert main(["preprocess", *argv, "--seed", seed, "--out", str(out)]) == 0
        assert main(["preprocess", *argv, "--out", str(tmp_path)]) == 4  # a directory
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o077 == 0
    assert fam_file.stat().st_mode & 0o777 == 0o666
    assert out.read_bytes() == digest_to_bytes(preprocess("single", FAM, (1, 2), None, 2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bin", "data.bin", "family.desc"]
    capsys.readouterr()


def test_experiment_csv_output(capsys):
    argv = [
        "experiment", "kind=polynomial", "k=4", "epsilon=1/2",
        "strategy=partial-codeword", "t=0,8,16", "trials=300", "seed=9",
    ]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["t", "retained_bits", "trials", "passes",
                       "empirical_rate", "analytic_rate"]
    assert len(rows) == 4
    assert rows[1][0] == "0" and rows[1][1] == "0"
    assert rows[3][0] == "16"
    # full codeword retention passes every audit
    assert rows[3][3] == "300" and rows[3][4] == "1"
    assert main(argv) == 0
    assert list(csv.reader(io.StringIO(capsys.readouterr().out))) == rows


def test_experiment_matches_library(capsys):
    assert main([
        "experiment", "kind=polynomial", "k=2", "epsilon=4/5",
        "strategy=zero", "trials=100", "seed=3",
    ]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    fam = derive_family("polynomial", 2, "4/5")
    x = synthesize_message(fam, 3)
    report = run_experiment(fam, x, ZeroAnswerer(), trials=100, master_seed=3)
    assert rows[1][3] == str(report.passes)
    assert rows[1][5] == str(report.analytic_rate)


def test_experiment_past_the_exact_size_prints_no_analytic_rate(capsys):
    # n = ceil(1025 / (1/4)**2) = 16 400 primes, past EXACT_RATE_TERMS
    assert main([
        "experiment", "kind=karp-rabin", "k=1025", "epsilon=1/4",
        "strategy=partial-codeword", "t=0,16384", "trials=20", "seed=1",
    ]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[0] for row in rows[1:]] == ["0", "16384"]
    assert rows[1][5] == ""
    assert Fraction(rows[2][5]) > Fraction(16384, 16400)


def test_experiment_prints_long_exact_rates(capsys):
    # at k = 256, eps = 1/4 a karp-rabin guessing rate has about 18 000
    # digits, past the interpreter's default limit for int-to-str conversion
    assert main([
        "experiment", "kind=karp-rabin", "k=256", "epsilon=1/4",
        "strategy=partial-codeword", "t=0", "trials=20", "seed=1",
    ]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    fam = derive_family(KIND_KARP_RABIN, 256, Fraction(1, 4))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # to read the rate back
    try:
        assert Fraction(rows[1][5]) == analytic_pass_rate(fam, 0, PartialCodeword(0))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("limit", [None, 5000])
def test_experiment_leaves_the_int_to_str_limit_as_it_found_it(capsys, limit):
    # the limit is lifted around the rates' formatting only, so a caller's
    # later conversions keep their guard, whatever the limit was
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        expected = sys.get_int_max_str_digits()
        for args in (["kind=polynomial", "k=2", "epsilon=1/2", "strategy=zero"],
                     ["kind=karp-rabin", "k=256", "epsilon=1/4", "strategy=partial-codeword",
                      "t=0"]):
            assert main(["experiment", *args, "trials=10", "seed=1"]) == 0
            assert sys.get_int_max_str_digits() == expected
        assert len(capsys.readouterr().out) > 10_000  # a rate past the limit was printed
    finally:
        sys.set_int_max_str_digits(before)


def test_experiment_rejects_unknown_keys(capsys):
    assert main(["experiment", "kind=polynomial", "k=2", "epsilon=1/2",
                 "strategy=zero", "trials=10", "seed=1", "bogus=1"]) == 2
    capsys.readouterr()


# sha256 of recorded ``storen experiment`` outputs: the CLI runs of the
# experiment-single and experiment-rs-cheaters benchmarks, and a karp-rabin
# sweep.  Any change to the trial recipe, a store or a verifier shows here.
_RECORDED_CSVS = [
    ("kind=polynomial k=256 epsilon=1/4 variant=single strategy=partial-codeword "
     "t=0,1024,2048,3072 trials=2000 seed=7",
     "8d6f588937ddcc3223c5ae96ee040b745270997f5203f2e0d54b0963dc6e8627"),
    ("kind=polynomial k=512 epsilon=1/2 variant=rs-parity s=8 r=1 e=1 strategy=honest "
     "trials=200 seed=7",
     "0b2738497b3c245196506e9312f74406dbe65a1f36ac4680a47e3e7ab80377b3"),
    ("kind=karp-rabin k=64 epsilon=1/4 variant=single strategy=partial-codeword "
     "t=0,256,512,1024 trials=500 seed=3",
     "1e6ebc8a205b1ddb9fea3168d48bb49f0e4dd74b5d0ca5c030a2e28299835308"),
]


@pytest.mark.parametrize("args, sha256", _RECORDED_CSVS,
                         ids=["experiment-single", "experiment-rs-cheaters", "karp-rabin"])
def test_experiment_output_is_byte_identical_to_the_record(capsys, args, sha256):
    limit = sys.get_int_max_str_digits()
    try:
        assert main(["experiment", *args.split()]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == sha256


@pytest.mark.parametrize("bad", ["trials=5 t=1,99", "trials=0 t=1"])
def test_a_failing_experiment_prints_no_csv(capsys, bad):
    assert main(["experiment", "kind=polynomial", "k=4", "epsilon=1/2", "variant=single",
                 "strategy=partial-codeword", "seed=1", *bad.split()]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_trivial_preprocess_scans_the_data_once(tmp_path, capsys, scans):
    fam = polynomial_family(k=3, n=7, q=7)
    plan = ChunkPlan(2, 6)
    x = [1, 6, 0, 2, 5, 3]
    library = preprocess("trivial", fam, x, plan, 4)
    assert scans[0] == 1
    fam_file, data, out = tmp_path / "family.desc", tmp_path / "data.bin", tmp_path / "d.bin"
    fam_file.write_bytes(descriptor_to_bytes(fam))
    data.write_bytes(bytes(x))
    assert main(["preprocess", "--family", str(fam_file), "--variant", "trivial",
                 "--provers", "2", "--data", str(data), "--seed", "4",
                 "--out", str(out)]) == 0
    assert scans[0] == 2
    assert out.read_bytes() == digest_to_bytes(library)
    capsys.readouterr()


def test_certify_runs_green(capsys):
    assert main(["certify"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok - ") >= 5
    assert "FAIL" not in out


def test_certify_sabotage_fails(capsys, monkeypatch):
    # a derivation off its fixed point n = 4 fails that check, and only that one
    monkeypatch.setattr("storen.cli.derive_family", lambda *args: polynomial_family(k=2, n=5, q=5))
    assert main(["certify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL - parameter derivation fixed point" in out
    assert out.count("FAIL") == 1


def test_module_entrypoint_smoke():
    # the child imports the same storen as this process, installed or not
    src = str(Path(storen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "storen", "derive", "--kind", "polynomial",
         "--data-symbols", "2", "--epsilon", "4/5"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "challenges: 4" in proc.stdout


# The variant table, through the CLI: every variant on every family kind it
# supports.  Polynomial data is 4 symbols over F_7 (two chunks of 2 for the
# trivial chunk family); karp-rabin data is one value below 2 * 3 = 6, or
# one per prover for trivial.
_POLY = polynomial_family(k=4, n=7, q=7)
_POLY_CHUNK = polynomial_family(k=2, n=7, q=7)
_KR = karp_rabin_family(k=2, n=4)
_LIBRARY = {
    "single": lambda fam, x, plan: preprocess("single", fam, x, None, 3),
    "trivial": lambda fam, x, plan: preprocess("trivial", fam, x, plan, 3),
    "linear": lambda fam, x, plan: preprocess("linear", fam, x, plan, 3),
    "rs-parity": lambda fam, x, plan: multi_rs_preprocess(fam, x, plan, 1, 1, 3),
}
_TABLE_CASES = [(variant, KIND_POLYNOMIAL) for variant in _LIBRARY] + [
    ("single", KIND_KARP_RABIN), ("trivial", KIND_KARP_RABIN),
]


def _table_case(variant, kind):
    """(family, whole data, data file bytes, plan, each prover's message as
    an independent reference: its chunk, zero-extended where the variant's
    provers answer for the whole message)."""
    if kind == KIND_KARP_RABIN:
        if variant == "trivial":
            return _KR, (4, 5), bytes([4, 5]), ChunkPlan(2, 2), [4, 5]
        return _KR, 5, bytes([5]), None, [5]
    x = (3, 0, 6, 1)
    plan = ChunkPlan(2, 4)
    if variant == "trivial":
        return _POLY_CHUNK, x, bytes(x), plan, plan.split(x)
    if variant == "single":
        return _POLY, x, bytes(x), None, [x]
    return _POLY, x, bytes(x), plan, [plan.zero_extended(x, i) for i in (1, 2)]


@pytest.mark.parametrize("variant, kind", _TABLE_CASES)
def test_every_variant_preprocesses_and_serves_like_the_library(tmp_path, capsys, variant, kind):
    fam, x, raw, plan, messages = _table_case(variant, kind)
    fam_file = tmp_path / "family.desc"
    fam_file.write_bytes(descriptor_to_bytes(fam))
    data = tmp_path / "data.bin"
    data.write_bytes(raw)
    digest_file = tmp_path / "digest.bin"
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", variant,
        "--data", str(data), "--seed", "3", "--provers", str(len(messages)),
        "--r", "1", "--e", "1", "--out", str(digest_file),
    ]) == 0
    assert digest_file.read_bytes() == digest_to_bytes(_LIBRARY[variant](fam, x, plan))

    fingerprint = fam.fingerprint
    for index, message in enumerate(messages, start=1):
        port = free_port()
        thread = threading.Thread(target=main, args=([
            "serve", "--family", str(fam_file), "--data", str(data),
            "--variant", variant, "--chunks", str(len(messages)),
            "--chunk-index", str(index), "--port", str(port),
            "--max-sessions", str(fam.n),
        ],), daemon=True)
        thread.start()
        wait_for_server(port)
        answers = [query_prover(("127.0.0.1", port), beta, fingerprint)
                   for beta in range(1, fam.n + 1)]
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert answers == [hash_eval(fam, message, beta) for beta in range(1, fam.n + 1)]
    capsys.readouterr()


def _corruptions(blob):
    """``blob`` with each byte set to a few values, cut at every length, and
    extended twice."""
    for i in range(len(blob)):
        for value in (0, 1, 2, 0x7F, 0x80, 0xFE, 0xFF):
            yield blob[:i] + bytes([value]) + blob[i + 1:]
    for end in range(len(blob)):
        yield blob[:end]
    yield blob + b"\0"
    yield blob + bytes(8)


@pytest.mark.parametrize("variant, kind", _TABLE_CASES)
def test_corrupt_descriptors_and_digests_load_or_raise_usage_error(variant, kind):
    # a corrupt file either loads, settles and gets a verdict, or is a
    # UsageError (exit 2); no other exception escapes the loaders
    fam, x, _, plan, messages = _table_case(variant, kind)
    fam_blob = descriptor_to_bytes(fam)
    digest_blob = digest_to_bytes(_LIBRARY[variant](fam, x, plan))
    budget = {"r": 1, "e": 1} if variant == "rs-parity" else {}
    shape = AuditShape(len(messages), **budget)

    def audit(fam_bytes, digest_bytes):
        digest = digest_from_bytes(digest_bytes, descriptor_from_bytes(fam_bytes), shape)
        return verify(digest, [0] * len(messages))

    cases = [(f, digest_blob) for f in _corruptions(fam_blob)]
    cases += [(fam_blob, d) for d in _corruptions(digest_blob)]
    decided = refused = 0
    for fam_bytes, digest_bytes in cases:
        try:
            assert isinstance(audit(fam_bytes, digest_bytes), Verdict)
            decided += 1
        except UsageError:
            refused += 1
    assert decided and refused


def test_digest_tags_and_cli_choices_are_the_table():
    made = [Digest("single", 1, (0,), FAM, AuditShape(1)),
            Digest("trivial", 1, (0, 0), FAM, AuditShape(2)),
            Digest("linear", 1, (0,), FAM, AuditShape(2)),
            Digest("rs-parity", 1, (0, 0), FAM, AuditShape(2, 1, 0))]
    tagged = {digest_from_bytes(digest_to_bytes(d), FAM, d.shape).variant for d in made}
    assert tagged == set(VARIANTS)
    assert len({spec.tag for spec in VARIANTS.values()}) == len(VARIANTS)
    commands = build_parser()._subparsers._group_actions[0].choices
    for command in ("preprocess", "serve"):
        (option,) = [a for a in commands[command]._actions if a.dest == "variant"]
        assert list(option.choices) == list(VARIANTS)
