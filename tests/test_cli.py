import csv
import io
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import storen
from storen.adversary import ZeroAnswerer, run_experiment
from storen.cli import main, synthesize_message
from storen.hash_families import (
    derive_family,
    descriptor_from_bytes,
    descriptor_to_bytes,
    karp_rabin_family,
    polynomial_family,
)
from storen.protocol import (
    Digest,
    digest_from_bytes,
    single_preprocess,
    digest_to_bytes,
)
from storen.hash_families import family_fingerprint
from storen.transport import ProverServer, honest_answerer, reset_consumed_digests

from _oracles import decodable_codewords

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
    with ProverServer(FAM, honest_answerer(FAM, (1, 2))) as server:
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
        if digest_from_bytes(digest_file.read_bytes()).beta != 4:
            break
    capsys.readouterr()
    with ProverServer(FAM, honest_answerer(FAM, (3, 3))) as server:
        host, port = server.address
        code = main([
            "audit", "--digest", str(digest_file), "--prover", f"{host}:{port}",
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
        Digest("rs-parity", beta=1, gammas=(3, 4), fingerprint=family_fingerprint(FAM))
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
        Digest("rs-parity", beta=1, gammas=(3, 4), fingerprint=family_fingerprint(FAM))
    ))
    # rs-parity without a family file: the field size is unknown
    code = main([
        "audit", "--digest", str(digest_file), "--r", "1", "--e", "0",
        "--prover", "127.0.0.1:1",
    ])
    assert code == 2
    assert main([
        "audit", "--digest", str(tmp_path / "missing.bin"), "--prover", "127.0.0.1:1",
    ]) == 4
    capsys.readouterr()


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
    digest = digest_from_bytes(out.read_bytes())
    assert digest.variant == "trivial" and digest.gammas == (1, 2)

    fam_file.write_bytes(descriptor_to_bytes(FAM))
    assert main([
        "preprocess", "--family", str(fam_file), "--variant", "rs-parity",
        "--provers", "2", "--r", "1", "--e", "0", "--data", str(data),
        "--seed", "1", "--out", str(out),
    ]) == 0
    digest = digest_from_bytes(out.read_bytes())
    assert digest.variant == "rs-parity" and len(digest.gammas) == 2
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


def test_experiment_rejects_unknown_keys(capsys):
    assert main(["experiment", "kind=polynomial", "k=2", "epsilon=1/2",
                 "strategy=zero", "trials=10", "seed=1", "bogus=1"]) == 2
    capsys.readouterr()


def test_certify_runs_green(capsys):
    assert main(["certify"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok - ") >= 5
    assert "FAIL" not in out


def test_certify_sabotage_fails(capsys):
    assert main(["certify", "--sabotage"]) == 1
    assert "FAIL" in capsys.readouterr().out


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
