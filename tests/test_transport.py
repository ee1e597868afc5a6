import contextlib
import errno
import os
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import storen.transport
from storen.codes import encode
from storen.errors import ProtocolError, UsageError
from storen.hash_families import (
    family_fingerprint,
    hash_eval,
    karp_rabin_family,
    polynomial_family,
)
from storen.protocol import (
    ChunkPlan,
    digest_from_bytes,
    digest_to_bytes,
    multi_linear_preprocess,
    multi_rs_preprocess,
    multi_rs_verify,
    multi_trivial_preprocess,
    multi_trivial_verify,
    single_preprocess,
)
from storen.transport import (
    ERR_FINGERPRINT,
    ERR_MALFORMED,
    ERR_UNEXPECTED,
    ERR_VERSION,
    FRAME_CHALLENGE,
    FRAME_ERROR,
    FRAME_HELLO,
    PROTOCOL_VERSION,
    ProverServer,
    encode_challenge,
    encode_error,
    encode_hello,
    encode_no_response,
    encode_response,
    honest_answerer,
    query_prover,
    reset_consumed_digests,
    run_verifier_client,
)

FAM = polynomial_family(k=2, n=5, q=5)
X = (1, 2)


@pytest.fixture(autouse=True)
def _fresh_digest_registry():
    reset_consumed_digests()
    yield
    reset_consumed_digests()


@contextlib.contextmanager
def _silent_prover():
    """The address of a listener that never accepts: the kernel completes
    each handshake and takes the HELLO, and no reply ever comes."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        yield listener.getsockname()


def _recv_exact(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise AssertionError("peer closed early")
        data += chunk
    return data


def test_frame_golden_bytes():
    assert encode_challenge(4) == bytes([0x01, 4, 0, 0, 0, 0, 0, 0, 0])
    assert encode_response(2) == bytes([0x02, 2, 0, 0, 0, 0, 0, 0, 0])
    assert encode_no_response() == bytes([0x03])
    assert encode_error(ERR_VERSION) == bytes([0x7F, 4, 0])
    hello = encode_hello(PROTOCOL_VERSION, b"\x00" * 32)
    assert len(hello) == 35
    assert hello[0] == FRAME_HELLO
    assert hello[1:3] == struct.pack("<H", 1)


def test_end_to_end_single_accepts():
    digest = single_preprocess(FAM, X, 0)
    with ProverServer(FAM, honest_answerer(FAM, X)) as server:
        verdict = run_verifier_client(digest, [server.address])
    assert verdict.accepted


def test_end_to_end_single_rejects_wrong_answer():
    seed = next(
        s for s in range(100) if single_preprocess(FAM, X, s).gammas[0] != 0
    )
    digest = single_preprocess(FAM, X, seed)
    with ProverServer(FAM, lambda beta: 0) as server:
        verdict = run_verifier_client(digest, [server.address])
    assert (verdict.outcome, verdict.accused) == ("rejected", frozenset({1}))


def test_silent_server_is_an_erasure():
    digest = single_preprocess(FAM, X, 1)
    with _silent_prover() as address:
        started = time.monotonic()
        verdict = run_verifier_client(digest, [address], timeout_ms=400)
        elapsed = time.monotonic() - started
    assert (verdict.outcome, verdict.erased) == ("rejected", frozenset({1}))
    assert 0.3 <= elapsed < 3.0


def test_timeout_env_var(monkeypatch):
    monkeypatch.setenv("STOREN_TIMEOUT_MS", "300")
    digest = single_preprocess(FAM, X, 2)
    with _silent_prover() as address:
        started = time.monotonic()
        verdict = run_verifier_client(digest, [address])
        elapsed = time.monotonic() - started
    assert verdict.erased == frozenset({1})
    assert elapsed < 2.0


def test_unreachable_prover_is_an_erasure():
    digest = single_preprocess(FAM, X, 3)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        unused = probe.getsockname()
    verdict = run_verifier_client(digest, [unused], timeout_ms=500)
    assert verdict.erased == frozenset({1})


def test_network_faults_are_erasures(monkeypatch):
    plan = ChunkPlan(2, 2)
    digest = multi_rs_preprocess(FAM, X, plan, r=0, e=1, rng_seed=6)
    unroutable = ("192.0.2.1", 9)
    connect = socket.create_connection

    def create_connection(address, *args, **kwargs):
        if address == unroutable:
            raise OSError(errno.EHOSTUNREACH, "No route to host")
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    assert query_prover(unroutable, 1, family_fingerprint(FAM)) is None
    with ProverServer(FAM, honest_answerer(FAM, X[1:], 1)) as s2:
        verdict = run_verifier_client(digest, [unroutable, s2.address])
    assert (verdict.outcome, verdict.erased) == ("accepted", frozenset({1}))

    def unresolvable(address, *args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socket, "create_connection", unresolvable)
    assert query_prover(("no-such-host.invalid", 9), 1, family_fingerprint(FAM)) is None


def test_fingerprint_mismatch_raises():
    other = karp_rabin_family(k=2, n=4)
    digest = single_preprocess(other, 4, 0)
    with ProverServer(FAM, honest_answerer(FAM, X)) as server:
        with pytest.raises(ProtocolError):
            run_verifier_client(digest, [server.address])


def test_out_of_alphabet_answer_raises():
    digest = single_preprocess(FAM, X, 4)
    with ProverServer(FAM, lambda beta: 9) as server:
        with pytest.raises(ProtocolError):
            run_verifier_client(digest, [server.address])


def test_server_error_frames_for_bad_clients():
    fp = family_fingerprint(FAM)
    with ProverServer(FAM, honest_answerer(FAM, X)) as server:
        # version from the future
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(encode_hello(9, fp))
            reply = _recv_exact(sock, 3)
            assert reply == encode_error(ERR_VERSION)
        # skipping the handshake
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(encode_challenge(1))
            assert _recv_exact(sock, 3) == encode_error(ERR_UNEXPECTED)
        # wrong fingerprint
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(encode_hello(PROTOCOL_VERSION, b"\xEE" * 32))
            assert _recv_exact(sock, 3) == encode_error(ERR_FINGERPRINT)
        # challenge outside 1..n
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(encode_hello(PROTOCOL_VERSION, fp))
            assert _recv_exact(sock, 35)[0] == FRAME_HELLO
            sock.sendall(encode_challenge(99))
            assert _recv_exact(sock, 3) == encode_error(ERR_MALFORMED)


def test_query_prover_surfaces_error_frames():
    fp = family_fingerprint(FAM)
    with ProverServer(FAM, honest_answerer(FAM, X)) as server:
        with pytest.raises(ProtocolError):
            query_prover(server.address, 99, fp, timeout_ms=2000)


def test_digest_is_single_use():
    digest = single_preprocess(FAM, X, 5)
    with ProverServer(FAM, honest_answerer(FAM, X)) as server:
        assert run_verifier_client(digest, [server.address]).accepted
        with pytest.raises(UsageError):
            run_verifier_client(digest, [server.address])
        reset_consumed_digests()
        assert run_verifier_client(digest, [server.address]).accepted


def test_trivial_two_provers_over_tcp():
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(2, 2)
    digest = multi_trivial_preprocess(chunk_fam, X, plan, rng_seed=0)
    honest_1 = honest_answerer(chunk_fam, (1,))
    honest_2 = honest_answerer(chunk_fam, (2,))
    with ProverServer(chunk_fam, honest_1) as s1, ProverServer(chunk_fam, honest_2) as s2:
        verdict = run_verifier_client(digest, [s1.address, s2.address])
        assert verdict.accepted
        reset_consumed_digests()
        with ProverServer(chunk_fam, lambda beta: 0) as cheat:
            verdict = run_verifier_client(digest, [s1.address, cheat.address])
    if digest.gammas[1] != 0:
        assert verdict.accused == frozenset({2})
    # address count must match the prover count
    with pytest.raises(UsageError):
        run_verifier_client(digest, [("127.0.0.1", 1)])


def test_transport_matches_direct_verify():
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(2, 2)
    digest = multi_trivial_preprocess(chunk_fam, X, plan, rng_seed=9)
    answers = (hash_eval(chunk_fam, (1,), digest.beta), 3)
    direct = multi_trivial_verify(digest, answers)
    with ProverServer(chunk_fam, lambda beta: answers[0]) as s1, \
            ProverServer(chunk_fam, lambda beta: 3) as s2:
        via_tcp = run_verifier_client(digest, [s1.address, s2.address])
    assert via_tcp == direct


def test_linear_two_provers_over_tcp():
    plan = ChunkPlan(2, 2)
    digest = multi_linear_preprocess(FAM, X, plan, rng_seed=4)
    a1 = honest_answerer(FAM, plan.zero_extended(X, 1))
    a2 = honest_answerer(FAM, plan.zero_extended(X, 2))
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, a2) as s2:
        assert run_verifier_client(digest, [s1.address, s2.address]).accepted


def test_rs_parity_over_tcp_with_silence_and_cheating():
    plan = ChunkPlan(2, 2)
    a1 = honest_answerer(FAM, plan.zero_extended(X, 1))
    a2 = honest_answerer(FAM, plan.zero_extended(X, 2))
    digest = multi_rs_preprocess(FAM, X, plan, r=0, e=1, rng_seed=6)
    with _silent_prover() as silent, ProverServer(FAM, a2) as s2:
        verdict = run_verifier_client(digest, [silent, s2.address], timeout_ms=400)
    assert (verdict.outcome, verdict.erased) == ("accepted", frozenset({1}))

    digest = multi_rs_preprocess(FAM, X, plan, r=1, e=0, rng_seed=6)
    honest = tuple(hash_eval(FAM, plan.zero_extended(X, i), digest.beta) for i in (1, 2))
    wrong = (honest[1] + 1) % 5
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, lambda beta: wrong) as s2:
        verdict = run_verifier_client(digest, [s1.address, s2.address])
    assert multi_rs_verify(digest, (honest[0], wrong)) == verdict
    assert verdict.accused == frozenset({2})


def test_challenges_run_concurrently():
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(2, 2)
    digest = multi_trivial_preprocess(chunk_fam, X, plan, rng_seed=0)
    with _silent_prover() as s1, _silent_prover() as s2:
        started = time.monotonic()
        verdict = run_verifier_client(digest, [s1, s2], timeout_ms=500)
        elapsed = time.monotonic() - started
    assert verdict.erased == frozenset({1, 2})
    # two sequential timeouts would need at least a second
    assert elapsed < 0.95


def test_verifier_threads_have_a_fixed_limit(monkeypatch):
    monkeypatch.setattr(storen.transport, "MAX_VERIFIER_THREADS", 2)
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    chunks = [(1,), (2,), (3,), (4,), (0,)]
    digest = multi_trivial_preprocess(
        chunk_fam, tuple(sym for chunk in chunks for sym in chunk), ChunkPlan(5, 5), rng_seed=3
    )
    lock = threading.Lock()
    running, peak = [0], [0]

    def slow(answer_fn):
        def answer(beta):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.05)
            with lock:
                running[0] -= 1
            return answer_fn(beta)

        return answer

    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(ProverServer(chunk_fam, slow(honest_answerer(chunk_fam, c))))
            for c in chunks
        ]
        verdict = run_verifier_client(digest, [server.address for server in servers])
    assert verdict.outcome == "accepted"
    assert 1 <= peak[0] <= 2


CHUNK_FAM = polynomial_family(k=1, n=5, q=5)


def _record_query_threads(monkeypatch):
    """Patch ``query_prover`` to list the thread each query runs on."""
    threads = []
    query = storen.transport.query_prover

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return query(*args, **kwargs)

    monkeypatch.setattr(storen.transport, "query_prover", recorded)
    return threads


@contextlib.contextmanager
def _four_provers():
    """Four in-process provers of one symbol each, and a fresh trivial
    digest of their data per call of the yielded function."""
    chunks = [(1,), (2,), (3,), (4,)]
    x = tuple(sym for chunk in chunks for sym in chunk)
    with contextlib.ExitStack() as stack:
        addresses = [
            stack.enter_context(ProverServer(CHUNK_FAM, honest_answerer(CHUNK_FAM, c))).address
            for c in chunks
        ]

        def audit(seed):
            reset_consumed_digests()  # n = 5 challenges repeat across seeds
            digest = multi_trivial_preprocess(CHUNK_FAM, x, ChunkPlan(4, 4), rng_seed=seed)
            return run_verifier_client(digest, addresses)

        yield audit


def test_audits_reuse_the_verifier_threads(monkeypatch):
    # a limit no other test uses gives this test a pool of its own, and one
    # above 4, so only reuse keeps 30 audits on 4 threads
    monkeypatch.setattr(storen.transport, "MAX_VERIFIER_THREADS", 8)
    threads = _record_query_threads(monkeypatch)
    with _four_provers() as audit:
        for seed in range(30):
            assert audit(seed).outcome == "accepted"
    assert len(threads) == 120
    # thread objects, not idents: the system can reuse a joined thread's ident
    assert len(set(threads)) <= 4


def test_a_forked_process_starts_its_own_verifier_pool(monkeypatch):
    threads = _record_query_threads(monkeypatch)
    with _four_provers() as audit:
        assert audit(0).accepted
        parent = set(threads)
        monkeypatch.setattr(os, "getpid", lambda: -1)
        assert audit(1).accepted
    assert parent.isdisjoint(threads[4:])


def test_server_threads_have_a_fixed_limit(monkeypatch):
    monkeypatch.setattr(storen.transport, "MAX_SERVER_THREADS", 2)
    lock = threading.Lock()
    running, peak = [0], [0]
    honest = honest_answerer(FAM, X)

    def slow(beta):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.05)
        with lock:
            running[0] -= 1
        return honest(beta)

    fingerprint = family_fingerprint(FAM)
    with ProverServer(FAM, slow) as server, ThreadPoolExecutor(5) as clients:
        futures = [
            clients.submit(query_prover, server.address, beta, fingerprint)
            for beta in range(1, 6)
        ]
        answers = [future.result() for future in futures]
    assert answers == [hash_eval(FAM, X, beta) for beta in range(1, 6)]
    assert 1 <= peak[0] <= 2


def test_idle_peers_do_not_hold_the_server_workers(monkeypatch):
    monkeypatch.setattr(storen.transport, "MAX_SERVER_THREADS", 2)
    monkeypatch.setattr(storen.transport, "PEER_TIMEOUT_S", 0.3)
    fingerprint = family_fingerprint(FAM)
    with ProverServer(FAM, honest_answerer(FAM, X)) as server, contextlib.ExitStack() as idle:
        # two peers that connect and send nothing take both workers
        for _ in range(2):
            idle.enter_context(socket.create_connection(server.address, timeout=2))
        time.sleep(0.1)
        start = time.monotonic()
        answer = query_prover(server.address, 3, fingerprint, timeout_ms=5000)
        elapsed = time.monotonic() - start
    assert answer == hash_eval(FAM, X, 3)
    # the query waits for one idle peer's read timeout, then is answered
    assert elapsed < 0.3 + 1.0


def test_a_port_in_use_fails_start_with_the_bind_error():
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        server = ProverServer(FAM, honest_answerer(FAM, X), port=busy.getsockname()[1])
        with pytest.raises(OSError) as info:
            server.start()
    assert info.value.errno == errno.EADDRINUSE
    server.close()  # nothing was started, so nothing to stop


def test_closing_the_server_stops_its_workers():
    workers = set()
    honest = honest_answerer(FAM, X)

    def answer(beta):
        workers.add(threading.current_thread())
        time.sleep(0.02)
        return honest(beta)

    fingerprint = family_fingerprint(FAM)
    server = ProverServer(FAM, answer).start()
    try:
        with ThreadPoolExecutor(3) as clients:
            futures = [
                clients.submit(query_prover, server.address, beta, fingerprint)
                for beta in range(1, 4)
            ]
            assert all(future.result() is not None for future in futures)
    finally:
        server.close()
    assert workers
    assert not any(worker.is_alive() for worker in workers)


def test_an_answerer_error_is_reported_and_its_worker_serves_on(monkeypatch, capfd):
    monkeypatch.setattr(storen.transport, "MAX_SERVER_THREADS", 1)
    honest = honest_answerer(FAM, X)
    failures = [ValueError("answerer broke")]

    def answer(beta):
        if failures:
            raise failures.pop()
        return honest(beta)

    fingerprint = family_fingerprint(FAM)
    with ProverServer(FAM, answer) as server:
        # the failed call hangs up without a reply, an erasure to the verifier
        assert query_prover(server.address, 3, fingerprint) is None
        assert query_prover(server.address, 3, fingerprint) == hash_eval(FAM, X, 3)
    err = capfd.readouterr().err
    assert "Traceback" in err
    assert "ValueError: answerer broke" in err


def test_a_protocol_error_waits_for_every_query():
    digest = multi_trivial_preprocess(CHUNK_FAM, X, ChunkPlan(2, 2), rng_seed=0)
    answered = threading.Event()
    honest = honest_answerer(CHUNK_FAM, (2,))

    def slow(beta):
        time.sleep(0.2)
        answered.set()
        return honest(beta)

    other = polynomial_family(k=1, n=5, q=7)
    with ProverServer(other, honest_answerer(other, (1,))) as s1, \
            ProverServer(CHUNK_FAM, slow) as s2:
        with pytest.raises(ProtocolError):
            run_verifier_client(digest, [s1.address, s2.address])
        assert answered.is_set()


def test_max_sessions_stops_the_server():
    digest = single_preprocess(FAM, X, 7)
    server = ProverServer(FAM, honest_answerer(FAM, X), max_sessions=1)
    server.start()
    try:
        assert run_verifier_client(digest, [server.address]).accepted
        assert server.wait_closed(timeout=5)
    finally:
        server.close()


def _counting(answer_fn, calls, index):
    """``answer_fn`` that records ``index`` on every challenge it answers."""

    def answer(beta):
        calls.append(index)
        return answer_fn(beta)

    return answer


def test_misused_audits_send_no_challenge_and_leave_the_digest_unspent():
    plan = ChunkPlan(2, 2)
    digest = multi_rs_preprocess(FAM, X, plan, r=1, e=0, rng_seed=6)
    from_disk = digest_from_bytes(digest_to_bytes(digest))  # no family, no budget
    attached = from_disk.with_family(FAM)
    single = single_preprocess(FAM, X, 6)
    trivial = multi_trivial_preprocess(polynomial_family(k=1, n=5, q=5), X, plan, 6)
    calls = []
    a1 = _counting(honest_answerer(FAM, plan.zero_extended(X, 1)), calls, 1)
    a2 = _counting(honest_answerer(FAM, plan.zero_extended(X, 2)), calls, 2)
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, a2) as s2:
        two = [s1.address, s2.address]
        misuses = [
            (attached, two, {}),  # no (r, e) budget
            (attached, two, {"r": 1}),  # half a budget
            (attached, two, {"r": 0, "e": 0}),  # 2r + e differs from the parity count
            (attached, two * 2, {"r": 1, "e": 0}),  # s + 2r + e = 6 > q = 5
            (from_disk, two, {"r": 1, "e": 0}),  # no family: the field is unknown
            # no family: the challenge index read from disk is unchecked
            (digest_from_bytes(digest_to_bytes(single)), [s1.address], {}),
            (single, two, {}),  # the single variant has one prover
            (trivial, [s1.address], {}),  # the digest stores two expected values
            (attached, [], {"r": 1, "e": 0}),  # nobody to audit
        ]
        for misused, addresses, budget in misuses:
            with pytest.raises(UsageError):
                run_verifier_client(misused, addresses, **budget)
        assert calls == []
        verdict = run_verifier_client(attached, two, r=1, e=0)
    assert (verdict.outcome, verdict.accused, verdict.erased) == (
        "accepted", frozenset(), frozenset(),
    )
    assert sorted(calls) == [1, 2]


def test_bad_timeouts_send_no_challenge_and_leave_the_digest_unspent(monkeypatch):
    digest = single_preprocess(FAM, X, 9)
    calls = []
    with ProverServer(FAM, _counting(honest_answerer(FAM, X), calls, 1)) as server:
        for timeout_ms, env in [(0, None), (-5, None), (None, "abc"), (None, "0")]:
            if env is not None:
                monkeypatch.setenv("STOREN_TIMEOUT_MS", env)
            with pytest.raises(UsageError, match="STOREN_TIMEOUT_MS" if env == "abc" else "positive"):
                run_verifier_client(digest, [server.address], timeout_ms=timeout_ms)
        assert calls == []
        monkeypatch.delenv("STOREN_TIMEOUT_MS")
        assert run_verifier_client(digest, [server.address]).accepted
    assert calls == [1]


def test_encode_hello_refuses_a_fingerprint_of_any_other_length():
    for size in (31, 33):
        with pytest.raises(UsageError, match="32 bytes"):
            encode_hello(PROTOCOL_VERSION, b"\x00" * size)


def test_a_trickling_prover_is_erased_at_the_query_deadline():
    fingerprint = family_fingerprint(FAM)
    transcript = encode_hello(PROTOCOL_VERSION, fingerprint) + encode_response(hash_eval(FAM, X, 3))
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def trickle():
            conn, _ = listener.accept()
            with conn:
                # one byte per 50 ms: each read is quick, the whole reply takes 2.2 s
                for byte in transcript:
                    if stop.wait(0.05):
                        return
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        return

        prover = threading.Thread(target=trickle)
        prover.start()
        try:
            started = time.monotonic()
            answer = query_prover(listener.getsockname(), 3, fingerprint, timeout_ms=300)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            prover.join(timeout=5)
    assert not prover.is_alive()
    assert answer is None
    assert elapsed < 2 * 0.3


def test_a_trickling_client_is_dropped_at_the_session_deadline(monkeypatch):
    monkeypatch.setattr(storen.transport, "PEER_TIMEOUT_S", 0.4)
    hello = encode_hello(PROTOCOL_VERSION, family_fingerprint(FAM))
    dropped = None
    with ProverServer(FAM, honest_answerer(FAM, X)) as server:
        with socket.create_connection(server.address, timeout=2) as sock:
            started = time.monotonic()
            sock.settimeout(0.05)
            # one byte per 50 ms: each read is quick, the whole HELLO takes 1.75 s
            for byte in hello:
                try:
                    sock.sendall(bytes([byte]))
                    if sock.recv(1) == b"":
                        dropped = time.monotonic() - started
                        break
                except TimeoutError:
                    continue
                except ConnectionError:  # the hang-up reached us as a reset
                    dropped = time.monotonic() - started
                    break
    assert dropped is not None
    assert dropped < 2 * 0.4
