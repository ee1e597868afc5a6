import contextlib
import errno
import os
import signal
import socket
import struct
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

import storen.transport
from storen.codes import encode
from storen.errors import ProtocolError, UsageError
from storen.hash_families import (
    chunk_hasher,
    hash_eval,
    karp_rabin_family,
    polynomial_family,
)
from storen.protocol import (
    VARIANTS,
    AuditShape,
    ChunkPlan,
    answerers,
    digest_from_bytes,
    digest_to_bytes,
    multi_rs_preprocess,
    preprocess,
    verify,
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
    digest = preprocess("single", FAM, X, None, 0)
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
        verdict = run_verifier_client(digest, [server.address])
    assert verdict.accepted


def test_end_to_end_single_rejects_wrong_answer():
    seed = next(
        s for s in range(100) if preprocess("single", FAM, X, None, s).gammas[0] != 0
    )
    digest = preprocess("single", FAM, X, None, seed)
    with ProverServer(FAM, lambda beta: 0) as server:
        verdict = run_verifier_client(digest, [server.address])
    assert (verdict.outcome, verdict.accused) == ("rejected", frozenset({1}))


def test_silent_server_is_an_erasure():
    digest = preprocess("single", FAM, X, None, 1)
    with _silent_prover() as address:
        started = time.monotonic()
        verdict = run_verifier_client(digest, [address], timeout_ms=400)
        elapsed = time.monotonic() - started
    assert (verdict.outcome, verdict.erased) == ("rejected", frozenset({1}))
    assert 0.3 <= elapsed < 3.0


def test_timeout_env_var(monkeypatch):
    monkeypatch.setenv("STOREN_TIMEOUT_MS", "300")
    digest = preprocess("single", FAM, X, None, 2)
    with _silent_prover() as address:
        started = time.monotonic()
        verdict = run_verifier_client(digest, [address])
        elapsed = time.monotonic() - started
    assert verdict.erased == frozenset({1})
    assert elapsed < 2.0


def test_unreachable_prover_is_an_erasure():
    digest = preprocess("single", FAM, X, None, 3)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        unused = probe.getsockname()
    verdict = run_verifier_client(digest, [unused], timeout_ms=500)
    assert verdict.erased == frozenset({1})


def test_network_faults_are_erasures(monkeypatch):
    plan = ChunkPlan(2, 2)
    digest = multi_rs_preprocess(FAM, X, plan, r=0, e=1, rng_seed=6)
    # the connect to the unroutable address fails here, before any packet leaves
    unroutable = ("192.0.2.1", 9)
    connect = socket.socket.connect

    def refuse_unroutable(sock, address):
        if address == unroutable:
            raise OSError(errno.EHOSTUNREACH, "No route to host")
        return connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect", refuse_unroutable)
    assert query_prover(unroutable, 1, FAM.fingerprint) is None
    with ProverServer(FAM, chunk_hasher(FAM, X[1:], 1)) as s2:
        verdict = run_verifier_client(digest, [unroutable, s2.address])
    assert (verdict.outcome, verdict.erased) == ("accepted", frozenset({1}))

    def unresolvable(host, *args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socket, "getaddrinfo", unresolvable)
    assert query_prover(("no-such-host.invalid", 9), 1, FAM.fingerprint) is None


def test_each_address_of_a_name_is_tried_in_turn(monkeypatch):
    refused = ("127.0.0.1", 1)
    connect = socket.socket.connect

    def refuse(sock, address):
        if address == refused:
            raise ConnectionRefusedError(errno.ECONNREFUSED, "Connection refused")
        return connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect", refuse)
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
        both = [(socket.AF_INET, socket.SOCK_STREAM, 6, "", a) for a in (refused, server.address)]
        monkeypatch.setattr(socket, "getaddrinfo", lambda host, port, **kwargs: both)
        assert query_prover(("prover.example", 9), 3, FAM.fingerprint) == hash_eval(FAM, X, 3)


def test_fingerprint_mismatch_raises():
    other = karp_rabin_family(k=2, n=4)
    digest = preprocess("single", other, 4, None, 0)
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
        with pytest.raises(ProtocolError):
            run_verifier_client(digest, [server.address])


def test_out_of_alphabet_answer_raises():
    digest = preprocess("single", FAM, X, None, 4)
    with ProverServer(FAM, lambda beta: 9) as server:
        with pytest.raises(ProtocolError):
            run_verifier_client(digest, [server.address])


def test_server_error_frames_for_bad_clients():
    fp = FAM.fingerprint
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
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
    fp = FAM.fingerprint
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
        with pytest.raises(ProtocolError):
            query_prover(server.address, 99, fp, timeout_ms=2000)


def test_digest_is_single_use():
    digest = preprocess("single", FAM, X, None, 5)
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
        assert run_verifier_client(digest, [server.address]).accepted
        with pytest.raises(UsageError):
            run_verifier_client(digest, [server.address])
        reset_consumed_digests()
        assert run_verifier_client(digest, [server.address]).accepted


def test_trivial_two_provers_over_tcp():
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(2, 2)
    digest = preprocess("trivial", chunk_fam, X, plan, rng_seed=0)
    honest_1 = chunk_hasher(chunk_fam, (1,))
    honest_2 = chunk_hasher(chunk_fam, (2,))
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
    digest = preprocess("trivial", chunk_fam, X, plan, rng_seed=9)
    answers = (hash_eval(chunk_fam, (1,), digest.beta), 3)
    direct = verify(digest, answers)
    with ProverServer(chunk_fam, lambda beta: answers[0]) as s1, \
            ProverServer(chunk_fam, lambda beta: 3) as s2:
        via_tcp = run_verifier_client(digest, [s1.address, s2.address])
    assert via_tcp == direct


def test_linear_two_provers_over_tcp():
    plan = ChunkPlan(2, 2)
    digest = preprocess("linear", FAM, X, plan, rng_seed=4)
    a1 = chunk_hasher(FAM, plan.zero_extended(X, 1))
    a2 = chunk_hasher(FAM, plan.zero_extended(X, 2))
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, a2) as s2:
        assert run_verifier_client(digest, [s1.address, s2.address]).accepted


def test_rs_parity_over_tcp_with_silence_and_cheating():
    plan = ChunkPlan(2, 2)
    a1 = chunk_hasher(FAM, plan.zero_extended(X, 1))
    a2 = chunk_hasher(FAM, plan.zero_extended(X, 2))
    digest = multi_rs_preprocess(FAM, X, plan, r=0, e=1, rng_seed=6)
    with _silent_prover() as silent, ProverServer(FAM, a2) as s2:
        verdict = run_verifier_client(digest, [silent, s2.address], timeout_ms=400)
    assert (verdict.outcome, verdict.erased) == ("accepted", frozenset({1}))

    digest = multi_rs_preprocess(FAM, X, plan, r=1, e=0, rng_seed=6)
    honest = tuple(hash_eval(FAM, plan.zero_extended(X, i), digest.beta) for i in (1, 2))
    wrong = (honest[1] + 1) % 5
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, lambda beta: wrong) as s2:
        verdict = run_verifier_client(digest, [s1.address, s2.address])
    assert verify(digest, (honest[0], wrong)) == verdict
    assert verdict.accused == frozenset({2})


def test_challenges_run_concurrently():
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    plan = ChunkPlan(2, 2)
    digest = preprocess("trivial", chunk_fam, X, plan, rng_seed=0)
    with _silent_prover() as s1, _silent_prover() as s2:
        started = time.monotonic()
        verdict = run_verifier_client(digest, [s1, s2], timeout_ms=500)
        elapsed = time.monotonic() - started
    assert verdict.erased == frozenset({1, 2})
    # two sequential timeouts would need at least a second
    assert elapsed < 0.95


@contextlib.contextmanager
def _scripted_provers(*scripts):
    """The addresses of one listener per script: ``script(conn)`` runs on
    the first connection it takes, and None never accepts."""

    def serve_once(listener, script):
        with listener.accept()[0] as conn:
            script(conn)

    with contextlib.ExitStack() as stack:
        addresses, threads = [], []
        for script in scripts:
            listener = stack.enter_context(socket.create_server(("127.0.0.1", 0)))
            listener.settimeout(5)
            addresses.append(listener.getsockname())
            if script is not None:
                threads.append(threading.Thread(target=serve_once, args=(listener, script)))
                threads[-1].start()
        try:
            yield addresses
        finally:
            for thread in threads:
                thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)


def _take_hello_then(reply=b"", reset=False):
    """A prover script: read the HELLO, send ``reply``, then close or reset."""

    def script(conn):
        _recv_exact(conn, 35)
        conn.sendall(reply)
        if reset:  # closing with a zero linger time sends RST, not FIN
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    return script


def test_one_loop_erases_closed_reset_and_silent_provers(monkeypatch):
    x = (1, 2, 3, 4)
    hello = encode_hello(PROTOCOL_VERSION, CHUNK_FAM.fingerprint)
    faults = [_take_hello_then(reset=True), None]
    with ProverServer(CHUNK_FAM, chunk_hasher(CHUNK_FAM, (1,))) as honest:
        digest = preprocess("trivial", CHUNK_FAM, x, ChunkPlan(4, 4), rng_seed=0)
        with _scripted_provers(_take_hello_then(hello), *faults) as scripted:
            started = time.monotonic()
            verdict = run_verifier_client(digest, [honest.address, *scripted], timeout_ms=300)
            elapsed = time.monotonic() - started
        assert (verdict.erased, verdict.accused) == (frozenset({2, 3, 4}), frozenset())
        assert elapsed < 0.6

        # a close mid-frame is a fault, raised once every query has ended
        opened = []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("fileno") is None:  # not a socket that accept() made
                    opened.append(self)

        digest = preprocess("trivial", CHUNK_FAM, x, ChunkPlan(4, 4), rng_seed=1)
        with _scripted_provers(_take_hello_then(hello[:10]), *faults) as scripted:
            monkeypatch.setattr(socket, "socket", Recorded)
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                run_verifier_client(digest, [honest.address, *scripted], timeout_ms=300)
            monkeypatch.undo()
    assert len(opened) == 4
    assert all(sock.fileno() == -1 for sock in opened)


def test_verifier_threads_have_a_fixed_limit(monkeypatch):
    monkeypatch.setattr(storen.transport, "MAX_VERIFIER_QUERIES", 2)
    chunk_fam = polynomial_family(k=1, n=5, q=5)
    chunks = [(1,), (2,), (3,), (4,), (0,)]
    digest = preprocess(
        "trivial", chunk_fam, tuple(sym for chunk in chunks for sym in chunk), ChunkPlan(5, 5),
        rng_seed=3,
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
            stack.enter_context(ProverServer(chunk_fam, slow(chunk_hasher(chunk_fam, c))))
            for c in chunks
        ]
        verdict = run_verifier_client(digest, [server.address for server in servers])
    assert verdict.outcome == "accepted"
    assert 1 <= peak[0] <= 2


CHUNK_FAM = polynomial_family(k=1, n=5, q=5)


@contextlib.contextmanager
def _four_provers():
    """Four in-process provers of one symbol each, and a fresh trivial
    digest of their data per call of the yielded function."""
    chunks = [(1,), (2,), (3,), (4,)]
    x = tuple(sym for chunk in chunks for sym in chunk)
    with contextlib.ExitStack() as stack:
        addresses = [
            stack.enter_context(ProverServer(CHUNK_FAM, chunk_hasher(CHUNK_FAM, c))).address
            for c in chunks
        ]

        def audit(seed):
            reset_consumed_digests()  # n = 5 challenges repeat across seeds
            digest = preprocess("trivial", CHUNK_FAM, x, ChunkPlan(4, 4), rng_seed=seed)
            return run_verifier_client(digest, addresses)

        yield audit


def test_an_audit_starts_no_thread(monkeypatch):
    # two server threads each, both started by the first audit
    monkeypatch.setattr(storen.transport, "MAX_SERVER_THREADS", 2)
    with _four_provers() as audit:
        assert audit(0).accepted
        before = threading.enumerate()
        for seed in range(1, 31):
            assert audit(seed).outcome == "accepted"
        assert threading.enumerate() == before


def test_audits_reuse_the_verifier_threads(monkeypatch):
    # the only verifier thread is the caller's: every audit's sockets are
    # made and driven on it
    threads = []

    class Recorded(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("fileno") is None:  # not a socket that accept() made
                threads.append(threading.current_thread())

    with _four_provers() as audit:
        monkeypatch.setattr(socket, "socket", Recorded)
        for seed in range(30):
            assert audit(seed).outcome == "accepted"
        monkeypatch.undo()
    assert len(threads) == 120
    assert set(threads) == {threading.current_thread()}


def test_a_forked_process_starts_its_own_verifier_pool():
    # with no pool to outlive a fork, a child forked after the parent has
    # audited audits on its own thread at once
    with _four_provers() as audit:
        assert audit(0).accepted
        with warnings.catch_warnings():
            # the child only audits and exits, so the server threads it
            # does not inherit hold nothing it needs
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if audit(1).outcome == "accepted" else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        if status == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status != (0, 0), "the forked audit hung"
        assert os.waitstatus_to_exitcode(status[1]) == 0
        assert audit(2).accepted


def test_server_threads_have_a_fixed_limit(monkeypatch):
    monkeypatch.setattr(storen.transport, "MAX_SERVER_THREADS", 2)
    lock = threading.Lock()
    running, peak = [0], [0]
    honest = chunk_hasher(FAM, X)

    def slow(beta):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.05)
        with lock:
            running[0] -= 1
        return honest(beta)

    fingerprint = FAM.fingerprint
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
    fingerprint = FAM.fingerprint
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server, contextlib.ExitStack() as idle:
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
        server = ProverServer(FAM, chunk_hasher(FAM, X), port=busy.getsockname()[1])
        with pytest.raises(OSError) as info:
            server.start()
    assert info.value.errno == errno.EADDRINUSE
    server.close()  # nothing was started, so nothing to stop


def test_closing_the_server_stops_its_workers():
    workers = set()
    honest = chunk_hasher(FAM, X)

    def answer(beta):
        workers.add(threading.current_thread())
        time.sleep(0.02)
        return honest(beta)

    fingerprint = FAM.fingerprint
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


def test_close_wakes_every_thread_blocked_in_accept():
    honest = chunk_hasher(FAM, X)
    together = threading.Barrier(3)

    def answer(beta):
        together.wait(timeout=5)  # three sessions at once take four threads
        return honest(beta)

    fingerprint = FAM.fingerprint
    server = ProverServer(FAM, answer).start()
    try:
        with ThreadPoolExecutor(3) as clients:
            answers = list(clients.map(
                lambda beta: query_prover(server.address, beta, fingerprint), (1, 2, 3)))
        assert answers == [hash_eval(FAM, X, beta) for beta in (1, 2, 3)]
        threads = [t for t in threading.enumerate() if t.name.startswith("storen-prover")]
        assert len(threads) == 4
        time.sleep(0.1)  # each goes back to accept()
    finally:
        started = time.monotonic()
        server.close()
        elapsed = time.monotonic() - started
    assert elapsed < 0.5
    assert not any(thread.is_alive() for thread in threads)


def test_an_answerer_error_is_reported_and_its_worker_serves_on(monkeypatch, capfd):
    monkeypatch.setattr(storen.transport, "MAX_SERVER_THREADS", 1)
    honest = chunk_hasher(FAM, X)
    failures = [ValueError("answerer broke")]

    def answer(beta):
        if failures:
            raise failures.pop()
        return honest(beta)

    fingerprint = FAM.fingerprint
    with ProverServer(FAM, answer) as server:
        # the failed call hangs up without a reply, an erasure to the verifier
        assert query_prover(server.address, 3, fingerprint) is None
        assert query_prover(server.address, 3, fingerprint) == hash_eval(FAM, X, 3)
    err = capfd.readouterr().err
    assert "Traceback" in err
    assert "ValueError: answerer broke" in err


def test_a_protocol_error_waits_for_every_query():
    digest = preprocess("trivial", CHUNK_FAM, X, ChunkPlan(2, 2), rng_seed=0)
    answered = threading.Event()
    honest = chunk_hasher(CHUNK_FAM, (2,))

    def slow(beta):
        time.sleep(0.2)
        answered.set()
        return honest(beta)

    other = polynomial_family(k=1, n=5, q=7)
    with ProverServer(other, chunk_hasher(other, (1,))) as s1, \
            ProverServer(CHUNK_FAM, slow) as s2:
        with pytest.raises(ProtocolError):
            run_verifier_client(digest, [s1.address, s2.address])
        assert answered.is_set()


def test_max_sessions_stops_the_server():
    digest = preprocess("single", FAM, X, None, 7)
    server = ProverServer(FAM, chunk_hasher(FAM, X), max_sessions=1)
    server.start()
    try:
        assert run_verifier_client(digest, [server.address]).accepted
        assert server.wait_closed(timeout=5)
    finally:
        server.close()


def test_a_probe_is_not_counted_as_a_session(monkeypatch):
    monkeypatch.setattr(storen.transport, "PEER_TIMEOUT_S", 0.3)
    digest = preprocess("single", FAM, X, None, 8)
    server = ProverServer(FAM, chunk_hasher(FAM, X), max_sessions=1)
    server.start()
    try:
        # a client that connects and closes, then one that stays silent until
        # the server hangs up at the session deadline: neither sent a byte
        socket.create_connection(server.address, timeout=2).close()
        with socket.create_connection(server.address, timeout=2) as silent:
            assert silent.recv(1) == b""
        assert not server.wait_closed(timeout=0.2)
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
    blob = digest_to_bytes(multi_rs_preprocess(FAM, X, plan, r=1, e=0, rng_seed=6))
    single = preprocess("single", FAM, X, None, 6)
    trivial = preprocess("trivial", polynomial_family(k=1, n=5, q=5), X, plan, 6)

    def audit(addresses, fam=FAM, **budget):
        """The rs-parity digest file, loaded for this audit's shape, then audited."""
        digest = digest_from_bytes(blob, fam, AuditShape(len(addresses), **budget))
        return run_verifier_client(digest, addresses)

    calls = []
    a1 = _counting(chunk_hasher(FAM, plan.zero_extended(X, 1)), calls, 1)
    a2 = _counting(chunk_hasher(FAM, plan.zero_extended(X, 2)), calls, 2)
    with ProverServer(FAM, a1) as s1, ProverServer(FAM, a2) as s2:
        two = [s1.address, s2.address]
        misuses = [
            lambda: audit(two),  # no (r, e) budget
            lambda: audit(two, r=1),  # half a budget
            lambda: audit(two, r=0, e=0),  # 2r + e differs from the parity count
            lambda: audit(two * 2, r=1, e=0),  # s + 2r + e = 6 > q = 5
            lambda: audit(two, polynomial_family(k=2, n=5, q=7), r=1, e=0),  # another family
            lambda: run_verifier_client(single, two),  # the single variant has one prover
            # the digest stores two expected values
            lambda: run_verifier_client(trivial, [s1.address]),
            lambda: audit([], r=1, e=0),  # nobody to audit
        ]
        for misuse in misuses:
            with pytest.raises(UsageError):
                misuse()
        assert calls == []
        verdict = audit(two, r=1, e=0)
    assert (verdict.outcome, verdict.accused, verdict.erased) == (
        "accepted", frozenset(), frozenset(),
    )
    assert sorted(calls) == [1, 2]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_one_prover_too_few_or_too_many_is_refused_by_the_digest_shape(variant):
    # the digest keeps the shape it was made for, s provers: a verdict on
    # s - 1 or s + 1 answers is not one its guarantees are stated for
    spec = VARIANTS[variant]
    fam = polynomial_family(k=6, n=11, q=11)
    if spec.chunk_family:
        fam = polynomial_family(k=2, n=11, q=11)
    x = (3, 1, 4, 1, 5, 9)
    plan = spec.chunk_plan(fam, spec.provers or 3)
    digest = preprocess(variant, fam, x, plan, 5, r=1, e=1)
    shares = spec.shares(fam, x, plan)
    hashers = [lambda beta, hash_at=answerers(fam, [share]): hash_at(beta)[0] for share in shares]
    honest = list(answerers(fam, shares)(digest.beta))
    calls = []
    with contextlib.ExitStack() as stack:
        addresses = [
            stack.enter_context(ProverServer(fam, _counting(hash_at, calls, i))).address
            for i, hash_at in enumerate(hashers, start=1)
        ]
        s = len(addresses)
        for count in (s - 1, s + 1):
            with pytest.raises(UsageError, match="made for AuditShape"):
                verify(digest, (honest * 2)[:count])
            with pytest.raises(UsageError, match="made for AuditShape"):
                run_verifier_client(digest, (addresses * 2)[:count])
        assert calls == []
        verdict = run_verifier_client(digest, addresses)
    assert (verdict.outcome, verdict.accused, verdict.erased) == (
        "accepted", frozenset(), frozenset(),
    )
    assert sorted(calls) == list(range(1, s + 1))


def test_bad_timeouts_send_no_challenge_and_leave_the_digest_unspent(monkeypatch):
    digest = preprocess("single", FAM, X, None, 9)
    calls = []
    with ProverServer(FAM, _counting(chunk_hasher(FAM, X), calls, 1)) as server:
        # 2**31 - 1 ms is the longest wait the selector takes
        for timeout_ms, env in [(0, None), (-5, None), (10**12, None), (None, "abc"),
                                (None, "0"), (None, "1000000000000")]:
            if env is not None:
                monkeypatch.setenv("STOREN_TIMEOUT_MS", env)
            with pytest.raises(UsageError, match="STOREN_TIMEOUT_MS" if env == "abc" else "positive"):
                run_verifier_client(digest, [server.address], timeout_ms=timeout_ms)
        assert calls == []
        monkeypatch.setenv("STOREN_TIMEOUT_MS", str(2**31 - 1))
        assert run_verifier_client(digest, [server.address]).accepted
    assert calls == [1]


def test_encode_hello_refuses_a_fingerprint_of_any_other_length():
    for size in (31, 33):
        with pytest.raises(UsageError, match="32 bytes"):
            encode_hello(PROTOCOL_VERSION, b"\x00" * size)


def test_a_trickling_prover_is_erased_at_the_query_deadline():
    fingerprint = FAM.fingerprint
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
    hello = encode_hello(PROTOCOL_VERSION, FAM.fingerprint)
    dropped = None
    with ProverServer(FAM, chunk_hasher(FAM, X)) as server:
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
