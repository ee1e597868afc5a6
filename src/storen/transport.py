"""TCP transport for remote audits.

Wire protocol (all integers little-endian, one challenge per connection):

====== ============ ======================================== ===========
type   name         payload                                  total bytes
====== ============ ======================================== ===========
0x00   HELLO        version u16, family fingerprint 32B      35
0x01   CHALLENGE    challenge index u64                      9
0x02   RESPONSE     answer u64                               9
0x03   NO_RESPONSE  (empty)                                  1
0x7F   ERROR        code u16                                 3
====== ============ ======================================== ===========

The client opens the connection, sends HELLO, and expects the server's
HELLO back (same version, same fingerprint) before sending one CHALLENGE;
the server answers RESPONSE or NO_RESPONSE and the connection is done.
Error codes: 1 fingerprint mismatch, 2 unexpected frame, 3 malformed
frame, 4 unsupported version.

Operational faults — any ``OSError`` from connect, send or receive
(refused, reset, timeout, unreachable host, failed name lookup) and a clean
close at a frame boundary — count as *erasures*: the prover is treated as
silent.  Protocol violations (ERROR frames, garbage, out-of-alphabet
answers, handshake mismatches) raise :class:`ProtocolError` instead: they
are evidence of a broken or hostile peer, not of missing data.

A challenge digest is spent the moment it is sent, and only after the
variant's pre-flight check has passed: the module keeps a per-process
registry of consumed digests and refuses to audit with the same one twice
(:func:`reset_consumed_digests` clears it, for tests).
The client-side timeout defaults to 5000 ms and can be set with the
``STOREN_TIMEOUT_MS`` environment variable or per call.

Both ends run their work on one kind of worker group: a bounded set of
daemon threads, each started only when no started thread is idle, and then
reused.  A thread counts itself idle before it hands on the outcome of its
call, so an audit that holds all its answers finds every thread that served
it idle again.  The verifier queries provers on one process-wide group of
at most :data:`MAX_VERIFIER_THREADS` threads, started by the first audit and
shared by every later one (a forked child starts its own).  A
:class:`ProverServer` hands each accepted connection to its own group of at
most :data:`MAX_SERVER_THREADS` threads, stopped when the server closes;
further connections wait their turn.  A worker waits at most
:data:`PEER_TIMEOUT_S` for each read from its peer, so idle peers free it.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import threading
import time
import traceback
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from .errors import ProtocolError, UsageError
from .hash_families import HashFamilyDescriptor, Message, chunk_hasher, family_fingerprint
from .protocol import VARIANTS, Digest, Verdict, digest_to_bytes

PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT_MS = 5000
MAX_VERIFIER_THREADS = 16  # provers queried at once by all audits of a process
MAX_SERVER_THREADS = 16  # connections one prover server handles at once
PEER_TIMEOUT_S = 2.0  # a server's wait for each read from a peer, then it hangs up
TIMEOUT_ENV_VAR = "STOREN_TIMEOUT_MS"

FRAME_HELLO = 0x00
FRAME_CHALLENGE = 0x01
FRAME_RESPONSE = 0x02
FRAME_NO_RESPONSE = 0x03
FRAME_ERROR = 0x7F

ERR_FINGERPRINT = 1
ERR_UNEXPECTED = 2
ERR_MALFORMED = 3
ERR_VERSION = 4
_ERR_NAMES = {
    ERR_FINGERPRINT: "fingerprint mismatch",
    ERR_UNEXPECTED: "unexpected frame",
    ERR_MALFORMED: "malformed frame",
    ERR_VERSION: "unsupported version",
}


def encode_hello(version: int, fingerprint: bytes) -> bytes:
    if len(fingerprint) != 32:
        raise UsageError("fingerprint must be 32 bytes")
    return struct.pack("<BH", FRAME_HELLO, version) + fingerprint


def encode_challenge(beta: int) -> bytes:
    return struct.pack("<BQ", FRAME_CHALLENGE, beta)


def encode_response(value: int) -> bytes:
    return struct.pack("<BQ", FRAME_RESPONSE, value)


def encode_no_response() -> bytes:
    return bytes([FRAME_NO_RESPONSE])


def encode_error(code: int) -> bytes:
    return struct.pack("<BH", FRAME_ERROR, code)


def _recv_type(sock) -> Optional[int]:
    """First byte of a frame; None when the peer closed at the boundary."""
    data = sock.recv(1)
    if not data:
        return None
    return data[0]


def _recv_body(sock, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        data += chunk
    return data


def _recv_reply(sock) -> Optional[int]:
    """Like :func:`_recv_type`, but an ERROR frame raises :class:`ProtocolError`."""
    frame = _recv_type(sock)
    if frame == FRAME_ERROR:
        code = struct.unpack("<H", _recv_body(sock, 2))[0]
        raise ProtocolError(f"prover refused: {_ERR_NAMES.get(code, f'code {code}')}")
    return frame


def _timeout_ms(timeout_ms: Optional[int]) -> int:
    if timeout_ms is None:
        raw = os.environ.get(TIMEOUT_ENV_VAR) or str(DEFAULT_TIMEOUT_MS)
        if not raw.isdecimal():
            raise UsageError(f"{TIMEOUT_ENV_VAR}={raw!r} is not a number of milliseconds")
        timeout_ms = int(raw)
    if timeout_ms <= 0:
        raise UsageError("timeout must be positive")
    return timeout_ms


class _Workers:
    """At most ``limit`` daemon threads, each started only when no started
    one is idle.  A thread counts itself idle before it hands on the outcome
    of its call, so whoever holds all outcomes of a batch finds its threads idle."""

    def __init__(self, name: str, limit: int):
        self._name = name
        self._limit = limit
        self._calls = queue.SimpleQueue()
        self._idle = threading.Semaphore(0)  # one release per finished call
        self._threads = []
        self._lock = threading.Lock()

    def submit(self, call: Callable[[], object], done: Optional[Callable] = None) -> None:
        """Run ``call()`` on a worker, then ``done`` with its result or the
        exception it raised; without ``done``, print the exception's traceback."""
        with self._lock:
            if not self._idle.acquire(blocking=False) and len(self._threads) < self._limit:
                name = f"{self._name}_{len(self._threads)}"
                self._threads.append(threading.Thread(target=self._work, name=name, daemon=True))
                self._threads[-1].start()
        self._calls.put((call, done))

    def _work(self):
        for call, done in iter(self._calls.get, None):
            try:
                outcome = call()
            except Exception as error:
                outcome = error
            self._idle.release()
            if done is not None:
                done(outcome)
            elif isinstance(outcome, Exception):
                traceback.print_exception(outcome)

    def close(self, timeout: float) -> None:
        """Stop each thread after the calls submitted so far, waiting ``timeout`` s at most."""
        for _ in self._threads:
            self._calls.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


# --- prover side -------------------------------------------------------------


def honest_answerer(
    fam: HashFamilyDescriptor, x: Message, start: Optional[int] = None
) -> Callable[[int], int]:
    """Answer function of a prover that keeps all of ``x``: a whole message,
    or with ``start`` the chunk at symbols [start, start + len(x)) of a
    polynomial message that is zero elsewhere.  Each challenge is answered
    from ``x`` itself (:func:`~storen.hash_families.chunk_hasher`), so
    start-up and memory do not depend on the family size n."""
    return chunk_hasher(fam, x, start)


class ProverServer:
    """Serves one prover's answers over TCP.

    ``answer_fn`` maps a challenge index to an answer (or None for "no
    response").  ``silent=True`` makes the server accept connections but
    never reply — the knob for exercising client timeouts.  With
    ``max_sessions`` set, the listener shuts down after that many
    connections have been handled.
    """

    def __init__(
        self,
        fam: HashFamilyDescriptor,
        answer_fn: Callable[[int], Optional[int]],
        host: str = "127.0.0.1",
        port: int = 0,
        silent: bool = False,
        max_sessions: Optional[int] = None,
    ):
        self._fingerprint = family_fingerprint(fam)
        self._n = fam.n
        self._answer_fn = answer_fn
        self._bind = (host, port)
        self._silent = silent
        self._max_sessions = max_sessions
        self._sessions = 0
        self._lock = threading.Lock()
        self._closing = threading.Event()  # ends the accept loop and silent sessions
        self._closed = threading.Event()
        self._address = None
        self._thread = None
        self._workers = _Workers("storen-prover", MAX_SERVER_THREADS)

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise UsageError("server not started")
        return self._address

    def start(self) -> "ProverServer":
        if self._thread is not None:
            raise UsageError("server already started")
        listener = socket.create_server(self._bind)
        listener.settimeout(0.05)  # how often the accept loop looks for a stop
        self._address = listener.getsockname()
        self._thread = threading.Thread(target=self._accept, args=(listener,), daemon=True)
        self._thread.start()
        return self

    def _accept(self, listener):
        try:
            with listener:
                while not self._closing.is_set():
                    try:
                        sock, _ = listener.accept()
                    except OSError:  # the poll timeout, or a failed accept
                        continue
                    self._workers.submit(partial(self._handle, sock))
        finally:
            self._closed.set()

    def _handle(self, sock):
        counted = False
        try:
            sock.settimeout(PEER_TIMEOUT_S)
            frame = _recv_type(sock)
            if frame is None:
                return  # probe or dead peer; not a session
            counted = True
            if frame != FRAME_HELLO:
                sock.sendall(encode_error(ERR_UNEXPECTED))
                return
            body = _recv_body(sock, 34)
            version = struct.unpack_from("<H", body)[0]
            fingerprint = body[2:]
            if version != PROTOCOL_VERSION:
                sock.sendall(encode_error(ERR_VERSION))
                return
            if fingerprint != self._fingerprint:
                sock.sendall(encode_error(ERR_FINGERPRINT))
                return
            if self._silent:
                self._closing.wait(timeout=30.0)
                return
            sock.sendall(encode_hello(PROTOCOL_VERSION, self._fingerprint))
            frame = _recv_type(sock)
            if frame is None:
                return
            if frame != FRAME_CHALLENGE:
                sock.sendall(encode_error(ERR_UNEXPECTED))
                return
            beta = struct.unpack("<Q", _recv_body(sock, 8))[0]
            if not 1 <= beta <= self._n:
                sock.sendall(encode_error(ERR_MALFORMED))
                return
            answer = self._answer_fn(beta)
            if answer is None:
                sock.sendall(encode_no_response())
            else:
                sock.sendall(encode_response(answer))
        except ProtocolError:
            try:
                sock.sendall(encode_error(ERR_MALFORMED))
            except OSError:
                pass
        except OSError:
            pass
        finally:
            sock.close()
            if counted:
                with self._lock:
                    self._sessions += 1
                    if self._max_sessions is not None and self._sessions >= self._max_sessions:
                        self._closing.set()

    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until the listener has stopped (True) or timeout (False)."""
        return self._closed.wait(timeout)

    def close(self):
        self._closing.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._workers.close(timeout=2.0)

    def __enter__(self) -> "ProverServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc):
        self.close()


# --- verifier side -----------------------------------------------------------


def query_prover(
    address: Tuple[str, int],
    beta: int,
    fingerprint: bytes,
    timeout_ms: Optional[int] = None,
) -> Optional[int]:
    """Send one challenge; return the answer, or None if the prover is
    unreachable, times out, or declines to respond."""
    timeout = _timeout_ms(timeout_ms) / 1000.0
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(encode_hello(PROTOCOL_VERSION, fingerprint))
            frame = _recv_reply(sock)
            if frame is None:
                return None
            if frame != FRAME_HELLO:
                raise ProtocolError(f"expected HELLO, got frame type {frame:#04x}")
            body = _recv_body(sock, 34)
            version = struct.unpack_from("<H", body)[0]
            if version != PROTOCOL_VERSION:
                raise ProtocolError(f"prover speaks version {version}")
            if body[2:] != fingerprint:
                raise ProtocolError("prover serves a different hash family")
            sock.sendall(encode_challenge(beta))
            frame = _recv_reply(sock)
            if frame is None:
                return None
            if frame == FRAME_RESPONSE:
                return struct.unpack("<Q", _recv_body(sock, 8))[0]
            if frame == FRAME_NO_RESPONSE:
                return None
            raise ProtocolError(f"unexpected frame type {frame:#04x}")
    except OSError:
        return None


_consumed_digests = set()
_consumed_lock = threading.Lock()


def reset_consumed_digests() -> None:
    """Forget which digests were spent (per-process registry; for tests)."""
    with _consumed_lock:
        _consumed_digests.clear()


def _mark_consumed(digest: Digest) -> None:
    key = digest_to_bytes(digest)
    with _consumed_lock:
        if key in _consumed_digests:
            raise UsageError(
                "challenge digest already spent; a digest authorizes one audit"
            )
        _consumed_digests.add(key)


_verifier = None
_verifier_key = None
_verifier_lock = threading.Lock()


def _verifier_workers() -> _Workers:
    """The process's verifier workers, keyed on the process id and the thread
    limit: a forked child, which has none of its parent's threads, or a changed
    limit gets a fresh group, and one replaced in the process that started it
    is closed."""
    global _verifier, _verifier_key
    key = (os.getpid(), MAX_VERIFIER_THREADS)
    with _verifier_lock:
        if _verifier_key != key:
            if _verifier is not None and _verifier_key[0] == key[0]:
                _verifier.close(timeout=0.0)
            _verifier = _Workers("storen-verifier", MAX_VERIFIER_THREADS)
            _verifier_key = key
        return _verifier


def run_verifier_client(
    digest: Digest,
    addresses: Sequence[Tuple[str, int]],
    r: Optional[int] = None,
    e: Optional[int] = None,
    timeout_ms: Optional[int] = None,
) -> Verdict:
    """Audit the provers at ``addresses`` (one per prover, in prover order)
    with the digest's challenge, concurrently, and return the verdict.

    The digest must have its family attached (:meth:`Digest.with_family`),
    which range-checks the challenge.  That, the variant's pre-flight check
    (prover count, family kind, rs-parity budget) and the timeout run before
    the digest is spent, so a misused audit sends nothing.  The queries run
    on the process's verifier workers, so at most :data:`MAX_VERIFIER_THREADS`
    provers are queried at once, over all audits the process runs.  It waits
    for every query, then raises the first error in prover order."""
    if digest.family is None:
        raise UsageError("digest has no family attached; audit it with its family")
    addresses = [tuple(a) for a in addresses]
    spec = VARIANTS[digest.variant]
    digest = spec.check(digest, len(addresses), r, e)
    timeout_ms = _timeout_ms(timeout_ms)
    _mark_consumed(digest)
    workers = _verifier_workers()
    outcomes = queue.SimpleQueue()
    for i, address in enumerate(addresses):
        workers.submit(
            partial(query_prover, address, digest.beta, digest.fingerprint, timeout_ms),
            lambda outcome, i=i: outcomes.put((i, outcome)),
        )
    answers = tuple(outcome for _, outcome in sorted(outcomes.get() for _ in addresses))
    limit = digest.answer_limit
    for answer in answers:
        if isinstance(answer, Exception):
            raise answer
        if answer is not None and not 0 <= answer < limit:
            raise ProtocolError(f"answer {answer} outside the challenge alphabet [0, {limit})")
    return spec.decide(digest, answers)
