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

How each end treats a fault of its peer's.  An *erasure* counts the prover
as silent; a :class:`ProtocolError` marks it as broken or hostile:

======================================= ============= =========================
the peer                                the verifier  the prover server
======================================= ============= =========================
fails to connect, resets or times out   erasure       hangs up
closes at a frame boundary              erasure       hangs up
closes mid-frame                        ProtocolError sends ERROR 3 malformed
sends ERROR or a frame type out of turn ProtocolError sends ERROR 2 unexpected
sends HELLO of another version          ProtocolError sends ERROR 4 version
sends HELLO of another family           ProtocolError sends ERROR 1 fingerprint
answers NO_RESPONSE                     erasure
answers outside the alphabet            ProtocolError
challenges outside 1..n                               sends ERROR 3 malformed
======================================= ============= =========================

Each query has one deadline, its timeout after the connect begins: 5000 ms
by default, or set per call or by the ``STOREN_TIMEOUT_MS`` environment
variable.  A server session times out :data:`PEER_TIMEOUT_S` after it
begins; one whose client sent nothing was a probe and is not counted.
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
from .hash_families import HashFamilyDescriptor, chunk_hasher, family_fingerprint
from .protocol import VARIANTS, Digest, Verdict, digest_to_bytes

PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT_MS = 5000
MAX_VERIFIER_THREADS = 16  # provers queried at once by all audits of a process
MAX_SERVER_THREADS = 16  # connections one prover server handles at once
PEER_TIMEOUT_S = 2.0  # how long a server gives one session, then it hangs up
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

# each frame type's layout, type byte first
_FRAMES = {
    FRAME_HELLO: struct.Struct("<BH32s"),
    FRAME_CHALLENGE: struct.Struct("<BQ"),
    FRAME_RESPONSE: struct.Struct("<BQ"),
    FRAME_NO_RESPONSE: struct.Struct("<B"),
    FRAME_ERROR: struct.Struct("<BH"),
}


def encode_hello(version: int, fingerprint: bytes) -> bytes:
    if len(fingerprint) != 32:  # packing would pad or truncate it silently
        raise UsageError("fingerprint must be 32 bytes")
    return _FRAMES[FRAME_HELLO].pack(FRAME_HELLO, version, fingerprint)


encode_challenge = partial(_FRAMES[FRAME_CHALLENGE].pack, FRAME_CHALLENGE)
encode_response = partial(_FRAMES[FRAME_RESPONSE].pack, FRAME_RESPONSE)
encode_no_response = partial(_FRAMES[FRAME_NO_RESPONSE].pack, FRAME_NO_RESPONSE)
encode_error = partial(_FRAMES[FRAME_ERROR].pack, FRAME_ERROR)


class _PeerFault(ProtocolError):
    """A peer broke the protocol; ``code`` is the ERROR code that answers it."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"{_ERR_NAMES[code]}: {detail}")
        self.code = code


def _read_frame(recv, allowed: Tuple[int, ...], fingerprint: bytes) -> Optional[tuple]:
    """The next frame's type and fields, or None if the peer closes before its
    first byte.  A type not in ``allowed`` raises unread; so do, once read, a
    close mid-frame, an ERROR frame, and a HELLO of another version or family:
    this is the one check of a peer's HELLO that both ends make."""
    head = recv(1)
    if not head:
        return None
    if head[0] not in allowed:
        raise _PeerFault(ERR_UNEXPECTED, f"frame type {head[0]:#04x}")
    layout = _FRAMES[head[0]]
    data = head + recv(layout.size - 1)
    if len(data) < layout.size:
        raise _PeerFault(ERR_MALFORMED, "connection closed mid-frame")
    frame = layout.unpack(data)
    if frame[0] == FRAME_ERROR:
        raise ProtocolError(f"peer refused: {_ERR_NAMES.get(frame[1], f'code {frame[1]}')}")
    if frame[0] == FRAME_HELLO and frame[1] != PROTOCOL_VERSION:
        raise _PeerFault(ERR_VERSION, f"the peer speaks version {frame[1]}")
    if frame[0] == FRAME_HELLO and frame[2] != fingerprint:
        raise _PeerFault(ERR_FINGERPRINT, "the peer serves another hash family")
    return frame


class _Receiver:
    """``recv(count)`` over ``sock``: fewer bytes only when the peer closes, and
    a TimeoutError at the :func:`time.monotonic` ``deadline``.  It reads what
    has arrived, so a frame that arrives whole costs one read."""

    def __init__(self, sock, deadline: float):
        self._sock = sock
        self._deadline = deadline
        self._unread = b""
        self.received = 0  # bytes returned so far

    def recv(self, count: int) -> bytes:
        while len(self._unread) < count:
            left = self._deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("the exchange ran past its deadline")
            self._sock.settimeout(left)
            chunk = self._sock.recv(4096)
            if not chunk:
                break
            self._unread += chunk
        data, self._unread = self._unread[:count], self._unread[count:]
        self.received += len(data)
        return data


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


# A prover that keeps all of its data answers each challenge from the data
# itself, so start-up and memory do not depend on the family size n.
honest_answerer = chunk_hasher


def _prover_exchange(send, recv, fingerprint: bytes, n: int, answer_fn) -> None:
    """The prover's end of a session: answer one challenge in 1..``n``, or send
    the ERROR code that the client's first fault earns."""
    try:
        if _read_frame(recv, (FRAME_HELLO,), fingerprint) is None:
            return
        send(encode_hello(PROTOCOL_VERSION, fingerprint))
        challenge = _read_frame(recv, (FRAME_CHALLENGE,), fingerprint)
        if challenge is None:
            return
        if not 1 <= challenge[1] <= n:
            raise _PeerFault(ERR_MALFORMED, f"challenge {challenge[1]} outside 1..{n}")
    except _PeerFault as fault:
        send(encode_error(fault.code))
        return
    answer = answer_fn(challenge[1])
    send(encode_no_response() if answer is None else encode_response(answer))


class ProverServer:
    """Serves one prover's answers over TCP.

    ``answer_fn`` maps a challenge index to an answer (or None for "no
    response").  With ``max_sessions`` set, the listener shuts down after
    that many connections have been handled.
    """

    def __init__(
        self,
        fam: HashFamilyDescriptor,
        answer_fn: Callable[[int], Optional[int]],
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: Optional[int] = None,
    ):
        self._fingerprint = family_fingerprint(fam)
        self._n = fam.n
        self._answer_fn = answer_fn
        self._bind = (host, port)
        self._max_sessions = max_sessions
        self._sessions = 0
        self._lock = threading.Lock()
        self._closing = threading.Event()  # ends the accept loop
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
        peer = _Receiver(sock, time.monotonic() + PEER_TIMEOUT_S)
        try:
            _prover_exchange(sock.sendall, peer.recv, self._fingerprint, self._n, self._answer_fn)
        except OSError:
            pass
        finally:
            sock.close()
            if peer.received:  # a peer that sent nothing was a probe, not a session
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


def _verifier_exchange(send, recv, beta: int, fingerprint: bytes) -> Optional[int]:
    """The verifier's end of a query: the answer, or None when the prover
    declines or closes at a frame boundary."""
    send(encode_hello(PROTOCOL_VERSION, fingerprint))
    if _read_frame(recv, (FRAME_HELLO, FRAME_ERROR), fingerprint) is None:
        return None
    send(encode_challenge(beta))
    reply = _read_frame(recv, (FRAME_RESPONSE, FRAME_NO_RESPONSE, FRAME_ERROR), fingerprint)
    return None if reply is None or reply[0] == FRAME_NO_RESPONSE else reply[1]


def query_prover(
    address: Tuple[str, int],
    beta: int,
    fingerprint: bytes,
    timeout_ms: Optional[int] = None,
) -> Optional[int]:
    """Send one challenge; return the answer, or None if the prover is
    unreachable, times out, or declines to respond.  The timeout bounds the
    whole query, connect included."""
    timeout = _timeout_ms(timeout_ms) / 1000.0
    deadline = time.monotonic() + timeout
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            recv = _Receiver(sock, deadline).recv
            return _verifier_exchange(sock.sendall, recv, beta, fingerprint)
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
    the digest is spent, so a misused audit sends nothing.  A digest is spent
    once per process (:func:`reset_consumed_digests` forgets).  The queries run
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
