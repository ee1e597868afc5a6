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

Neither end hands a query or a connection to another thread.  An audit
drives all its queries from one :mod:`selectors` loop on the calling thread,
with at most :data:`MAX_VERIFIER_QUERIES` connections open.  Each thread of
a :class:`ProverServer` blocks in ``accept()`` and serves the connection it
takes; it starts another only if none is left waiting, up to
:data:`MAX_SERVER_THREADS`.  Stopping the server shuts the listener down,
which wakes the threads blocked in ``accept()``: Linux behaviour.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import threading
import time
import traceback
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from .errors import ProtocolError, UsageError
from .hash_families import HashFamilyDescriptor
from .protocol import VARIANTS, Digest, Verdict, digest_to_bytes, settle

PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT_MS = 5000
MAX_VERIFIER_QUERIES = 16  # connections one audit keeps open at once
MAX_SERVER_THREADS = 16  # connections one prover server serves at once
PEER_TIMEOUT_S = 2.0  # how long a server gives one session, then it hangs up
TIMEOUT_ENV_VAR = "STOREN_TIMEOUT_MS"
_MAX_TIMEOUT_MS = 2**31 - 1  # the longest wait the selector takes

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


def _read_frame(allowed: Tuple[int, ...], fingerprint: bytes):
    """The exchange steps (:func:`_over`) that receive the next frame: its
    type and fields, or None if the peer closes before its first byte.
    A type not in ``allowed`` raises unread; so do, once read, a close
    mid-frame, an ERROR frame, and a HELLO of another version or family:
    this is the one check of a peer's HELLO that both ends make."""
    head = yield 1
    if not head:
        return None
    if head[0] not in allowed:
        raise _PeerFault(ERR_UNEXPECTED, f"frame type {head[0]:#04x}")
    layout = _FRAMES[head[0]]
    data = head + (yield layout.size - 1)
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


def _over(sock, steps, received=None):
    """Run the exchange ``steps`` over ``sock``, and return its value.  An
    exchange is a generator that yields ``bytes`` to send, or an ``int``
    count of bytes to receive and gets them back, fewer only when the peer
    has closed.  This yields the selector event it waits for before each
    ``recv``, and before each ``send`` that a non-blocking ``sock`` refuses.
    It adds each chunk's size to ``received[0]``, if given."""
    unread, reply = b"", None
    while True:
        try:
            step = steps.send(reply)
        except StopIteration as done:
            return done.value
        if isinstance(step, int):
            while len(unread) < step:
                yield selectors.EVENT_READ
                chunk = sock.recv(4096)
                if not chunk:
                    break
                unread += chunk
                if received is not None:
                    received[0] += len(chunk)
            reply, unread = unread[:step], unread[step:]
        else:
            while step:
                try:
                    step = step[sock.send(step):]
                except BlockingIOError:  # still connecting, or the buffer is full
                    yield selectors.EVENT_WRITE
            reply = None


def _timeout_ms(timeout_ms: Optional[int]) -> int:
    if timeout_ms is None:
        raw = os.environ.get(TIMEOUT_ENV_VAR) or str(DEFAULT_TIMEOUT_MS)
        if not raw.isdecimal():
            raise UsageError(f"{TIMEOUT_ENV_VAR}={raw!r} is not a number of milliseconds")
        timeout_ms = int(raw)
    if not 0 < timeout_ms <= _MAX_TIMEOUT_MS:
        raise UsageError(f"timeout must be positive and at most {_MAX_TIMEOUT_MS} ms")
    return timeout_ms


# --- prover side -------------------------------------------------------------


def _prover_exchange(fingerprint: bytes, n: int, answer_fn):
    """The prover's end of a session, as an exchange (:func:`_over`) that
    returns its last frame for the caller to send: the answer to one
    challenge in 1..``n``, the ERROR code that the client's first fault
    earns, or nothing if the client leaves first."""
    try:
        if (yield from _read_frame((FRAME_HELLO,), fingerprint)) is None:
            return b""
        yield encode_hello(PROTOCOL_VERSION, fingerprint)
        challenge = yield from _read_frame((FRAME_CHALLENGE,), fingerprint)
        if challenge is None:
            return b""
        if not 1 <= challenge[1] <= n:
            raise _PeerFault(ERR_MALFORMED, f"challenge {challenge[1]} outside 1..{n}")
    except _PeerFault as fault:
        return encode_error(fault.code)
    answer = answer_fn(challenge[1])
    return encode_no_response() if answer is None else encode_response(answer)


class ProverServer:
    """Serves one prover's answers over TCP.

    ``answer_fn`` maps a challenge index to an answer (or None for "no
    response"); an exception it raises prints its traceback, and the thread
    serves on.  With ``max_sessions`` set, the listener shuts down after
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
        self._fingerprint = fam.fingerprint
        self._n = fam.n
        self._answer_fn = answer_fn
        self._bind = (host, port)
        self._max_sessions = max_sessions
        self._sessions = 0
        self._lock = threading.Lock()
        self._listener = self._address = None
        self._threads = []
        self._waiting = 0  # threads in accept(), or on their way back to it
        self._closed = threading.Event()  # set when the listener stops accepting

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise UsageError("server not started")
        return self._address

    def start(self) -> "ProverServer":
        if self._listener is not None:
            raise UsageError("server already started")
        self._listener = socket.create_server(self._bind)
        self._address = self._listener.getsockname()
        self._add_thread()
        return self

    def _add_thread(self):
        """Start one more serving thread: from start(), or under the lock."""
        name = f"storen-prover_{len(self._threads)}"
        self._threads.append(threading.Thread(target=self._serve, name=name, daemon=True))
        self._waiting += 1
        self._threads[-1].start()

    def _serve(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # the listener was shut down, or one accept failed
                if self._closed.is_set():
                    return
                continue
            with self._lock:
                self._waiting -= 1
                if not (self._waiting or self._closed.is_set()) \
                        and len(self._threads) < MAX_SERVER_THREADS:
                    self._add_thread()
            with sock:
                self._handle(sock)

    def _handle(self, sock):
        deadline = time.monotonic() + PEER_TIMEOUT_S
        received = [0]
        run = _over(sock, _prover_exchange(self._fingerprint, self._n, self._answer_fn), received)
        last = b""
        try:
            while True:  # the blocking socket waits, up to the session's deadline
                next(run)
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("the session ran past its deadline")
                sock.settimeout(left)
        except StopIteration as end:
            last = end.value
        except OSError:
            pass
        except Exception:  # the answerer failed: report it, and serve on
            traceback.print_exc()
        # counted as waiting before the last frame goes out, so that the client's
        # next connection, which can come before this thread is back, starts none
        with self._lock:
            self._waiting += 1
            if received[0]:  # a peer that sent nothing was a probe, not a session
                self._sessions += 1
            done = self._sessions == self._max_sessions
        try:
            if last:
                sock.sendall(last)
        except OSError:
            pass
        if done:
            self._stop()

    def _stop(self):
        with self._lock:
            self._closed.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept(), on Linux
        except OSError:  # shut down already
            pass

    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until the listener has stopped (True) or timeout (False)."""
        return self._closed.wait(timeout)

    def close(self):
        if self._listener is None:
            return
        self._stop()
        deadline = time.monotonic() + 2.0
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._listener.close()

    def __enter__(self) -> "ProverServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc):
        self.close()


# --- verifier side -----------------------------------------------------------


def _verifier_exchange(beta: int, fingerprint: bytes):
    """The verifier's end of a query, as an exchange (:func:`_over`): the
    answer, or None when the prover declines or closes at a frame boundary."""
    yield encode_hello(PROTOCOL_VERSION, fingerprint)
    if (yield from _read_frame((FRAME_HELLO, FRAME_ERROR), fingerprint)) is None:
        return None
    yield encode_challenge(beta)
    reply = yield from _read_frame((FRAME_RESPONSE, FRAME_NO_RESPONSE, FRAME_ERROR), fingerprint)
    return None if reply is None or reply[0] == FRAME_NO_RESPONSE else reply[1]


def _connect(host: str, port: int) -> socket.socket:
    """A non-blocking socket whose connect has begun, to the first address of
    ``host`` that does not refuse it at once: like ``socket.create_connection``,
    it tries them in turn."""
    for family, kind, proto, _, address in socket.getaddrinfo(
            host, port, type=socket.SOCK_STREAM):
        sock = socket.socket(family, kind, proto)
        sock.setblocking(False)
        try:
            sock.connect(address)
        except BlockingIOError:  # the connect goes on
            pass
        except OSError as error:
            sock.close()
            failure = error
            continue
        return sock
    raise failure


def _query_all(addresses, beta: int, fingerprint: bytes, timeout: float) -> list:
    """Challenge the prover at each of ``addresses`` from one selector loop,
    with at most :data:`MAX_VERIFIER_QUERIES` connections open, each
    ``timeout`` s from its connect.  Returns each outcome in order: the
    answer, None for an erasure, or the :class:`ProtocolError` raised.  Every
    socket is closed by then."""
    outcomes = [None] * len(addresses)
    todo = list(enumerate(addresses))[::-1]
    queries = {}  # each open query's socket: [index, run, deadline, event it waits for]
    with selectors.DefaultSelector() as selector:

        def advance(sock, query):
            index, run, _, waiting = query
            try:
                event = next(run)
            except StopIteration as done:
                outcomes[index] = done.value
            except OSError:  # an erasure
                pass
            except ProtocolError as error:
                outcomes[index] = error
            else:
                if not waiting:
                    selector.register(sock, event)
                elif event != waiting:
                    selector.modify(sock, event)
                query[3] = event
                return
            end(sock)

        def end(sock):
            if queries.pop(sock)[3]:  # registered with the selector
                selector.unregister(sock)
            sock.close()

        try:
            while todo or queries:
                while todo and len(queries) < MAX_VERIFIER_QUERIES:
                    index, (host, port) = todo.pop()
                    deadline = time.monotonic() + timeout
                    try:
                        sock = _connect(host, port)
                    except OSError:  # a failed name lookup or connect is an erasure
                        continue
                    run = _over(sock, _verifier_exchange(beta, fingerprint))
                    queries[sock] = [index, run, deadline, 0]
                    advance(sock, queries[sock])
                if queries:
                    deadline = min(query[2] for query in queries.values())
                    for key, _ in selector.select(max(0.0, deadline - time.monotonic())):
                        advance(key.fileobj, queries[key.fileobj])
                    now = time.monotonic()
                    for sock in [sock for sock, query in queries.items() if query[2] <= now]:
                        end(sock)  # an erasure
        finally:
            for sock in queries:
                sock.close()
    return outcomes


def query_prover(
    address: Tuple[str, int],
    beta: int,
    fingerprint: bytes,
    timeout_ms: Optional[int] = None,
) -> Optional[int]:
    """Send one challenge; return the answer, or None if the prover is
    unreachable, times out, or declines to respond.  The timeout bounds the
    whole query, connect included.  Raises :class:`ProtocolError` if the
    prover refuses with an ERROR frame or breaks the protocol."""
    timeout = _timeout_ms(timeout_ms) / 1000.0
    (outcome,) = _query_all([tuple(address)], beta, fingerprint, timeout)
    if isinstance(outcome, ProtocolError):
        raise outcome
    return outcome


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


def run_verifier_client(
    digest: Digest,
    addresses: Sequence[Tuple[str, int]],
    timeout_ms: Optional[int] = None,
) -> Verdict:
    """Audit the provers at ``addresses`` (one per prover, in prover order)
    with the digest's challenge, concurrently, and return the verdict.

    :func:`~storen.protocol.settle` (one address per prover of the digest's
    shape) and the timeout are checked before the digest is spent, so a
    misused audit sends nothing.  A digest is spent once per process
    (:func:`reset_consumed_digests` forgets).  The queries run on the calling
    thread (:func:`_query_all`); it waits for every query, then raises the
    first error in prover order."""
    addresses = [tuple(a) for a in addresses]
    settle(digest, len(addresses))
    timeout = _timeout_ms(timeout_ms) / 1000.0
    _mark_consumed(digest)
    answers = tuple(_query_all(addresses, digest.beta, digest.fingerprint, timeout))
    limit = digest.answer_limit
    for answer in answers:
        if isinstance(answer, Exception):
            raise answer
        if answer is not None and not 0 <= answer < limit:
            raise ProtocolError(f"answer {answer} outside the challenge alphabet [0, {limit})")
    return VARIANTS[digest.variant].decide(digest, answers)
