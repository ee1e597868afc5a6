"""The fault matrix: how each end of the wire classifies its peer's faults,
at every byte of every legal transcript.

Each case runs the exchange generator of ``query_prover`` or
``ProverServer`` through ``_over``, the one socket pump that both ends run,
over a scripted peer in place of a socket.  It runs twice: once with the
peer moving one byte per ``recv`` or ``send``, once with all of its bytes at
once, and both runs must agree.  The peer's bytes arrive as they are asked
for; then the peer closes (``recv`` returns nothing), resets
(``ConnectionResetError``) or goes silent (``TimeoutError``, which a socket
raises at its timeout).  The server's last frame is the one its exchange
returns.  Nothing here opens a socket or sleeps.

The tables below are today's classification; a change to it edits them.
"""

import itertools

import pytest

from storen.errors import ProtocolError
from storen.hash_families import chunk_hasher, polynomial_family
from storen.transport import (
    ERR_FINGERPRINT,
    ERR_MALFORMED,
    ERR_UNEXPECTED,
    ERR_VERSION,
    FRAME_CHALLENGE,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_NO_RESPONSE,
    FRAME_RESPONSE,
    PROTOCOL_VERSION,
    _over,
    _prover_exchange,
    _verifier_exchange,
    encode_challenge,
    encode_error,
    encode_hello,
    encode_no_response,
    encode_response,
)

FAM = polynomial_family(k=2, n=5, q=5)
FP = FAM.fingerprint
X = (1, 2)
BETA, ANSWER = 2, 3  # the honest answer to challenge 2

HELLO = encode_hello(PROTOCOL_VERSION, FP)
CHALLENGE = encode_challenge(BETA)
ERROR_CODES = (ERR_FINGERPRINT, ERR_UNEXPECTED, ERR_MALFORMED, ERR_VERSION, 99)

ERASURE = "erasure"  # query_prover returns None
FAULT = "ProtocolError"
HANG_UP = "hangs up"  # the exchange raises OSError, and ProverServer closes

ENDINGS = {"close": None, "reset": ConnectionResetError, "silence": TimeoutError}

# the verifier's outcome when the prover stops, by how and where it stops
VERIFIER_STOPS = {
    ("close", "boundary"): ERASURE,
    ("close", "mid-frame"): FAULT,
    ("reset", "boundary"): ERASURE,
    ("reset", "mid-frame"): ERASURE,
    ("silence", "boundary"): ERASURE,
    ("silence", "mid-frame"): ERASURE,
}

# what the server sends last, and how it ends, when the client stops
SERVER_STOPS = {
    ("close", "boundary"): (b"", None),
    ("close", "mid-frame"): (encode_error(ERR_MALFORMED), None),
    ("reset", "boundary"): (b"", HANG_UP),
    ("reset", "mid-frame"): (b"", HANG_UP),
    ("silence", "boundary"): (b"", HANG_UP),
    ("silence", "mid-frame"): (b"", HANG_UP),
}


WAYS = (1, 1 << 16)  # bytes a scripted peer moves per call: one, or all it has


class _Peer:
    """A scripted peer in place of a socket: ``recv`` hands out ``data``, at
    most ``way`` bytes a call, and then the peer ends as ``ending`` names;
    ``send`` takes at most ``way`` bytes a call into ``sent``."""

    def __init__(self, data, ending, way):
        self.rest, self.ending, self.way = bytes(data), ending, way
        self.sent = bytearray()

    def recv(self, size):
        if not self.rest and ENDINGS[self.ending] is not None:
            raise ENDINGS[self.ending](f"the scripted peer's {self.ending}")
        size = min(size, self.way)
        chunk, self.rest = self.rest[:size], self.rest[size:]
        return chunk

    def send(self, data):
        self.sent += data[:self.way]
        return min(len(data), self.way)


def _pump(peer, steps):
    """Run the exchange ``steps`` over ``peer`` through ``_over``, and return
    its value."""
    run = _over(peer, steps)
    while True:
        try:
            next(run)
        except StopIteration as end:
            return end.value


def _agreed(results):
    assert len(set(results)) == 1, f"the result depends on the bytes per call: {results}"
    return results[0]


def verifier(data, ending="close"):
    """The verifier's outcome against a prover that sends ``data``, and what
    the verifier sent."""
    results = []
    for way in WAYS:
        prover = _Peer(data, ending, way)
        try:
            answer = _pump(prover, _verifier_exchange(BETA, FP))
        except OSError:
            outcome = ERASURE
        except ProtocolError:
            outcome = FAULT
        else:
            outcome = ERASURE if answer is None else answer
        results.append((outcome, bytes(prover.sent)))
    return _agreed(results)


def server(data, ending="close", answer_fn=None):
    """What the server sends to a client that sends ``data``, and how it ends."""
    answer_fn = answer_fn or chunk_hasher(FAM, X)
    results = []
    for way in WAYS:
        client = _Peer(data, ending, way)
        try:
            last = _pump(client, _prover_exchange(FP, FAM.n, answer_fn))
        except OSError:
            results.append((bytes(client.sent), HANG_UP))
        else:
            results.append((bytes(client.sent + last), None))
    return _agreed(results)


def _stops(frames):
    """(prefix length, where) for every point a peer can stop inside the
    transcript ``frames``, short of its end."""
    boundaries = {sum(len(f) for f in frames[:i]) for i in range(len(frames))}
    total = sum(len(f) for f in frames)
    return [(p, "boundary" if p in boundaries else "mid-frame") for p in range(total)]


PROVER_TRANSCRIPTS = {
    "HELLO, RESPONSE": ([HELLO, encode_response(ANSWER)], ANSWER),
    "HELLO, NO_RESPONSE": ([HELLO, encode_no_response()], ERASURE),
    **{f"ERROR {c}": ([encode_error(c)], FAULT) for c in ERROR_CODES},
    **{f"HELLO, ERROR {c}": ([HELLO, encode_error(c)], FAULT) for c in ERROR_CODES},
}


def test_every_stop_in_every_prover_transcript():
    expected, got = {}, {}
    for name, (frames, complete) in PROVER_TRANSCRIPTS.items():
        data = b"".join(frames)
        for p, where in _stops(frames) + [(len(data), "end")]:
            # the challenge goes out once the prover's whole HELLO is in
            sent = HELLO + (CHALLENGE if frames[0] == HELLO and p >= len(HELLO) else b"")
            for ending in ENDINGS:
                outcome = complete if where == "end" else VERIFIER_STOPS[ending, where]
                expected[name, p, ending] = (outcome, sent)
                got[name, p, ending] = verifier(data[:p], ending)
    assert len(got) == 3 * sum(len(b"".join(f)) + 1 for f, _ in PROVER_TRANSCRIPTS.values())
    assert got == expected


def test_every_stop_in_the_client_transcript():
    frames = [HELLO, CHALLENGE]
    data = b"".join(frames)
    expected, got = {}, {}
    for p, where in _stops(frames):
        for ending in ENDINGS:
            last, end = SERVER_STOPS[ending, where]
            replied = HELLO if p >= len(HELLO) else b""
            expected[p, ending] = (replied + last, end)
            got[p, ending] = server(data[:p], ending)
    assert len(got) == 3 * len(data)
    assert got == expected
    for ending in ENDINGS:
        assert server(data, ending) == (HELLO + encode_response(ANSWER), None)
    assert server(data, answer_fn=lambda beta: None) == (HELLO + encode_no_response(), None)


def test_the_verifier_refuses_wrong_frames_versions_and_families():
    padding = bytes(40)  # enough for any frame body
    got = {}
    for frame in range(256):
        if frame not in (FRAME_HELLO, FRAME_ERROR):
            got["first", frame] = verifier(bytes([frame]) + padding)
        if frame not in (FRAME_RESPONSE, FRAME_NO_RESPONSE, FRAME_ERROR):
            got["second", frame] = verifier(HELLO + bytes([frame]) + padding)
    for version in (0, PROTOCOL_VERSION + 1, 0xFFFF):
        got["version", version] = verifier(encode_hello(version, FP) + encode_response(ANSWER))
    for other in (b"\xEE" * 32, FP[:-1] + b"\x00"):
        got["family", other] = verifier(encode_hello(PROTOCOL_VERSION, other) + encode_response(0))
    assert len(got) == 254 + 253 + 3 + 2
    assert got == {
        case: (FAULT, HELLO + (CHALLENGE if case[0] == "second" else b"")) for case in got
    }


def test_each_error_code_names_itself_to_the_verifier():
    names = {
        ERR_FINGERPRINT: "fingerprint mismatch",
        ERR_UNEXPECTED: "unexpected frame",
        ERR_MALFORMED: "malformed frame",
        ERR_VERSION: "unsupported version",
        99: "code 99",
    }
    for code, name in names.items():
        for prefix, way in itertools.product((b"", HELLO), WAYS):
            prover = _Peer(prefix + encode_error(code), "close", way)
            with pytest.raises(ProtocolError, match=f"refused: {name}$"):
                _pump(prover, _verifier_exchange(BETA, FP))


def test_the_server_answers_each_client_fault_with_its_error_code():
    padding = bytes(40)
    replies = {}
    for frame in range(256):
        if frame != FRAME_HELLO:
            replies["first", frame] = server(bytes([frame]) + padding)
        if frame != FRAME_CHALLENGE:
            replies["second", frame] = server(HELLO + bytes([frame]) + padding)
    assert replies == {
        case: ((HELLO if case[0] == "second" else b"") + encode_error(ERR_UNEXPECTED), None)
        for case in replies
    }
    other = b"\xEE" * 32
    assert server(encode_hello(PROTOCOL_VERSION + 1, FP)) == (encode_error(ERR_VERSION), None)
    assert server(encode_hello(0xFFFF, other)) == (encode_error(ERR_VERSION), None)
    assert server(encode_hello(PROTOCOL_VERSION, other)) == (encode_error(ERR_FINGERPRINT), None)
    for beta, reply in [
        (0, encode_error(ERR_MALFORMED)),
        (1, encode_response(1)),
        (FAM.n, encode_response(4)),
        (FAM.n + 1, encode_error(ERR_MALFORMED)),
        (2**64 - 1, encode_error(ERR_MALFORMED)),
    ]:
        assert server(HELLO + encode_challenge(beta)) == (HELLO + reply, None), beta


def test_an_honest_exchange_sends_the_golden_bytes():
    fingerprint = bytes.fromhex(
        "2d5c00e12637371190602aed8676be86951a62a9252c0a2a6fc3d144ccfc78d0"
    )
    assert fingerprint == FP
    client = bytes.fromhex("00" "0100") + fingerprint + bytes.fromhex("01" "0200000000000000")
    prover = bytes.fromhex("00" "0100") + fingerprint + bytes.fromhex("02" "0300000000000000")
    assert verifier(prover) == (ANSWER, client)
    assert server(client) == (prover, None)
